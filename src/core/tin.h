// The Tin container: an immutable, time-sorted interaction log.
#ifndef TINPROV_CORE_TIN_H_
#define TINPROV_CORE_TIN_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace tinprov {

/// Aggregate characteristics, mirroring paper Table 6.
struct TinStats {
  size_t num_vertices = 0;
  size_t num_interactions = 0;
  size_t num_edges = 0;       // distinct (src, dst) pairs
  size_t num_self_loops = 0;  // interactions with src == dst
  double avg_quantity = 0.0;
};

/// The shape a processing pipeline needs to know about its input before
/// seeing a single interaction: the vertex-id space and, when known, the
/// stream length. This is the Tin-free half of TinStats — streams
/// (stream/interaction_stream.h) advertise it so trackers can pre-size
/// allocations (Tracker::ReserveHint) without a materialized log.
struct DatasetStats {
  size_t num_vertices = 0;
  /// Expected interaction count; 0 means unknown (open-ended stream).
  size_t num_interactions = 0;
};

/// An immutable temporal interaction network. Construction sorts the log
/// by timestamp (stable, so simultaneous interactions keep their input
/// order).
class Tin {
 public:
  Tin() = default;

  /// `num_vertices` must cover every id referenced by `interactions`.
  Tin(size_t num_vertices, std::vector<Interaction> interactions);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_interactions() const { return interactions_.size(); }

  /// Time-sorted interaction log.
  const std::vector<Interaction>& interactions() const {
    return interactions_;
  }

  /// Bytes held by the log.
  size_t MemoryUsage() const;

  /// The pre-sizing shape of this log; O(1), unlike ComputeStats().
  DatasetStats Stats() const { return {num_vertices_, interactions_.size()}; }

  /// Scans the log; O(|interactions|) time, O(|edges|) space.
  TinStats ComputeStats() const;

 private:
  size_t num_vertices_ = 0;
  std::vector<Interaction> interactions_;
};

}  // namespace tinprov

#endif  // TINPROV_CORE_TIN_H_
