// The time-travel index: periodic tracker snapshots + delta replay.
//
// Pure lazy replay answers a historical Provenance(v, t) in O(prefix);
// the index instead checkpoints the tracker's serialized state (the
// snapshot/restore capability of policies/tracker.h) every
// snapshot_interval interactions during one build replay, into a
// CheckpointedLog beside its own copy of the log. A query then replays
// only the delta past the nearest snapshot — O(snapshot + interval)
// instead of O(prefix) — at the price of MemoryUsage() bytes of
// standing state. bench_lazy measures both sides of that trade.
#ifndef TINPROV_LAZY_TIME_TRAVEL_H_
#define TINPROV_LAZY_TIME_TRAVEL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "lazy/checkpointed_log.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

class TimeTravelIndex {
 public:
  /// Builds the index over `tin` for `kind`, snapshotting every
  /// `snapshot_interval` interactions (0 is treated as 1). Fails if the
  /// build replay rejects an interaction.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> Build(
      const Tin& tin, PolicyKind kind, size_t snapshot_interval);

  /// As above for an arbitrary tracker factory (any policy or scalable
  /// tracker); snapshots and queries construct trackers through it, so
  /// it must build identically configured instances every call.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> Build(
      const Tin& tin, TrackerFactory factory, size_t snapshot_interval);

  /// Streaming construction: the index is built as interactions arrive
  /// instead of from a pre-materialized log. Observe() each interaction
  /// (snapshots are cut at the ingest watermark, i.e. every
  /// snapshot_interval observed interactions, exactly where Build()
  /// would cut them), then Finalize() to enable queries. Either way the
  /// index keeps its own copy of the observed log — historical delta
  /// replay needs it — so standing memory grows with the stream; what
  /// streaming buys is single-pass ingestion with the build tracker and
  /// snapshots advancing while data arrives. Results are bit-identical
  /// to Build() over the materialized equivalent.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> NewStreaming(
      size_t num_vertices, TrackerFactory factory, size_t snapshot_interval);

  /// Applies one arriving interaction to the unfinalized index.
  /// Enforces non-decreasing timestamps (wrap disordered sources in a
  /// SortingStream); FailedPrecondition once finalized.
  Status Observe(const Interaction& interaction);

  /// Drains `stream` through Observe().
  Status ObserveStream(InteractionStream& stream);

  /// Ends ingestion: drops the build tracker and enables Provenance().
  /// Idempotent; Observe() is rejected afterwards.
  Status Finalize();

  /// True when the index answers queries (Build() returns finalized
  /// indexes; streaming ones finalize explicitly).
  bool finalized() const { return build_tracker_ == nullptr; }

  /// Timestamp of the last observed interaction.
  Timestamp watermark() const {
    return log_.empty() ? std::numeric_limits<Timestamp>::lowest()
                        : log_[log_.size() - 1].t;
  }

  /// Provenance of `v` at historical time `t` (inclusive): restore the
  /// nearest snapshot at or before t's prefix, replay the delta. Equals
  /// full-prefix replay bit-exactly. Times before the first interaction
  /// yield an empty buffer.
  StatusOr<Buffer> Provenance(VertexId v, Timestamp t) const;

  size_t num_snapshots() const { return log_.num_checkpoints(); }
  size_t snapshot_interval() const { return interval_; }

  /// Vertex count the index was built over.
  size_t num_vertices() const { return num_vertices_; }

  /// Interactions observed so far — the prefix length at watermark().
  size_t num_observed() const { return log_.size(); }

  /// The observed log and its snapshots. A serve handoff seeds its own
  /// history with a copy (sharing the snapshot images).
  const CheckpointedLog& log() const { return log_; }

  /// Serializes the tracker state at the index's watermark (every
  /// observed interaction applied), appending to `out` in Tracker
  /// SaveState() format: RestoreState() on an identically configured
  /// tracker resumes replay bit-exactly after the last observed
  /// interaction. Stateless — the index keeps no end-of-log tracker, so
  /// this restores the newest snapshot and replays the tail delta (at
  /// most snapshot_interval interactions). The serve layer uses this to
  /// hand a historical index's final state to a live tracker.
  /// FailedPrecondition before Finalize().
  Status SaveFinalState(std::vector<uint8_t>* out) const;

  /// Standing bytes of the observed log, serialized snapshot state and
  /// the per-snapshot prefix bookkeeping (excluding container-header
  /// overhead, matching the Tracker::MemoryUsage() accounting
  /// convention).
  size_t MemoryUsage() const;

 private:
  TimeTravelIndex(size_t num_vertices, TrackerFactory factory,
                  size_t interval)
      : num_vertices_(num_vertices),
        factory_(std::move(factory)),
        interval_(interval) {}

  size_t num_vertices_;
  TrackerFactory factory_;
  size_t interval_;
  CheckpointedLog log_;
  std::unique_ptr<Tracker> build_tracker_;  // live between ctor and Finalize
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_TIME_TRAVEL_H_
