// Grouped provenance tracking (paper Section 5.2, Fig. 5): vertices are
// partitioned into k groups and generated quantity is attributed to the
// source's *group* instead of the source itself. List lengths are
// bounded by k, so cost scales like selective tracking at equal k while
// every vertex's generation stays (coarsely) attributed.
#ifndef TINPROV_SCALABLE_GROUPED_H_
#define TINPROV_SCALABLE_GROUPED_H_

#include <cstdint>
#include <vector>

#include "policies/proportional_base.h"

namespace tinprov {

/// Group id within a GroupedTracker; occupies the origin field of the
/// tracker's provenance tuples.
using GroupId = uint32_t;

/// v -> v mod k: perfectly balanced group sizes (within one vertex).
std::vector<GroupId> RoundRobinGroups(size_t num_vertices,
                                      size_t num_groups);

class GroupedTracker : public SparseProportionalBase {
 public:
  /// `groups` must assign every vertex a group id < num_groups (e.g.
  /// RoundRobinGroups above).
  GroupedTracker(size_t num_vertices, std::vector<GroupId> groups,
                 size_t num_groups);

  size_t num_groups() const { return num_groups_; }
  GroupId GroupOf(VertexId v) const { return groups_[v]; }

 protected:
  // Snapshot/restore needs no override here: the group map is pure
  // configuration, so the base class's buffers/totals framing already
  // captures the full mutable state.
  VertexId GenerationLabel(VertexId src) const override {
    return groups_[src];
  }

  size_t AuxiliaryBytes() const override {
    return groups_.capacity() * sizeof(GroupId);
  }

 private:
  std::vector<GroupId> groups_;
  size_t num_groups_;
};

}  // namespace tinprov

#endif  // TINPROV_SCALABLE_GROUPED_H_
