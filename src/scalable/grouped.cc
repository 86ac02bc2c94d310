#include "scalable/grouped.h"

#include <cassert>
#include <utility>

namespace tinprov {

namespace {

size_t ClampGroups(size_t num_groups) {
  return num_groups == 0 ? 1 : num_groups;
}

}  // namespace

std::vector<GroupId> RoundRobinGroups(size_t num_vertices,
                                      size_t num_groups) {
  const size_t k = ClampGroups(num_groups);
  std::vector<GroupId> groups(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    groups[v] = static_cast<GroupId>(v % k);
  }
  return groups;
}

GroupedTracker::GroupedTracker(size_t num_vertices,
                               std::vector<GroupId> groups,
                               size_t num_groups)
    : SparseProportionalBase(num_vertices),
      groups_(std::move(groups)),
      num_groups_(ClampGroups(num_groups)) {
  assert(groups_.size() == num_vertices);
  for (const GroupId g : groups_) {
    assert(g < num_groups_);
    (void)g;
  }
}

}  // namespace tinprov
