#include "core/tin.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tinprov {

Tin::Tin(size_t num_vertices, std::vector<Interaction> interactions)
    : num_vertices_(num_vertices), interactions_(std::move(interactions)) {
  obs::TraceSpan span("core.tin_build", "core");
  std::stable_sort(
      interactions_.begin(), interactions_.end(),
      [](const Interaction& a, const Interaction& b) { return a.t < b.t; });
#ifndef NDEBUG
  for (const Interaction& interaction : interactions_) {
    assert(interaction.src < num_vertices_);
    assert(interaction.dst < num_vertices_);
  }
#endif

  TINPROV_GAUGE_SET("memory.tin_bytes", MemoryUsage());
}

size_t Tin::MemoryUsage() const {
  return interactions_.capacity() * sizeof(Interaction);
}

TinStats Tin::ComputeStats() const {
  TinStats stats;
  stats.num_vertices = num_vertices_;
  stats.num_interactions = interactions_.size();
  std::unordered_set<uint64_t> edges;
  edges.reserve(interactions_.size());
  double quantity_sum = 0.0;
  for (const Interaction& interaction : interactions_) {
    edges.insert((static_cast<uint64_t>(interaction.src) << 32) |
                 interaction.dst);
    quantity_sum += interaction.quantity;
    stats.num_self_loops += interaction.src == interaction.dst ? 1 : 0;
  }
  stats.num_edges = edges.size();
  stats.avg_quantity = interactions_.empty()
                           ? 0.0
                           : quantity_sum /
                                 static_cast<double>(interactions_.size());
  return stats;
}

}  // namespace tinprov
