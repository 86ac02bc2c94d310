#include "lazy/replay.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tinprov {

namespace {

/// Every lazy query shape funnels its per-query cost through here.
/// (The parameter is unused when TINPROV_METRICS=OFF expands the
/// macros to no-ops.)
void RecordLazyQuery([[maybe_unused]] const ReplayStats& stats) {
  TINPROV_COUNTER_ADD("lazy.queries", 1);
  TINPROV_COUNTER_ADD("lazy.replayed_interactions",
                      stats.interactions_replayed);
  TINPROV_HISTOGRAM_OBSERVE("lazy.cone_vertices", stats.cone_vertices);
  TINPROV_HISTOGRAM_OBSERVE("lazy.cone_interactions",
                            stats.interactions_replayed);
}

}  // namespace

size_t PrefixLength(const Tin& tin, Timestamp t) {
  const auto& log = tin.interactions();
  const auto it = std::upper_bound(
      log.begin(), log.end(), t,
      [](Timestamp time, const Interaction& x) { return time < x.t; });
  return static_cast<size_t>(it - log.begin());
}

std::vector<uint32_t> BackwardInfluenceCone(const Tin& tin, VertexId v,
                                            size_t* cone_vertices) {
  if (cone_vertices != nullptr) *cone_vertices = 0;
  std::vector<uint32_t> cone;
  const size_t n = tin.num_vertices();
  if (v >= n) return cone;

  // Label-correcting reverse traversal: bound[u] is the latest time up
  // to which u's history matters for v. Bounds only grow, so each vertex
  // re-scans its (time-ordered) interaction index from a persistent
  // cursor — total work is linear in scanned index entries. Indices are
  // collected as found and sorted/deduplicated at the end (an
  // interaction appears at most twice, once per cone endpoint), keeping
  // the query cost proportional to the cone, not the log.
  constexpr Timestamp kUnreached = std::numeric_limits<Timestamp>::lowest();
  const auto& log = tin.interactions();
  std::vector<Timestamp> bound(n, kUnreached);
  std::vector<uint32_t> cursor(n, 0);
  std::vector<VertexId> worklist;
  bound[v] = std::numeric_limits<Timestamp>::infinity();
  worklist.push_back(v);
  size_t num_cone_vertices = 1;

  while (!worklist.empty()) {
    const VertexId u = worklist.back();
    worklist.pop_back();
    const Timestamp limit = bound[u];
    size_t count = 0;
    const uint32_t* entries = tin.VertexInteractions(u, &count);
    uint32_t& pos = cursor[u];
    while (pos < count) {
      const uint32_t index = entries[pos];
      const Interaction& x = log[index];
      if (x.t > limit) break;
      ++pos;
      // Outflows from u reshape u's buffer; inflows additionally pull
      // their source into the cone up to the transfer time (ties at the
      // same timestamp are included — over-covering is harmless, the
      // closure keeps every included interaction itself exact).
      cone.push_back(index);
      if (x.dst == u && x.src != u && x.t > bound[x.src]) {
        if (bound[x.src] == kUnreached) ++num_cone_vertices;
        bound[x.src] = x.t;
        worklist.push_back(x.src);
      }
    }
  }

  std::sort(cone.begin(), cone.end());
  cone.erase(std::unique(cone.begin(), cone.end()), cone.end());
  if (cone_vertices != nullptr) *cone_vertices = num_cone_vertices;
  return cone;
}

LazyReplayEngine::LazyReplayEngine(const Tin& tin, PolicyKind kind)
    : tin_(&tin),
      factory_([kind, n = tin.num_vertices()] {
        return CreateTracker(kind, n);
      }) {}

LazyReplayEngine::LazyReplayEngine(const Tin& tin, TrackerFactory factory)
    : tin_(&tin), factory_(std::move(factory)) {}

StatusOr<std::unique_ptr<Tracker>> LazyReplayEngine::MakeTracker() const {
  if (!factory_) {
    return Status::FailedPrecondition("lazy engine has no tracker factory");
  }
  std::unique_ptr<Tracker> tracker = factory_();
  if (tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  return tracker;
}

StatusOr<Buffer> LazyReplayEngine::ReplayPrefix(VertexId v, size_t prefix) {
  obs::TraceSpan span("lazy.prefix_query", "lazy");
  if (v >= tin_->num_vertices()) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  auto tracker = MakeTracker();
  if (!tracker.ok()) return tracker.status();
  const auto& log = tin_->interactions();
  for (size_t i = 0; i < prefix; ++i) {
    const Status status = (*tracker)->Process(log[i]);
    if (!status.ok()) {
      return Status(status.code(), "lazy replay at interaction " +
                                       std::to_string(i) + ": " +
                                       status.message());
    }
  }
  last_stats_.interactions_replayed = prefix;
  last_stats_.cone_vertices = tin_->num_vertices();
  RecordLazyQuery(last_stats_);
  return (*tracker)->Provenance(v);
}

StatusOr<Buffer> LazyReplayEngine::Provenance(VertexId v) {
  return ReplayPrefix(v, tin_->num_interactions());
}

StatusOr<Buffer> LazyReplayEngine::Provenance(VertexId v, Timestamp t) {
  return ReplayPrefix(v, PrefixLength(*tin_, t));
}

StatusOr<Buffer> LazyReplayEngine::ProvenanceSliced(VertexId v) {
  obs::TraceSpan span("lazy.sliced_query", "lazy");
  if (v >= tin_->num_vertices()) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  size_t cone_vertices = 0;
  const std::vector<uint32_t> cone =
      BackwardInfluenceCone(*tin_, v, &cone_vertices);
  auto tracker = MakeTracker();
  if (!tracker.ok()) return tracker.status();
  const auto& log = tin_->interactions();
  for (const uint32_t index : cone) {
    const Status status = (*tracker)->Process(log[index]);
    if (!status.ok()) {
      return Status(status.code(), "sliced replay at interaction " +
                                       std::to_string(index) + ": " +
                                       status.message());
    }
  }
  last_stats_.interactions_replayed = cone.size();
  last_stats_.cone_vertices = cone_vertices;
  RecordLazyQuery(last_stats_);
  return (*tracker)->Provenance(v);
}

}  // namespace tinprov
