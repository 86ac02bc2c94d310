// Extension bench (paper Section 8 future work): eager annotation
// maintenance vs lazy replay-on-demand, in the spirit of Ariadne's "replay
// lazy". Eager pays per interaction and holds standing state; lazy pays per
// query. The crossover depends on the query rate — reported here as the
// break-even number of queries.
//
// Every lazy shape runs through one CheckpointedLog: full, prefix and
// sliced replay over a log without checkpoints, time travel over one
// Record()ed with periodic checkpoints. Outside the timed windows, each
// sliced answer is checked against the full replay and each time-travel
// answer against the prefix replay; any mismatch fails the run (exit 1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "analytics/report.h"
#include "bench_util.h"
#include "lazy/checkpointed_log.h"
#include "stream/interaction_stream.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

// A tiny TINPROV_SCALE can shrink a preset to an empty stream, and the
// historical section below reads interactions().back() — UB on an empty
// log. Fail with a clear message instead.
bool EnsureNonEmpty(const Tin& tin, DatasetKind kind, double scale) {
  if (tin.num_interactions() > 0) return true;
  std::fprintf(stderr,
               "bench_lazy: dataset %s has 0 interactions at TINPROV_SCALE=%g;"
               " raise the scale\n",
               std::string(DatasetName(kind)).c_str(), scale);
  return false;
}

// The log without checkpoints: every replay starts from a fresh tracker.
CheckpointedLog PlainLog(const Tin& tin) {
  CheckpointedLog log;
  for (const Interaction& interaction : tin.interactions()) {
    log.Append(interaction);
  }
  return log;
}

// Bit-exact: every lazy shape promises the identical answer.
bool Verify(const char* what, const std::vector<Buffer>& expected,
            const std::vector<Buffer>& actual) {
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].total != actual[i].total ||
        expected[i].entries != actual[i].entries) {
      std::fprintf(stderr,
                   "bench_lazy: %s answer %zu differs from the reference "
                   "replay\n",
                   what, i);
      return false;
    }
  }
  return true;
}

// Provenance(v) after Replay(log, prefix); false on a replay error.
bool ReplayQuery(const CheckpointedLog& log, const TrackerFactory& factory,
                 size_t prefix, VertexId v, std::vector<Buffer>* answers,
                 size_t* replayed) {
  size_t delta = 0;
  auto tracker = log.Replay(factory, prefix, &delta);
  if (!tracker.ok()) return false;
  answers->push_back((*tracker)->Provenance(v));
  *replayed += delta;
  return true;
}

// ReplaySliced(log, prefix, v); false on a replay error.
bool SlicedQuery(const CheckpointedLog& log, const TrackerFactory& factory,
                 size_t prefix, VertexId v, std::vector<Buffer>* answers,
                 size_t* replayed) {
  size_t cone = 0;
  auto buffer = log.ReplaySliced(factory, prefix, v, &cone);
  if (!buffer.ok()) return false;
  answers->push_back(*std::move(buffer));
  *replayed += cone;
  return true;
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Extension",
                     "Eager annotation maintenance vs lazy replay (FIFO)");
  bench::JsonBenchReporter reporter("bench_lazy");

  const size_t kQueries = 20;
  for (const DatasetKind dataset :
       {DatasetKind::kBitcoin, DatasetKind::kCtu, DatasetKind::kProsper}) {
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    if (!EnsureNonEmpty(tin, dataset, scale)) return 1;
    const TrackerFactory factory = [n = tin.num_vertices()] {
      return CreateTracker(PolicyKind::kFifo, n);
    };
    Rng rng(11);
    std::vector<VertexId> query_vertices;
    for (size_t i = 0; i < kQueries; ++i) {
      query_vertices.push_back(
          static_cast<VertexId>(rng.NextBounded(tin.num_vertices())));
    }

    // Eager: one replay, then queries are O(buffer).
    auto eager = factory();
    Stopwatch watch;
    if (!eager->ProcessAll(tin).ok()) return 1;
    const double eager_build = watch.ElapsedSeconds();
    watch.Restart();
    double checksum = 0.0;
    for (const VertexId v : query_vertices) {
      checksum += eager->Provenance(v).Total();
    }
    (void)checksum;
    const double eager_query = watch.ElapsedSeconds();

    // Lazy: no standing state; each query replays (full vs sliced).
    const CheckpointedLog log = PlainLog(tin);
    std::vector<Buffer> full_answers;
    std::vector<Buffer> sliced_answers;
    watch.Restart();
    size_t replayed_full = 0;
    for (const VertexId v : query_vertices) {
      if (!ReplayQuery(log, factory, log.size(), v, &full_answers,
                       &replayed_full)) {
        return 1;
      }
    }
    const double lazy_full = watch.ElapsedSeconds();
    watch.Restart();
    size_t replayed_sliced = 0;
    for (const VertexId v : query_vertices) {
      if (!SlicedQuery(log, factory, log.size(), v, &sliced_answers,
                       &replayed_sliced)) {
        return 1;
      }
    }
    const double lazy_sliced = watch.ElapsedSeconds();
    if (!Verify("sliced", full_answers, sliced_answers)) return 1;

    std::printf("\n%s network (%zu interactions, %zu queries):\n",
                std::string(DatasetName(dataset)).c_str(),
                tin.num_interactions(), kQueries);
    TablePrinter table({"strategy", "build time", "query time",
                        "interactions replayed", "standing memory"});
    table.AddRow({"eager (FIFO)", FormatSeconds(eager_build),
                  FormatSeconds(eager_query),
                  std::to_string(tin.num_interactions()),
                  FormatBytes(eager->MemoryUsage())});
    table.AddRow({"lazy full replay", "0us", FormatSeconds(lazy_full),
                  std::to_string(replayed_full), "0B"});
    table.AddRow({"lazy sliced replay", "0us", FormatSeconds(lazy_sliced),
                  std::to_string(replayed_sliced), "0B"});
    std::printf("%s", table.ToString().c_str());
    const std::string dataset_name(DatasetName(dataset));
    reporter.Record(dataset_name + "/FIFO/eager_build", eager_build, 0.0,
                    eager->MemoryUsage());
    reporter.Record(dataset_name + "/FIFO/lazy_full_queries", lazy_full);
    reporter.Record(dataset_name + "/FIFO/lazy_sliced_queries", lazy_sliced);
    const double per_lazy_query = lazy_sliced / static_cast<double>(kQueries);
    if (per_lazy_query > 0.0) {
      std::printf("break-even: eager wins beyond ~%.0f queries over the "
                  "stream's lifetime\n",
                  eager_build / per_lazy_query);
    }
  }
  // Historical queries: the checkpointed log (periodic snapshots + delta
  // replay, whole or sliced) vs full-prefix replay, probing random past
  // times. Each probe asks for the destination of the last interaction
  // at or before its time, so the probed buffer is never empty and its
  // delta cone holds that interaction unless the probe lands right on a
  // checkpoint; uniformly random vertices mostly probe empty buffers
  // with empty cones at small scales, which checks nothing.
  std::printf("\nHistorical queries (FIFO, CTU-like, 20 random past times):\n");
  {
    const Tin tin = bench::MustMakeDataset(DatasetKind::kCtu, scale);
    if (!EnsureNonEmpty(tin, DatasetKind::kCtu, scale)) return 1;
    const TrackerFactory factory = [n = tin.num_vertices()] {
      return CreateTracker(PolicyKind::kFifo, n);
    };
    const auto& interactions = tin.interactions();
    const Timestamp end = interactions.back().t;
    const CheckpointedLog log = PlainLog(tin);
    Rng rng(12);
    std::vector<std::pair<VertexId, Timestamp>> probes;
    for (size_t i = 0; i < kQueries; ++i) {
      const size_t prefix =
          std::max<size_t>(1, log.UpperBound(rng.NextDouble() * end));
      const Interaction& last = interactions[prefix - 1];
      probes.emplace_back(last.dst, last.t);
    }
    TablePrinter table({"strategy", "build time", "query time",
                        "interactions replayed", "standing memory"});
    Stopwatch watch;
    MaterializedStream stream(tin);
    auto index = CheckpointedLog::Record(factory, stream,
                                         tin.num_interactions() / 20 + 1);
    const double index_build = watch.ElapsedSeconds();
    if (!index.ok()) return 1;
    std::vector<Buffer> travel_answers;
    std::vector<Buffer> sliced_answers;
    std::vector<Buffer> prefix_answers;
    size_t delta_full = 0;
    watch.Restart();
    for (const auto& [v, t] : probes) {
      if (!ReplayQuery(*index, factory, index->UpperBound(t), v,
                       &travel_answers, &delta_full)) {
        return 1;
      }
    }
    const double index_query = watch.ElapsedSeconds();
    size_t delta_sliced = 0;
    watch.Restart();
    for (const auto& [v, t] : probes) {
      if (!SlicedQuery(*index, factory, index->UpperBound(t), v,
                       &sliced_answers, &delta_sliced)) {
        return 1;
      }
    }
    const double sliced_query = watch.ElapsedSeconds();
    size_t replayed_prefix = 0;
    watch.Restart();
    for (const auto& [v, t] : probes) {
      if (!ReplayQuery(log, factory, log.UpperBound(t), v, &prefix_answers,
                       &replayed_prefix)) {
        return 1;
      }
    }
    const double replay_query = watch.ElapsedSeconds();
    if (!Verify("time-travel", prefix_answers, travel_answers) ||
        !Verify("time-travel sliced", prefix_answers, sliced_answers)) {
      return 1;
    }
    // A probed buffer shows one vertex; compare the whole state at every
    // probe too, so a bad restore cannot hide in the others.
    for (const auto& [v, t] : probes) {
      auto travel = index->Replay(factory, index->UpperBound(t));
      auto prefix = log.Replay(factory, log.UpperBound(t));
      if (!travel.ok() || !prefix.ok()) return 1;
      std::vector<uint8_t> travel_state;
      std::vector<uint8_t> prefix_state;
      (*travel)->SaveState(&travel_state);
      (*prefix)->SaveState(&prefix_state);
      if (travel_state != prefix_state) {
        std::fprintf(stderr,
                     "bench_lazy: time-travel state at t=%g differs from "
                     "the prefix replay\n",
                     t);
        return 1;
      }
    }
    table.AddRow({"time-travel index", FormatSeconds(index_build),
                  FormatSeconds(index_query), std::to_string(delta_full),
                  FormatBytes(index->MemoryUsage())});
    table.AddRow({"time-travel sliced", "(shared)",
                  FormatSeconds(sliced_query), std::to_string(delta_sliced),
                  "(shared)"});
    table.AddRow({"full-prefix replay", "0us", FormatSeconds(replay_query),
                  std::to_string(replayed_prefix), "0B"});
    std::printf("%s", table.ToString().c_str());
    std::printf("sliced delta: %zu of %zu delta interactions replayed\n",
                delta_sliced, delta_full);
    reporter.Record("CTU/FIFO/time_travel_build", index_build, 0.0,
                    index->MemoryUsage());
    reporter.Record("CTU/FIFO/time_travel_queries", index_query);
    reporter.Record("CTU/FIFO/time_travel_sliced_queries", sliced_query);
    reporter.Record("CTU/FIFO/prefix_replay_queries", replay_query);
  }

  std::printf(
      "\nExpected shape: slicing replays a fraction of the stream (the "
      "query vertex's\ntemporal influence cone); eager amortizes its one-off "
      "build cost once queries\nare frequent; the time-travel index answers "
      "historical queries in O(snapshot +\ndelta) instead of O(prefix), and "
      "slicing the delta replays a fraction of it.\n");
  return 0;
}
