// Parallel-replay semantics: sharded replay must be indistinguishable —
// bit for bit — from sequential replay, for every factory-constructible
// tracker and the degenerate shapes (one thread, more threads than
// shards, more shards than labels, empty datasets).
// The equality harness mirrors tests/test_lazy.cc: no tolerances
// anywhere, the parallel engine promises the identical result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "parallel/sharded_replay.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace tinprov {
namespace {

// The same hand-built TIN as test_policies.cc: deficit generation,
// partial consumption, re-sends, and a self-loop over 6 interactions.
Tin HandTin() {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 5.0},  // 1 generates 5, sends to 0
      {2, 0, 2.0, 3.0},  // 2 generates 3, sends to 0
      {0, 3, 3.0, 4.0},  // 0 forwards a mix
      {3, 3, 4.0, 2.0},  // self-loop at 3
      {3, 4, 5.0, 6.0},  // exceeds 3's buffer: deficit generated at 3
      {4, 0, 6.0, 1.0},  // flows back
  };
  return Tin(5, std::move(log));
}

Tin GeneratedTin() {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = 3000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 41;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

// Mid-range scalable configuration; small enough that Budget shrinks
// and Windowed resets actually fire while shards replay.
ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

void ExpectSameBuffer(const Buffer& expected, const Buffer& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.total, actual.total) << context;
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << context;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_TRUE(expected.entries[i] == actual.entries[i])
        << context << " entry " << i << ": (" << expected.entries[i].origin
        << ", " << expected.entries[i].quantity << ") vs ("
        << actual.entries[i].origin << ", " << actual.entries[i].quantity
        << ")";
  }
}

std::vector<uint8_t> StateBytes(const Tracker& tracker) {
  std::vector<uint8_t> bytes;
  tracker.SaveState(&bytes);
  return bytes;
}

// Totals and lists vertex by vertex (readable failures), then the
// SaveState bytes, which also cover the replicated scalars and aux
// state (the attributed total, window positions, ...) that queries
// never show.
void ExpectSameTrackerState(const Tracker& expected, const Tracker& actual,
                            const std::string& context) {
  EXPECT_EQ(expected.total_generated(), actual.total_generated()) << context;
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices()) << context;
  for (VertexId v = 0; v < expected.num_vertices(); ++v) {
    EXPECT_EQ(expected.BufferTotal(v), actual.BufferTotal(v))
        << context << " vertex " << v;
    ExpectSameBuffer(expected.Provenance(v), actual.Provenance(v),
                     context + " vertex " + std::to_string(v));
  }
  EXPECT_TRUE(StateBytes(expected) == StateBytes(actual))
      << context << ": SaveState bytes differ";
}

// The engine's one entry point over a materialized log, or its first
// `prefix` interactions.
StatusOr<ShardedReplayResult> ReplayLog(
    const ShardedReplayEngine& engine, const Tin& tin,
    size_t prefix = std::numeric_limits<size_t>::max()) {
  MaterializedStream stream(tin, prefix);
  return engine.ReplayStream(stream);
}

// Replays `tin` sequentially through the named tracker and checks the
// sharded result against it, vertex by vertex and byte for byte.
void ExpectBitIdentical(const Tin& tin, const std::string& name,
                        const ParallelParams& parallel,
                        const std::string& context) {
  const ScalableParams params = TestParams();
  auto eager = TrackerRegistry::Global().Create({name, params}, tin);
  ASSERT_TRUE(eager.ok()) << context;
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok()) << context;

  auto spec = TrackerRegistry::Global().Sharded({name, params}, tin);
  ASSERT_TRUE(spec.ok()) << context;
  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto result = ReplayLog(engine, tin);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();

  EXPECT_EQ(result->interactions_replayed, tin.num_interactions()) << context;
  ExpectSameTrackerState(**eager, *result->tracker, context);
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// ---------------------------------------------------------------------
// (a) Sharded replay is bit-identical to sequential replay for every
// factory name, across thread/shard shapes.

class ShardedReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedReplayTest, FourShardsMatchSequentialBitExactly) {
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
  ExpectBitIdentical(GeneratedTin(), GetParam(), parallel,
                     GetParam() + "/4-shards");
}

TEST_P(ShardedReplayTest, OneThreadManyShardsMatches) {
  // One worker draining five shards exercises the sharding and exchange
  // logic with zero scheduling nondeterminism.
  ParallelParams parallel;
  parallel.num_threads = 1;
  parallel.num_shards = 5;
  ExpectBitIdentical(GeneratedTin(), GetParam(), parallel,
                     GetParam() + "/1-thread");
}

TEST_P(ShardedReplayTest, MoreThreadsThanShardsMatches) {
  ParallelParams parallel;
  parallel.num_threads = 8;
  parallel.num_shards = 2;
  ExpectBitIdentical(GeneratedTin(), GetParam(), parallel,
                     GetParam() + "/8-threads-2-shards");
}

TEST_P(ShardedReplayTest, EmptyDatasetYieldsEmptyState) {
  const Tin tin(5, {});
  ParallelParams parallel;
  parallel.num_threads = 4;
  auto spec =
      TrackerRegistry::Global().Sharded({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto result = ReplayLog(engine, tin);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tracker->total_generated(), 0.0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(result->BufferTotal(v), 0.0);
    EXPECT_TRUE(result->Provenance(v).entries.empty());
  }
}

TEST_P(ShardedReplayTest, PrefixReplayMatchesSequentialPrefix) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  const size_t prefix = tin.num_interactions() / 2;

  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> eager = (*factory)();
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix; ++i) {
    ASSERT_TRUE(eager->Process(log[i]).ok());
  }

  ParallelParams parallel;
  parallel.num_threads = 3;
  auto spec = TrackerRegistry::Global().Sharded({GetParam(), params}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto result = ReplayLog(engine, tin, prefix);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->interactions_replayed, prefix);
  ExpectSameTrackerState(*eager, *result->tracker, GetParam() + "/prefix");
}

TEST_P(ShardedReplayTest, RepeatedRunsAreDeterministic) {
  // Thread scheduling varies between runs; results must not.
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 7;
  auto spec =
      TrackerRegistry::Global().Sharded({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto first = ReplayLog(engine, tin);
  auto second = ReplayLog(engine, tin);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameTrackerState(*first->tracker, *second->tracker,
                         GetParam() + "/determinism");
}

INSTANTIATE_TEST_SUITE_P(AllTrackerNames, ShardedReplayTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Engine mechanics: which path runs, and the label-space clamps.

TEST(ShardedReplayEngineTest, DecomposableNamesTakeTheParallelPath) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name : {"Prop-sparse", "Selective", "Grouped",
                           "Windowed"}) {
    auto spec = TrackerRegistry::Global().Sharded({name, TestParams()}, tin);
    ASSERT_TRUE(spec.ok());
    EXPECT_TRUE(spec->decomposable) << name;
    ShardedReplayEngine engine(*std::move(spec), parallel);
    auto result = ReplayLog(engine, tin);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_parallel_path) << name;
    EXPECT_GT(result->num_shards, 1u) << name;
    EXPECT_EQ(result->shards.size(), result->num_shards) << name;
  }
}

TEST(ShardedReplayEngineTest, NonDecomposableNamesFallBackSequentially) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name :
       {"NoProv", "LIFO", "FIFO", "LRB", "MRB", "Prop-dense", "Budget"}) {
    auto spec = TrackerRegistry::Global().Sharded({name, TestParams()}, tin);
    ASSERT_TRUE(spec.ok());
    EXPECT_FALSE(spec->decomposable) << name;
    ShardedReplayEngine engine(*std::move(spec), parallel);
    auto result = ReplayLog(engine, tin);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_FALSE(result->used_parallel_path) << name;
    EXPECT_EQ(result->num_shards, 1u) << name;
  }
}

TEST(ShardedReplayEngineTest, ShardCountClampsToLabelSpace) {
  // Grouped labels live in [0, num_groups); asking for more shards than
  // labels must clamp, not leave empty shards (7 groups in TestParams).
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 16;
  auto spec =
      TrackerRegistry::Global().Sharded({"Grouped", TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->label_count, 7u);
  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto result = ReplayLog(engine, tin);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_shards, 7u);
  ExpectBitIdentical(tin, "Grouped", parallel, "Grouped/clamped");
}

TEST(ShardedReplayEngineTest, HandBuiltTinAcrossShardCounts) {
  const Tin tin = HandTin();
  for (size_t shards = 1; shards <= 5; ++shards) {
    ParallelParams parallel;
    parallel.num_threads = 2;
    parallel.num_shards = shards;
    ExpectBitIdentical(tin, "Prop-sparse", parallel,
                       "hand/shards" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------
// (c) Wiring: the measurement harness returns the same answers as its
// sequential counterpart.

TEST(ParallelWiringTest, MeasureTrackerParallelOptionRuns) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  MeasureOptions options;
  options.tin = &tin;
  options.parallel = true;
  options.parallel_params.num_threads = 2;

  auto sharded = MeasureTracker({"Prop-sparse", params}, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(sharded->feasible);
  EXPECT_TRUE(sharded->parallel);
  EXPECT_GT(sharded->peak_memory, 0u);

  // Non-decomposable names silently measure on the classic path.
  auto fallback = MeasureTracker({"LIFO", params}, options);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->parallel);

  // The final logical memory must agree with the sequential tracker's.
  auto eager = TrackerRegistry::Global().Create({"Prop-sparse", params}, tin);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok());
  EXPECT_EQ(sharded->peak_memory, (*eager)->MemoryUsage());
}

// ---------------------------------------------------------------------
// (d) Sharded stream ingest — the Catchup path — == sequential
// StreamIngestor, bit for bit, for every registry tracker.

// Ingests `tin`'s log as a stream through both paths — sequential
// StreamIngestor on spec.sequential(), and the sharded engine — and
// requires bit-identical trackers plus matching ingest stats.
void ExpectIngestBitIdentical(const Tin& tin, const std::string& name,
                              const ParallelParams& parallel,
                              const std::string& context,
                              bool expect_parallel_path = true) {
  const ScalableParams params = TestParams();
  auto spec = TrackerRegistry::Global().Sharded(
      {name, params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok()) << context << ": " << spec.status().ToString();

  std::unique_ptr<Tracker> reference = spec->sequential();
  IngestOptions options;
  options.batch_size = 257;  // deliberately not a divisor of the length
  StreamIngestor ingestor(reference.get(), options);
  MaterializedStream reference_stream(tin);
  ASSERT_TRUE(ingestor.IngestAll(reference_stream).ok()) << context;

  ShardedReplayEngine engine(*std::move(spec), parallel);
  auto result = ReplayLog(engine, tin);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
  EXPECT_EQ(result->used_parallel_path, expect_parallel_path) << context;

  ExpectSameTrackerState(*reference, *result->tracker, context);
  EXPECT_EQ(result->interactions_replayed, ingestor.stats().interactions)
      << context;
  EXPECT_EQ(result->watermark, ingestor.stats().watermark) << context;
}

class ShardedIngestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedIngestTest, FourShardsMatchSequentialBitExactly) {
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
  parallel.stream_chunk = 97;  // 31 chunks: the queue of 8 wraps
  ExpectIngestBitIdentical(GeneratedTin(), GetParam(), parallel,
                           GetParam() + "/ingest-4-shards");
}

TEST_P(ShardedIngestTest, ShardCountSweepMatches) {
  const Tin tin = GeneratedTin();
  for (const size_t shards : {size_t{2}, size_t{3}, size_t{7}}) {
    ParallelParams parallel;
    parallel.num_threads = 3;  // 7 shards: workers own several each
    parallel.num_shards = shards;
    ExpectIngestBitIdentical(tin, GetParam(), parallel,
                             GetParam() + "/ingest-shards" +
                                 std::to_string(shards));
  }
}

TEST_P(ShardedIngestTest, HandBuiltTinMatches) {
  // 5 vertices, self-loop, deficit generation, and chunks of two
  // interactions: every chunk boundary lands mid-flow.
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.num_shards = 3;
  parallel.stream_chunk = 2;
  ExpectIngestBitIdentical(HandTin(), GetParam(), parallel,
                           GetParam() + "/ingest-hand");
}

TEST_P(ShardedIngestTest, RepeatedRunsAreDeterministic) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
  auto make_result = [&] {
    auto spec = TrackerRegistry::Global().Sharded(
        {GetParam(), TestParams(), TrackerMode::kStreaming}, tin.Stats());
    EXPECT_TRUE(spec.ok());
    ShardedReplayEngine engine(*std::move(spec), parallel);
    return ReplayLog(engine, tin);
  };
  auto first = make_result();
  auto second = make_result();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameTrackerState(*first->tracker, *second->tracker,
                         GetParam() + "/ingest-determinism");
}

INSTANTIATE_TEST_SUITE_P(DecomposableNames, ShardedIngestTest,
                         ::testing::Values("Prop-sparse", "Windowed",
                                           "Selective", "Grouped"),
                         SanitizeName);

TEST(ShardedIngestPathTest, NonDecomposableNamesFallBackSequentially) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name : {"NoProv", "LIFO", "FIFO", "Budget"}) {
    ExpectIngestBitIdentical(tin, name, parallel,
                             std::string(name) + "/ingest-fallback",
                             /*expect_parallel_path=*/false);
  }
}

TEST(ShardedIngestPathTest, SingleThreadStillShardsInline) {
  // Shards are not clamped to threads: one worker runs all four on the
  // caller's thread, with no queue.
  ParallelParams parallel;
  parallel.num_threads = 1;
  parallel.num_shards = 4;
  ExpectIngestBitIdentical(GeneratedTin(), "Prop-sparse", parallel,
                           "Prop-sparse/ingest-1-thread");
}

TEST(ShardedIngestPathTest, EmptyStreamYieldsEmptyTracker) {
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming},
      DatasetStats{12, 0});
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 4;
  ShardedReplayEngine engine(*std::move(spec), parallel);
  VectorStream stream(12, {});
  auto result = engine.ReplayStream(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->tracker, nullptr);
  EXPECT_TRUE(result->used_parallel_path);
  EXPECT_EQ(result->tracker->total_generated(), 0.0);
  EXPECT_EQ(result->interactions_replayed, 0u);
  for (VertexId v = 0; v < 12; ++v) {
    EXPECT_TRUE(result->Provenance(v).entries.empty());
  }
}

TEST(ShardedIngestPathTest, ShardInfoAccountsEveryLabelOnce) {
  const Tin tin = GeneratedTin();
  for (const char* name : {"Prop-sparse", "Grouped"}) {
    auto spec = TrackerRegistry::Global().Sharded(
        {name, TestParams(), TrackerMode::kStreaming}, tin.Stats());
    ASSERT_TRUE(spec.ok());
    const size_t label_count = spec->label_count;
    ParallelParams parallel;
    parallel.num_threads = 4;
    parallel.num_shards = 4;
    ShardedReplayEngine engine(*std::move(spec), parallel);
    auto result = ReplayLog(engine, tin);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->used_parallel_path) << name;
    ASSERT_EQ(result->shards.size(), result->num_shards) << name;
    size_t labels = 0;
    size_t entries = 0;
    for (const ShardInfo& shard : result->shards) {
      labels += shard.labels;
      entries += shard.entries;
    }
    EXPECT_EQ(labels, label_count) << name;
    // Slices are disjoint, so the adopted tracker holds exactly the
    // shards' tuples.
    size_t adopted = 0;
    for (VertexId v = 0; v < tin.num_vertices(); ++v) {
      adopted += result->Provenance(v).entries.size();
    }
    EXPECT_EQ(entries, adopted) << name;
  }
}

// ---------------------------------------------------------------------
// (e) Thread plumbing: the hardware width, and the shard-worker error
// path.

TEST(ShardWorkerTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(ShardWorkerTest, ShardErrorStopsEveryThreadCountAlike) {
  // An out-of-range source deep into the stream (chunk 87 of 625) fails
  // every shard at the same interaction. The inline path reports shard
  // 0; the threaded path must report the same error, whichever worker
  // fails first, and must not hang on the workers it stops.
  std::vector<Interaction> log;
  for (size_t i = 0; i < 5000; ++i) {
    log.push_back({static_cast<VertexId>(i % 5),
                   static_cast<VertexId>((i + 1) % 5),
                   static_cast<Timestamp>(i), 1.0});
  }
  log[700].src = 9;
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming},
      DatasetStats{5, log.size()});
  ASSERT_TRUE(spec.ok());
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    ParallelParams parallel;
    parallel.num_threads = threads;
    parallel.num_shards = 3;
    parallel.stream_chunk = 8;
    ShardedReplayEngine engine(*spec, parallel);
    VectorStream stream(5, log);
    const auto result = engine.ReplayStream(stream);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "threads " << threads;
    EXPECT_EQ(result.status().message(),
              "shard 0 stream replay: interaction references vertex beyond 5")
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace tinprov
