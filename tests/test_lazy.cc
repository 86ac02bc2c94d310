// Lazy-layer semantics: replay-on-demand through CheckpointedLog must
// be indistinguishable from eager tracking. Full replay is checked
// bit-exactly against every factory-constructible tracker; sliced replay
// against full replay on the query vertex, with and without
// checkpoints; a Record()ed log against full-prefix replay at arbitrary
// historical times (snapshot boundaries and pre-history included); and
// snapshot/restore must round-trip every policy's state bit-exactly,
// byte-for-byte, into fresh and used trackers alike, and every codec's
// wire format is pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "lazy/checkpointed_log.h"
#include "obs/metrics.h"
#include "policies/generation_order.h"
#include "policies/no_provenance.h"
#include "policies/proportional_dense.h"
#include "policies/proportional_sparse.h"
#include "policies/receipt_order.h"
#include "policies/tracker.h"
#include "scalable/budget.h"
#include "scalable/selective.h"
#include "scalable/windowed.h"
#include "stream/interaction_stream.h"
#include "util/random.h"
#include "util/serialize.h"

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

Tin GeneratedTin(uint64_t seed = 41) {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = 3000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = seed;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

// Mid-range scalable configuration; small enough that Budget shrinks and
// Windowed resets actually fire across snapshot boundaries.
ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

// Bit-exact comparison: replay-on-demand promises the *identical*
// result, not an approximation, so no tolerance anywhere.
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

std::unique_ptr<Tracker> EagerPrefix(const TrackerFactory& factory,
                                     const Tin& tin, size_t prefix) {
  std::unique_ptr<Tracker> tracker = factory();
  EXPECT_NE(tracker, nullptr);
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix && i < log.size(); ++i) {
    EXPECT_TRUE(tracker->Process(log[i]).ok());
  }
  return tracker;
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// Count of interactions with timestamp <= t: the prefix a query at t
// replays.
size_t PrefixAt(const Tin& tin, Timestamp t) {
  const auto& log = tin.interactions();
  return static_cast<size_t>(
      std::upper_bound(log.begin(), log.end(), t,
                       [](Timestamp time, const Interaction& x) {
                         return time < x.t;
                       }) -
      log.begin());
}

// The log without checkpoints: every replay starts from a fresh tracker.
CheckpointedLog PlainLog(const Tin& tin) {
  CheckpointedLog log;
  for (const Interaction& interaction : tin.interactions()) {
    log.Append(interaction);
  }
  return log;
}

CheckpointedLog RecordedLog(const TrackerFactory& factory, const Tin& tin,
                            size_t interval) {
  MaterializedStream stream(tin);
  auto log = CheckpointedLog::Record(factory, stream, interval);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? *std::move(log) : CheckpointedLog();
}

Buffer ReplayProvenance(const CheckpointedLog& log,
                        const TrackerFactory& factory, size_t prefix,
                        VertexId v, size_t* replayed = nullptr) {
  auto tracker = log.Replay(factory, prefix, replayed);
  EXPECT_TRUE(tracker.ok()) << tracker.status().ToString();
  return tracker.ok() ? (*tracker)->Provenance(v) : Buffer();
}

TrackerFactory PolicyFactory(PolicyKind kind, size_t num_vertices) {
  return [kind, num_vertices] { return CreateTracker(kind, num_vertices); };
}

// Every registry name whose trackers slice exactly: all but Windowed,
// whose global reset counter sees a different interaction count under
// slicing.
std::vector<std::string> SliceableNames() {
  std::vector<std::string> names = TrackerRegistry::Global().Names();
  names.erase(std::remove(names.begin(), names.end(), "Windowed"),
              names.end());
  return names;
}

// One sliced query over the whole log; returns its cone's vertex count
// as read off the lazy.cone_vertices histogram (0 when
// TINPROV_METRICS=OFF compiles the observation out).
uint64_t SlicedConeVertices(const CheckpointedLog& log,
                            const TrackerFactory& factory, VertexId v,
                            size_t* replayed) {
  const obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("lazy.cone_vertices");
  const uint64_t before = histogram->Sum();
  EXPECT_TRUE(log.ReplaySliced(factory, log.size(), v, replayed).ok());
  return histogram->Sum() - before;
}

// ---------------------------------------------------------------------
// (a) Full lazy replay reproduces eager tracking exactly, for every
// factory name (all seven policies and all four scalable trackers).

class LazyFullReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LazyFullReplayTest, MatchesEagerBitExactly) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto eager = TrackerRegistry::Global().Create({GetParam(), params}, tin);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok());

  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const CheckpointedLog log = PlainLog(tin);
  for (VertexId v = 0; v < tin.num_vertices(); v += 7) {
    size_t replayed = 0;
    const Buffer buffer =
        ReplayProvenance(log, *factory, log.size(), v, &replayed);
    ExpectSameBuffer((*eager)->Provenance(v), buffer,
                     GetParam() + " vertex " + std::to_string(v));
    EXPECT_EQ(replayed, tin.num_interactions());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, LazyFullReplayTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Sliced replay equals full replay on the query vertex, replaying
// at most as many interactions: over the whole log without checkpoints,
// and at random prefixes of a checkpointed log, where the slice covers
// only the delta past the restored checkpoint.

class SlicedReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SlicedReplayTest, EqualsFullReplayOnQueryVertex) {
  const Tin tin = GeneratedTin();
  auto factory =
      TrackerRegistry::Global().Factory({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(factory.ok());
  const CheckpointedLog log = PlainLog(tin);
  for (VertexId v = 0; v < tin.num_vertices(); v += 11) {
    size_t full_count = 0;
    const Buffer full =
        ReplayProvenance(log, *factory, log.size(), v, &full_count);
    size_t sliced_count = 0;
    auto sliced = log.ReplaySliced(*factory, log.size(), v, &sliced_count);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    ExpectSameBuffer(full, *sliced,
                     GetParam() + " vertex " + std::to_string(v));
    EXPECT_LE(sliced_count, full_count);
  }
}

TEST_P(SlicedReplayTest, MatchesReplayAtRandomCheckpointedPrefixes) {
  const Tin tin = GeneratedTin();
  auto factory =
      TrackerRegistry::Global().Factory({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(factory.ok());
  const CheckpointedLog log = RecordedLog(*factory, tin, 97);
  ASSERT_EQ(log.num_checkpoints(), tin.num_interactions() / 97);
  Rng rng(29);
  for (int probe = 0; probe < 24; ++probe) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(tin.num_vertices()));
    const size_t prefix = rng.NextBounded(log.size() + 1);
    size_t delta = 0;
    const Buffer expected = ReplayProvenance(log, *factory, prefix, v, &delta);
    size_t cone = 0;
    auto sliced = log.ReplaySliced(*factory, prefix, v, &cone);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    ExpectSameBuffer(expected, *sliced,
                     GetParam() + " prefix " + std::to_string(prefix) +
                         " vertex " + std::to_string(v));
    EXPECT_LE(cone, delta);
  }
}

INSTANTIATE_TEST_SUITE_P(SliceableNames, SlicedReplayTest,
                         ::testing::ValuesIn(SliceableNames()), SanitizeName);

TEST(InfluenceConeTest, HandTinConesAreExactAndMinimalityShows) {
  const Tin tin = HandTin();
  const CheckpointedLog log = PlainLog(tin);
  const TrackerFactory factory =
      PolicyFactory(PolicyKind::kFifo, tin.num_vertices());
  size_t replayed = 0;
  // Vertex 1 only ever sends: its cone is its single outflow.
  [[maybe_unused]] uint64_t cone_vertices =
      SlicedConeVertices(log, factory, 1, &replayed);
  EXPECT_EQ(replayed, 1u);
#if defined(TINPROV_METRICS_ENABLED)
  EXPECT_EQ(cone_vertices, 1u);
#endif
  // Vertex 0 receives from everyone, directly or transitively: the cone
  // is the whole log.
  cone_vertices = SlicedConeVertices(log, factory, 0, &replayed);
  EXPECT_EQ(replayed, 6u);
#if defined(TINPROV_METRICS_ENABLED)
  EXPECT_EQ(cone_vertices, 5u);
#endif
  // Out-of-range query vertices are rejected.
  EXPECT_EQ(log.ReplaySliced(factory, log.size(), 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InfluenceConeTest, SlicedMatchesFullAtEveryHandTinVertex) {
  const Tin tin = HandTin();
  const CheckpointedLog log = PlainLog(tin);
  for (const PolicyKind kind : AllPolicies()) {
    const TrackerFactory factory = PolicyFactory(kind, tin.num_vertices());
    for (VertexId v = 0; v < tin.num_vertices(); ++v) {
      auto sliced = log.ReplaySliced(factory, log.size(), v);
      ASSERT_TRUE(sliced.ok());
      ExpectSameBuffer(ReplayProvenance(log, factory, log.size(), v), *sliced,
                       std::string(PolicyName(kind)) + " vertex " +
                           std::to_string(v));
    }
  }
}

// Equal timestamps: the cone is positional, so a transfer into vertex 1
// at the same time as, but after, 1's send to the query vertex 2 stays
// out. A cone bounded by time instead of position would take all four
// interactions (and vertices 3 and 4) for the query vertex.
TEST(InfluenceConeTest, EqualTimestampsKeepThePositionalConeExact) {
  CheckpointedLog log;
  log.Append({4, 3, 1.0, 2.0});
  log.Append({0, 1, 1.0, 5.0});
  log.Append({1, 2, 1.0, 3.0});
  log.Append({3, 1, 1.0, 4.0});
  for (const PolicyKind kind : AllPolicies()) {
    const TrackerFactory factory = PolicyFactory(kind, 5);
    size_t replayed = 0;
    auto sliced = log.ReplaySliced(factory, log.size(), 2, &replayed);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    EXPECT_EQ(replayed, 2u) << PolicyName(kind);
    ExpectSameBuffer(ReplayProvenance(log, factory, log.size(), 2), *sliced,
                     std::string(PolicyName(kind)) + " vertex 2");
    EXPECT_GT(sliced->total, 0.0);
    for (VertexId v = 0; v < 5; ++v) {
      auto other = log.ReplaySliced(factory, log.size(), v);
      ASSERT_TRUE(other.ok());
      ExpectSameBuffer(ReplayProvenance(log, factory, log.size(), v), *other,
                       std::string(PolicyName(kind)) + " vertex " +
                           std::to_string(v));
    }
  }
}

// The slice scan reads the log directly, so it range-checks the query
// vertex and every delta endpoint against the tracker's vertex count
// instead of indexing its cone bitmap out of bounds.
TEST(InfluenceConeTest, RejectsOutOfRangeVerticesAndEndpoints) {
  const Tin tin = HandTin();
  const TrackerFactory factory =
      PolicyFactory(PolicyKind::kFifo, tin.num_vertices());
  for (const size_t interval : {size_t{2}, tin.num_interactions() * 2}) {
    const CheckpointedLog log = RecordedLog(factory, tin, interval);
    EXPECT_EQ(log.ReplaySliced(factory, log.size(), 99).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        log.ReplaySliced(factory, log.UpperBound(3.0), 5).status().code(),
        StatusCode::kInvalidArgument);
  }

  CheckpointedLog bad = PlainLog(tin);
  bad.Append({0, 7, 7.0, 1.0});  // dst >= n
  EXPECT_EQ(bad.ReplaySliced(factory, bad.size(), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.Replay(factory, bad.size()).status().code(),
            StatusCode::kInvalidArgument);
  CheckpointedLog bad_src = PlainLog(tin);
  bad_src.Append({9, 0, 7.0, 1.0});  // src >= n
  EXPECT_EQ(bad_src.ReplaySliced(factory, bad_src.size(), 0).status().code(),
            StatusCode::kInvalidArgument);
  // Below the bad interaction the log is still fine.
  EXPECT_TRUE(bad.ReplaySliced(factory, bad.size() - 1, 0).ok());
}

// ---------------------------------------------------------------------
// Historical prefix queries over the log without checkpoints.

TEST(LazyPrefixTest, HistoricalQueryEqualsEagerPrefixReplay) {
  const Tin tin = GeneratedTin();
  const TrackerFactory factory =
      PolicyFactory(PolicyKind::kFifo, tin.num_vertices());
  const CheckpointedLog plain = PlainLog(tin);
  const auto& log = tin.interactions();
  for (const size_t prefix :
       {size_t{0}, size_t{1}, log.size() / 3, log.size() - 1, log.size()}) {
    const Timestamp t = prefix == 0 ? log.front().t - 1.0 : log[prefix - 1].t;
    const size_t expected_prefix = PrefixAt(tin, t);
    EXPECT_EQ(plain.UpperBound(t), expected_prefix);
    const auto eager = EagerPrefix(factory, tin, expected_prefix);
    for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{59}}) {
      size_t replayed = 0;
      const Buffer buffer =
          ReplayProvenance(plain, factory, plain.UpperBound(t), v, &replayed);
      ExpectSameBuffer(eager->Provenance(v), buffer,
                       "prefix " + std::to_string(expected_prefix) +
                           " vertex " + std::to_string(v));
      EXPECT_EQ(replayed, expected_prefix);
    }
  }
}

TEST(LazyPrefixTest, TimeBeforeFirstInteractionYieldsEmptyBuffer) {
  const Tin tin = HandTin();
  const CheckpointedLog log = PlainLog(tin);
  size_t replayed = 0;
  const Buffer buffer =
      ReplayProvenance(log, PolicyFactory(PolicyKind::kLifo, 5),
                       log.UpperBound(0.5), 0, &replayed);
  EXPECT_EQ(buffer.total, 0.0);
  EXPECT_TRUE(buffer.entries.empty());
  EXPECT_EQ(replayed, 0u);
}

TEST(LazyEngineTest, FactoryBuildsIndependentTrackers) {
  const Tin tin = HandTin();
  auto factory =
      TrackerRegistry::Global().Factory({"FIFO", ScalableParams{}}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> a = (*factory)();
  std::unique_ptr<Tracker> b = (*factory)();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->ProcessAll(tin).ok());
  // b saw nothing: per-query trackers must not share state.
  EXPECT_EQ(b->BufferTotal(0), 0.0);
  EXPECT_GT(a->BufferTotal(0), 0.0);
}

// ---------------------------------------------------------------------
// (c) A Record()ed log answers at arbitrary t identically to
// full-prefix replay, for every factory name.

class TimeTravelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TimeTravelTest, MatchesFullPrefixReplayEverywhere) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  const size_t interval = 97;  // prime: boundaries align with nothing
  const CheckpointedLog index = RecordedLog(*factory, tin, interval);
  EXPECT_EQ(index.num_checkpoints(), tin.num_interactions() / interval);
  EXPECT_GT(index.MemoryUsage(), 0u);

  // Probe before history (empty state), the first interaction, an exact
  // snapshot boundary, one past a boundary, mid-stream, the full
  // stream, and after history.
  const auto& log = tin.interactions();
  const std::vector<Timestamp> probes = {
      log.front().t - 1.0, log.front().t, log[interval - 1].t,
      log[3 * interval].t, log[log.size() / 2].t, log.back().t,
      log.back().t + 1.0};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixAt(tin, t);
    const auto eager = EagerPrefix(*factory, tin, prefix);
    for (const VertexId v : {VertexId{0}, VertexId{23}, VertexId{59}}) {
      const Buffer buffer =
          ReplayProvenance(index, *factory, index.UpperBound(t), v);
      ExpectSameBuffer(eager->Provenance(v), buffer,
                       GetParam() + " t=" + std::to_string(t) + " vertex " +
                           std::to_string(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, TimeTravelTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

TEST(TimeTravelEdgeTest, ZeroIntervalClampsToOne) {
  const Tin tin = HandTin();
  const CheckpointedLog index =
      RecordedLog(PolicyFactory(PolicyKind::kFifo, 5), tin, 0);
  EXPECT_EQ(index.size(), tin.num_interactions());
  EXPECT_EQ(index.num_checkpoints(), tin.num_interactions());
}

TEST(TimeTravelEdgeTest, IntervalBeyondStreamStillAnswersCorrectly) {
  const Tin tin = HandTin();
  const TrackerFactory factory = PolicyFactory(PolicyKind::kMrb, 5);
  const CheckpointedLog index =
      RecordedLog(factory, tin, tin.num_interactions() * 2);
  EXPECT_EQ(index.num_checkpoints(), 0u);
  const CheckpointedLog plain = PlainLog(tin);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    ExpectSameBuffer(
        ReplayProvenance(plain, factory, plain.UpperBound(4.0), v),
        ReplayProvenance(index, factory, index.UpperBound(4.0), v),
        "vertex " + std::to_string(v));
  }
}

// ---------------------------------------------------------------------
// (d) Snapshot/restore round-trips every policy's state bit-exactly.

class SnapshotRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundTripTest, SaveRestoreSaveIsByteIdentical) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  const size_t half = tin.num_interactions() / 2;

  std::unique_ptr<Tracker> original = EagerPrefix(*factory, tin, half);
  std::vector<uint8_t> saved;
  original->SaveState(&saved);
  EXPECT_FALSE(saved.empty());

  std::unique_ptr<Tracker> restored = (*factory)();
  ASSERT_TRUE(restored->RestoreState(saved).ok());
  std::vector<uint8_t> resaved;
  restored->SaveState(&resaved);
  EXPECT_EQ(saved, resaved) << GetParam() << ": restore is not byte-identical";

  // Resumed replay must stay bit-exact through the end of the stream.
  const auto& log = tin.interactions();
  for (size_t i = half; i < log.size(); ++i) {
    ASSERT_TRUE(original->Process(log[i]).ok());
    ASSERT_TRUE(restored->Process(log[i]).ok());
  }
  EXPECT_EQ(original->total_generated(), restored->total_generated());
  EXPECT_EQ(original->MemoryUsage(), restored->MemoryUsage());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_EQ(original->BufferTotal(v), restored->BufferTotal(v));
    ExpectSameBuffer(original->Provenance(v), restored->Provenance(v),
                     GetParam() + " vertex " + std::to_string(v));
  }
}

TEST_P(SnapshotRoundTripTest, RejectsCorruptSnapshots) {
  const Tin tin = HandTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> tracker = EagerPrefix(*factory, tin, 4);
  std::vector<uint8_t> saved;
  tracker->SaveState(&saved);

  std::unique_ptr<Tracker> target = (*factory)();
  // Truncation anywhere must fail cleanly, never read out of bounds.
  EXPECT_FALSE(target->RestoreState(saved.data(), saved.size() - 1).ok());
  EXPECT_FALSE(target->RestoreState(saved.data(), 3).ok());
  EXPECT_FALSE(target->RestoreState(saved.data(), 0).ok());
  // Trailing bytes mean the snapshot came from a different layout.
  std::vector<uint8_t> padded = saved;
  padded.push_back(0);
  EXPECT_FALSE(target->RestoreState(padded).ok());
  // A clean restore still succeeds afterwards.
  EXPECT_TRUE(target->RestoreState(saved).ok());
}

TEST_P(SnapshotRoundTripTest, RejectsTruncationAtEveryOffset) {
  const Tin tin = HandTin();
  auto factory =
      TrackerRegistry::Global().Factory({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(factory.ok());
  std::vector<uint8_t> saved;
  EagerPrefix(*factory, tin, tin.num_interactions())->SaveState(&saved);

  std::unique_ptr<Tracker> target = (*factory)();
  for (size_t length = 0; length < saved.size(); ++length) {
    EXPECT_EQ(target->RestoreState(saved.data(), length).code(),
              StatusCode::kInvalidArgument)
        << GetParam() << ": image cut to " << length << " of "
        << saved.size() << " bytes";
  }
  ASSERT_TRUE(target->RestoreState(saved).ok());
  std::vector<uint8_t> resaved;
  target->SaveState(&resaved);
  EXPECT_EQ(saved, resaved) << GetParam();
}

// RestoreState fully defines a tracker's state: a tracker that has run
// another log and restored a larger image must come out of a restore
// exactly like a fresh one, now and for every interaction after.
TEST_P(SnapshotRoundTripTest, RestoreIntoUsedTrackerMatchesFresh) {
  const Tin tin = GeneratedTin();
  const Tin other = GeneratedTin(/*seed=*/77);
  auto factory =
      TrackerRegistry::Global().Factory({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(factory.ok());
  const size_t cut = tin.num_interactions() / 3;
  std::vector<uint8_t> small;
  EagerPrefix(*factory, tin, cut)->SaveState(&small);
  std::vector<uint8_t> large;
  EagerPrefix(*factory, tin, tin.num_interactions())->SaveState(&large);

  std::unique_ptr<Tracker> used = (*factory)();
  ASSERT_TRUE(used->ProcessAll(other).ok());
  ASSERT_TRUE(used->RestoreState(large).ok());
  ASSERT_TRUE(used->RestoreState(small).ok());
  std::unique_ptr<Tracker> fresh = (*factory)();
  ASSERT_TRUE(fresh->RestoreState(small).ok());

  const auto expect_same = [&](const std::string& when) {
    std::vector<uint8_t> from_used;
    std::vector<uint8_t> from_fresh;
    used->SaveState(&from_used);
    fresh->SaveState(&from_fresh);
    EXPECT_EQ(from_used, from_fresh) << GetParam() << " " << when;
    EXPECT_EQ(used->MemoryUsage(), fresh->MemoryUsage())
        << GetParam() << " " << when;
    for (VertexId v = 0; v < tin.num_vertices(); ++v) {
      ExpectSameBuffer(fresh->Provenance(v), used->Provenance(v),
                       GetParam() + " " + when + " vertex " +
                           std::to_string(v));
    }
  };
  expect_same("after the restore");
  const auto& log = tin.interactions();
  for (size_t i = cut; i < log.size(); ++i) {
    ASSERT_TRUE(used->Process(log[i]).ok());
    ASSERT_TRUE(fresh->Process(log[i]).ok());
  }
  expect_same("after resuming to the end");
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, SnapshotRoundTripTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

TEST(SnapshotMismatchTest, RejectsWrongVertexCount) {
  const Tin tin = HandTin();
  std::unique_ptr<Tracker> small = CreateTracker(PolicyKind::kFifo, 5);
  ASSERT_TRUE(small->ProcessAll(tin).ok());
  std::vector<uint8_t> saved;
  small->SaveState(&saved);
  std::unique_ptr<Tracker> large = CreateTracker(PolicyKind::kFifo, 6);
  const Status status = large->RestoreState(saved);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// (e) The wire format, pinned. Each codec family's image of a small
// hand-built state must equal the image assembled field by field here:
// SaveState output is what snapshots on disk and retained checkpoints
// hold, so a faster codec may not change a byte of it.

// Three interactions over vertices 0-2: 0 generates 5 and sends it to
// 1, 2 generates 3 and sends it to 1, then 1 sends 6 of its 8 to 0.
std::vector<uint8_t> GoldenImage(Tracker* tracker) {
  const std::vector<Interaction> log = {
      {0, 1, 1.0, 5.0}, {2, 1, 2.0, 3.0}, {1, 0, 3.0, 6.0}};
  for (const Interaction& interaction : log) {
    EXPECT_TRUE(tracker->Process(interaction).ok());
  }
  std::vector<uint8_t> image;
  tracker->SaveState(&image);
  return image;
}

// The expected image, appended field by field as the codecs write it.
class ExpectedImage {
 public:
  template <typename T>
  ExpectedImage& Put(T value) {
    ByteWriter(&bytes_).Append(value);
    return *this;
  }

  /// The framing every tracker writes: vertex count, total generated.
  ExpectedImage& Header(uint64_t num_vertices, double generated) {
    return Put<uint64_t>(num_vertices).Put<double>(generated);
  }

  ExpectedImage& Doubles(std::initializer_list<double> values) {
    for (const double value : values) Put<double>(value);
    return *this;
  }

  ExpectedImage& Pair(VertexId origin, double quantity) {
    return Put<VertexId>(origin).Put<double>(quantity);
  }

  ExpectedImage& Triple(VertexId origin, Timestamp birth, double quantity) {
    return Put<VertexId>(origin).Put<Timestamp>(birth).Put<double>(quantity);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

TEST(WireFormatTest, ReceiptOrderRingsInLogicalOrder) {
  // FIFO: vertex 1 spent its (0, 5) and 1 of its (2, 3), so its ring's
  // head has moved off slot 0 — the image lists what is left, oldest
  // first.
  FifoTracker fifo(3);
  EXPECT_EQ(GoldenImage(&fifo),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<uint64_t>(2).Pair(0, 5.0).Pair(2, 1.0)
                .Put<uint64_t>(1).Pair(2, 2.0)
                .Put<uint64_t>(0)
                .bytes());
  // LIFO spends (2, 3) first, then 3 of (0, 5).
  LifoTracker lifo(3);
  EXPECT_EQ(GoldenImage(&lifo),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<uint64_t>(2).Pair(2, 3.0).Pair(0, 3.0)
                .Put<uint64_t>(1).Pair(0, 2.0)
                .Put<uint64_t>(0)
                .bytes());
}

TEST(WireFormatTest, GenerationOrderHeapsInArrayLayout) {
  LrbTracker lrb(3);
  EXPECT_EQ(GoldenImage(&lrb),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<uint64_t>(2).Triple(0, 1.0, 5.0).Triple(2, 2.0, 1.0)
                .Put<uint64_t>(1).Triple(2, 2.0, 2.0)
                .Put<uint64_t>(0)
                .bytes());
  MrbTracker mrb(3);
  EXPECT_EQ(GoldenImage(&mrb),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<uint64_t>(2).Triple(2, 2.0, 3.0).Triple(0, 1.0, 3.0)
                .Put<uint64_t>(1).Triple(0, 1.0, 2.0)
                .Put<uint64_t>(0)
                .bytes());
}

TEST(WireFormatTest, ProportionalSparseLists) {
  // Totals, the attributed total, then each vertex's origin-sorted list.
  ProportionalSparseTracker sparse(3);
  EXPECT_EQ(GoldenImage(&sparse),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<double>(8.0)
                .Put<uint64_t>(2).Pair(0, 3.75).Pair(2, 2.25)
                .Put<uint64_t>(2).Pair(0, 1.25).Pair(2, 0.75)
                .Put<uint64_t>(0)
                .bytes());
}

TEST(WireFormatTest, ProportionalDenseLazyRows) {
  // A row is a presence byte, then |V| doubles if the vertex was ever
  // touched; vertex 3 never was.
  ProportionalDenseTracker dense(4);
  EXPECT_EQ(GoldenImage(&dense),
            ExpectedImage()
                .Header(4, 8.0)
                .Doubles({6.0, 2.0, 0.0, 0.0})
                .Put<uint8_t>(1).Doubles({3.75, 0.0, 2.25, 0.0})
                .Put<uint8_t>(1).Doubles({1.25, 0.0, 0.75, 0.0})
                .Put<uint8_t>(1).Doubles({0.0, 0.0, 0.0, 0.0})
                .Put<uint8_t>(0)
                .bytes());
}

TEST(WireFormatTest, NoProvenanceBalances) {
  NoProvenanceTracker none(3);
  EXPECT_EQ(GoldenImage(&none),
            ExpectedImage().Header(3, 8.0).Doubles({6.0, 2.0, 0.0}).bytes());
}

TEST(WireFormatTest, ScalableAuxStateFollowsTheLists) {
  // Budget of one tuple: vertex 1's (2, 3) is shrunk away (alpha 3),
  // then the shrink counters and their total trail the lists.
  BudgetConfig config;
  config.capacity = 1;
  config.keep_fraction = 1.0;
  BudgetTracker budget(3, config);
  EXPECT_EQ(GoldenImage(&budget),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<double>(5.0)
                .Put<uint64_t>(1).Pair(0, 3.75)
                .Put<uint64_t>(1).Pair(0, 1.25)
                .Put<uint64_t>(0)
                .Put<uint32_t>(0).Put<uint32_t>(1).Put<uint32_t>(0)
                .Put<uint64_t>(1)
                .bytes());

  // A window of 2 resets after the second interaction, so every list
  // is empty; the window phase (1 since the reset) and reset count
  // trail them.
  WindowedTracker windowed(3, 2);
  EXPECT_EQ(GoldenImage(&windowed),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<double>(0.0)
                .Put<uint64_t>(0)
                .Put<uint64_t>(0)
                .Put<uint64_t>(0)
                .Put<uint64_t>(1)
                .Put<uint64_t>(1)
                .bytes());

  // Tracking only vertex 0: vertex 2's 3 is never attributed; the
  // tracked generated quantity trails the lists.
  SelectiveTracker selective(3, {0});
  EXPECT_EQ(GoldenImage(&selective),
            ExpectedImage()
                .Header(3, 8.0)
                .Doubles({6.0, 2.0, 0.0})
                .Put<double>(5.0)
                .Put<uint64_t>(1).Pair(0, 3.75)
                .Put<uint64_t>(1).Pair(0, 1.25)
                .Put<uint64_t>(0)
                .Put<double>(5.0)
                .bytes());
}

}  // namespace
}  // namespace tinprov
