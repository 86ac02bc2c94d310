// Scalable-layer semantics: conservation of flow on the tracked subset
// (selective), group-assignment partitioning invariants (grouped),
// window-reset counting (windowed), shrink-stat bookkeeping (budget),
// and the name-based factory shared by all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "policies/no_provenance.h"
#include "policies/proportional_sparse.h"
#include "scalable/budget.h"
#include "scalable/grouped.h"
#include "scalable/selective.h"
#include "scalable/windowed.h"
#include "util/strings.h"

namespace tinprov {
namespace {

constexpr double kTolerance = 1e-9;

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

std::vector<double> ReferenceBalances(const Tin& tin) {
  NoProvenanceTracker baseline(tin.num_vertices());
  EXPECT_TRUE(baseline.ProcessAll(tin).ok());
  std::vector<double> balances(tin.num_vertices());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    balances[v] = baseline.BufferTotal(v);
  }
  return balances;
}

// Aggregates a tracker's breakdown at `v` by origin (or group label).
std::map<VertexId, double> BreakdownAt(const Tracker& tracker, VertexId v) {
  std::map<VertexId, double> breakdown;
  for (const ProvPair& entry : tracker.Provenance(v).entries) {
    breakdown[entry.origin] += entry.quantity;
  }
  return breakdown;
}

// ---------------------------------------------------------------------
// Name-based factory: regression for proper Status errors, and the
// shared conservation-of-flow suite over every constructible tracker.

TEST(TrackerFactoryTest, RejectsUnknownNamesWithStatus) {
  const Tin tin = HandTin();
  const ScalableParams params;
  auto bad = TrackerRegistry::Global().Create({"not-a-policy", params}, tin);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error names the accepted spellings so callers can self-correct.
  EXPECT_NE(bad.status().message().find("Windowed"), std::string::npos);

  MeasureOptions options;
  options.tin = &tin;
  auto measured = MeasureTracker({"not-a-policy", params}, options);
  ASSERT_FALSE(measured.ok());
  EXPECT_EQ(measured.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(PolicyKindFromName("").ok());
  EXPECT_FALSE(PolicyKindFromName("LIFO2").ok());
}

TEST(TrackerFactoryTest, AcceptsEveryAdvertisedNameCaseInsensitively) {
  const Tin tin = HandTin();
  const ScalableParams params;
  const TrackerRegistry& registry = TrackerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto tracker = registry.Create({name, params}, tin);
    ASSERT_TRUE(tracker.ok()) << name;
    EXPECT_NE(tracker->get(), nullptr) << name;
    auto lower = registry.Create({AsciiLower(name), params}, tin);
    EXPECT_TRUE(lower.ok()) << name;
  }
}

TEST(TrackerFactoryTest, DenseFeasibilityGateAppliesByName) {
  const Tin tin = HandTin();
  const ScalableParams params;
  // A 1-byte limit makes any |V|^2 dense footprint infeasible.
  MeasureOptions gated_options;
  gated_options.tin = &tin;
  gated_options.dense_memory_limit = 1;
  auto gated = MeasureTracker({"Prop-dense", params}, gated_options);
  ASSERT_TRUE(gated.ok());
  EXPECT_FALSE(gated->feasible);
  // A zero limit disables the gate and the run proceeds.
  MeasureOptions ungated_options;
  ungated_options.tin = &tin;
  auto ungated = MeasureTracker({"Prop-dense", params}, ungated_options);
  ASSERT_TRUE(ungated.ok());
  EXPECT_TRUE(ungated->feasible);
}

TEST(TrackerFactoryTest, PolicyKindNamesRoundTrip) {
  for (const PolicyKind kind : AllPolicies()) {
    auto parsed = PolicyKindFromName(PolicyName(kind));
    ASSERT_TRUE(parsed.ok()) << PolicyName(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

class FactoryConservationTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FactoryConservationTest, ConservesFlow) {
  const Tin tin = GeneratedTin();
  const std::vector<double> reference = ReferenceBalances(tin);
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  auto tracker = TrackerRegistry::Global().Create({GetParam(), params}, tin);
  ASSERT_TRUE(tracker.ok()) << tracker.status().ToString();
  ASSERT_TRUE((*tracker)->ProcessAll(tin).ok());
  double buffered = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const Buffer buffer = (*tracker)->Provenance(v);
    EXPECT_NEAR(buffer.Total(), (*tracker)->BufferTotal(v), kTolerance);
    EXPECT_NEAR(buffer.Total(), reference[v], 1e-6)
        << "vertex " << v << " balance diverged from the no-prov baseline";
    // Scalable trackers may under-attribute (alpha residue) but never
    // over-attribute.
    EXPECT_LE(buffer.EntrySum(), buffer.Total() + 1e-6)
        << "vertex " << v << " attributes more than it holds";
    for (const ProvPair& entry : buffer.entries) {
      EXPECT_GE(entry.quantity, 0.0);
    }
    buffered += (*tracker)->BufferTotal(v);
  }
  EXPECT_NEAR(buffered, (*tracker)->total_generated(), 1e-6);
  EXPECT_GT((*tracker)->MemoryUsage(), 0u);
}

// gtest parameter names must be alphanumeric ("Prop-sparse" ->
// "Propsparse").
std::string TrackerParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) { return !std::isalnum(
                                static_cast<unsigned char>(c)); }),
             name.end());
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryNames, FactoryConservationTest,
    ::testing::ValuesIn(TrackerRegistry::Global().Names()),
    TrackerParamName);

// ---------------------------------------------------------------------
// Memory contract: the allocator-level footprint tracks live
// provenance, not history. Pro-rata lists that grew to thousands of
// tuples mid-stream and later drained must not keep their high-water
// blocks (PooledVec::ShrinkIfSparse).

class MemoryContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MemoryContractTest, AllocatorBytesTrackLiveProvenance) {
  // The additive slack is SparseProportionalBase::ReserveHint's cap:
  // the pool may pre-reserve up to 8 MiB before any tuple is live.
  constexpr size_t kFactor = 16;
  constexpr size_t kSlackBytes = size_t{8} << 20;
  for (const DatasetKind kind :
       {DatasetKind::kBitcoin, DatasetKind::kCtu, DatasetKind::kProsper}) {
    auto tin = MakeDataset(kind, 1.0);
    ASSERT_TRUE(tin.ok()) << tin.status().ToString();
    auto tracker =
        TrackerRegistry::Global().Create({GetParam(), ScalableParams{}}, *tin);
    ASSERT_TRUE(tracker.ok()) << tracker.status().ToString();
    ASSERT_TRUE((*tracker)->ProcessAll(*tin).ok());
    const size_t logical = (*tracker)->MemoryUsage();
    const size_t allocator = (*tracker)->MemoryBytes();
    EXPECT_LE(allocator, kFactor * logical + kSlackBytes)
        << GetParam() << " on " << DatasetName(kind) << ": " << allocator
        << " allocator bytes for " << logical << " logical bytes ("
        << static_cast<double>(allocator) / static_cast<double>(logical)
        << "x)";
  }
}

// Prop-dense is excluded: these datasets are exactly where the paper's
// feasibility gate rules out its |V|^2 vectors, and it keeps no lists.
std::vector<std::string> SparseFootprintNames() {
  std::vector<std::string> names = TrackerRegistry::Global().Names();
  names.erase(std::remove(names.begin(), names.end(), "Prop-dense"),
              names.end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllSparseFootprintNames, MemoryContractTest,
                         ::testing::ValuesIn(SparseFootprintNames()),
                         TrackerParamName);

// ---------------------------------------------------------------------
// Selective tracking.

TEST(SelectiveTest, AttributesOnlyTrackedOrigins) {
  const Tin tin = HandTin();
  const std::vector<double> reference = ReferenceBalances(tin);
  SelectiveTracker tracker(tin.num_vertices(), {1, 3});
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_EQ(tracker.num_tracked(), 2u);
  double attributed = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_NEAR(tracker.BufferTotal(v), reference[v], kTolerance);
    for (const ProvPair& entry : tracker.Provenance(v).entries) {
      EXPECT_TRUE(entry.origin == 1 || entry.origin == 3)
          << "untracked origin " << entry.origin << " at vertex " << v;
      attributed += entry.quantity;
    }
  }
  // Conservation of flow on the tracked subset: everything generated at
  // tracked vertices is attributed somewhere, and nothing else is.
  EXPECT_NEAR(attributed, tracker.tracked_generated(), kTolerance);
  // Origins 1 and 3 generate 5 and 2 (the t=5 send exceeds 3's buffer
  // of 4 by 2); origin 2's 3 units stay unattributed.
  EXPECT_NEAR(tracker.tracked_generated(), 7.0, kTolerance);
  EXPECT_NEAR(tracker.total_generated(), 10.0, kTolerance);
}

TEST(SelectiveTest, TrackedSubsetConservationOnGeneratedTin) {
  const Tin tin = GeneratedTin();
  const std::vector<VertexId> tracked = TopGeneratingVertices(tin, 5);
  ASSERT_EQ(tracked.size(), 5u);
  SelectiveTracker tracker(tin.num_vertices(), tracked);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  double attributed = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    for (const ProvPair& entry : tracker.Provenance(v).entries) {
      EXPECT_TRUE(tracker.IsTracked(entry.origin));
      attributed += entry.quantity;
    }
  }
  EXPECT_NEAR(attributed, tracker.tracked_generated(), 1e-6);
  EXPECT_GT(tracker.tracked_generated(), 0.0);
  EXPECT_LT(tracker.tracked_generated(),
            tracker.total_generated() + kTolerance);
}

TEST(SelectiveTest, IgnoresDuplicateAndOutOfRangeIds) {
  SelectiveTracker tracker(4, {1, 1, 99, kInvalidVertex});
  EXPECT_EQ(tracker.num_tracked(), 1u);
  EXPECT_TRUE(tracker.IsTracked(1));
  EXPECT_FALSE(tracker.IsTracked(2));
  EXPECT_FALSE(tracker.IsTracked(99));
}

TEST(SelectiveTest, TopGeneratingVerticesRanksByGeneratedQuantity) {
  // 0 generates 10, 2 generates 4; 1 only forwards what it received.
  std::vector<Interaction> log = {
      {0, 1, 1.0, 10.0}, {2, 3, 2.0, 4.0}, {1, 4, 3.0, 5.0}};
  const Tin tin(5, std::move(log));
  EXPECT_EQ(TopGeneratingVertices(tin, 1), (std::vector<VertexId>{0}));
  EXPECT_EQ(TopGeneratingVertices(tin, 2), (std::vector<VertexId>{0, 2}));
  // Non-generators are never padded in.
  EXPECT_EQ(TopGeneratingVertices(tin, 10), (std::vector<VertexId>{0, 2}));
  EXPECT_TRUE(TopGeneratingVertices(tin, 0).empty());
}

// ---------------------------------------------------------------------
// Grouped tracking: assignment partitioning invariants and semantics.

TEST(GroupAssignmentTest, RoundRobinBalancesSizes) {
  const std::vector<GroupId> groups = RoundRobinGroups(10, 3);
  ASSERT_EQ(groups.size(), 10u);
  std::vector<size_t> sizes(3, 0);
  for (size_t v = 0; v < groups.size(); ++v) {
    ASSERT_LT(groups[v], 3u);
    EXPECT_EQ(groups[v], v % 3);
    ++sizes[groups[v]];
  }
  const auto [min_it, max_it] = std::minmax_element(sizes.begin(),
                                                    sizes.end());
  EXPECT_LE(*max_it - *min_it, 1u);
}

TEST(GroupAssignmentTest, ZeroGroupsClampToOne) {
  const std::vector<GroupId> groups = RoundRobinGroups(5, 0);
  ASSERT_EQ(groups.size(), 5u);
  for (const GroupId g : groups) EXPECT_EQ(g, 0u);
}

TEST(GroupedTest, BreakdownIsSparseBreakdownFoldedByGroup) {
  const Tin tin = GeneratedTin();
  const size_t k = 7;
  const std::vector<GroupId> groups =
      RoundRobinGroups(tin.num_vertices(), k);
  GroupedTracker grouped(tin.num_vertices(), groups, k);
  ProportionalSparseTracker exact(tin.num_vertices());
  ASSERT_TRUE(grouped.ProcessAll(tin).ok());
  ASSERT_TRUE(exact.ProcessAll(tin).ok());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_NEAR(grouped.BufferTotal(v), exact.BufferTotal(v), 1e-6);
    std::map<VertexId, double> expected;
    for (const ProvPair& entry : exact.Provenance(v).entries) {
      expected[groups[entry.origin]] += entry.quantity;
    }
    const std::map<VertexId, double> actual = BreakdownAt(grouped, v);
    ASSERT_EQ(actual.size(), expected.size()) << "vertex " << v;
    for (const auto& [group, quantity] : expected) {
      const auto it = actual.find(group);
      ASSERT_NE(it, actual.end()) << "vertex " << v << " group " << group;
      EXPECT_NEAR(it->second, quantity, 1e-6)
          << "vertex " << v << " group " << group;
    }
  }
  // Grouping never drops attribution, it only coarsens it.
  double attributed = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    attributed += grouped.Provenance(v).EntrySum();
  }
  EXPECT_NEAR(attributed, grouped.total_generated(), 1e-6);
}

// ---------------------------------------------------------------------
// Windowed tracking.

TEST(WindowedTest, CountsResetsAndPreservesBalances) {
  const Tin tin = HandTin();  // 6 interactions
  const std::vector<double> reference = ReferenceBalances(tin);
  WindowedTracker tracker(tin.num_vertices(), 2);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_EQ(tracker.reset_count(), 3u);  // resets after 2, 4, 6
  EXPECT_EQ(tracker.num_entries(), 0u);  // the 6th interaction reset
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_NEAR(tracker.BufferTotal(v), reference[v], kTolerance);
    EXPECT_TRUE(tracker.Provenance(v).entries.empty());
  }
}

TEST(WindowedTest, LargeWindowMatchesExactProportional) {
  const Tin tin = GeneratedTin();
  WindowedTracker windowed(tin.num_vertices(), tin.num_interactions() + 1);
  ProportionalSparseTracker exact(tin.num_vertices());
  ASSERT_TRUE(windowed.ProcessAll(tin).ok());
  ASSERT_TRUE(exact.ProcessAll(tin).ok());
  EXPECT_EQ(windowed.reset_count(), 0u);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const std::map<VertexId, double> expected = BreakdownAt(exact, v);
    const std::map<VertexId, double> actual = BreakdownAt(windowed, v);
    ASSERT_EQ(actual.size(), expected.size()) << "vertex " << v;
    for (const auto& [origin, quantity] : expected) {
      EXPECT_NEAR(actual.at(origin), quantity, 1e-6)
          << "vertex " << v << " origin " << origin;
    }
  }
}

TEST(WindowedTest, WindowOfOneAttributesNothingAcrossInteractions) {
  const Tin tin = GeneratedTin();
  const std::vector<double> reference = ReferenceBalances(tin);
  WindowedTracker tracker(tin.num_vertices(), 1);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_EQ(tracker.reset_count(), tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_NEAR(tracker.BufferTotal(v), reference[v], 1e-6);
    EXPECT_TRUE(tracker.Provenance(v).entries.empty());
  }
}

TEST(WindowedTest, ZeroWindowClampsToOne) {
  WindowedTracker tracker(3, 0);
  EXPECT_EQ(tracker.window(), 1u);
}

// ---------------------------------------------------------------------
// Budget tracking.

TEST(BudgetTest, CapsEveryListAtCapacity) {
  const Tin tin = GeneratedTin();
  BudgetConfig config;
  config.capacity = 4;
  config.keep_fraction = 0.5;
  BudgetTracker tracker(tin.num_vertices(), config);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_EQ(tracker.keep_count(), 2u);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const Buffer buffer = tracker.Provenance(v);
    EXPECT_LE(buffer.entries.size(), config.capacity) << "vertex " << v;
    EXPECT_LE(buffer.EntrySum(), buffer.Total() + 1e-6) << "vertex " << v;
  }
  EXPECT_GT(tracker.total_shrinks(), 0u);
  const ShrinkStats stats = tracker.ComputeShrinkStats();
  EXPECT_GE(stats.avg_shrinks, 1.0);
  EXPECT_GT(stats.pct_vertices, 0.0);
  EXPECT_LE(stats.pct_vertices, 100.0);
}

TEST(BudgetTest, LargeCapacityNeverShrinksAndMatchesExact) {
  const Tin tin = GeneratedTin();
  BudgetConfig config;
  config.capacity = 1 << 20;
  BudgetTracker budget(tin.num_vertices(), config);
  ProportionalSparseTracker exact(tin.num_vertices());
  ASSERT_TRUE(budget.ProcessAll(tin).ok());
  ASSERT_TRUE(exact.ProcessAll(tin).ok());
  EXPECT_EQ(budget.total_shrinks(), 0u);
  const ShrinkStats stats = budget.ComputeShrinkStats();
  EXPECT_EQ(stats.avg_shrinks, 0.0);
  EXPECT_EQ(stats.pct_vertices, 0.0);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const std::map<VertexId, double> expected = BreakdownAt(exact, v);
    const std::map<VertexId, double> actual = BreakdownAt(budget, v);
    ASSERT_EQ(actual.size(), expected.size()) << "vertex " << v;
    for (const auto& [origin, quantity] : expected) {
      EXPECT_NEAR(actual.at(origin), quantity, 1e-6)
          << "vertex " << v << " origin " << origin;
    }
  }
}

TEST(BudgetTest, ShrinkKeepsLargestSharesAndCountsOnce) {
  // Five distinct origins pour into vertex 0; capacity 3 with keep
  // fraction 2/3 shrinks once (at the 4th entry) down to the 2 largest.
  std::vector<Interaction> log = {{1, 0, 1.0, 1.0},
                                  {2, 0, 2.0, 9.0},
                                  {3, 0, 3.0, 2.0},
                                  {4, 0, 4.0, 8.0},
                                  {5, 0, 5.0, 3.0}};
  const Tin tin(6, std::move(log));
  BudgetConfig config;
  config.capacity = 3;
  config.keep_fraction = 2.0 / 3.0;
  BudgetTracker tracker(tin.num_vertices(), config);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_EQ(tracker.ShrinkCount(0), 1u);
  EXPECT_EQ(tracker.total_shrinks(), 1u);
  const std::map<VertexId, double> at0 = BreakdownAt(tracker, 0);
  // Survivors of the shrink: origins 2 (9 units) and 4 (8 units); the
  // post-shrink arrival from origin 5 fits within capacity.
  ASSERT_EQ(at0.size(), 3u);
  EXPECT_NEAR(at0.at(2), 9.0, kTolerance);
  EXPECT_NEAR(at0.at(4), 8.0, kTolerance);
  EXPECT_NEAR(at0.at(5), 3.0, kTolerance);
  // The dropped 1 + 2 units remain buffered as unattributed alpha.
  EXPECT_NEAR(tracker.BufferTotal(0), 23.0, kTolerance);
  EXPECT_NEAR(tracker.Provenance(0).EntrySum(), 20.0, kTolerance);
  const ShrinkStats stats = tracker.ComputeShrinkStats();
  EXPECT_NEAR(stats.avg_shrinks, 1.0, kTolerance);
  EXPECT_NEAR(stats.pct_vertices, 100.0 / 6.0, kTolerance);
}

TEST(BudgetTest, DegenerateConfigsAreNormalized) {
  const Tin tin = HandTin();
  BudgetConfig config;
  config.capacity = 0;    // treated as 1
  config.keep_fraction = 0.0;  // clamped: keep at least 1 tuple
  BudgetTracker tracker(tin.num_vertices(), config);
  EXPECT_EQ(tracker.config().capacity, 1u);
  EXPECT_EQ(tracker.keep_count(), 1u);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_LE(tracker.Provenance(v).entries.size(), 1u);
  }
}

}  // namespace
}  // namespace tinprov
