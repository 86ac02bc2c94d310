// Serve-layer semantics: snapshot-isolated queries over a live ingest
// must be indistinguishable from stop-the-world replay. Every answer
// carries the epoch (prefix, watermark) it was resolved against, and
// replaying exactly that prefix through an identically configured
// tracker must reproduce the answer bit-exactly — while the writer was
// publishing, under concurrent readers, long after the epoch a query
// asks about was superseded, and across the handoff boundary of a
// seeding CheckpointedLog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "datagen/generator.h"
#include "lazy/checkpointed_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "policies/proportional_base.h"
#include "serve/request_queue.h"
#include "serve/service.h"
#include "stream/interaction_stream.h"

#if !defined(TINPROV_NO_THREADS)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#endif

namespace tinprov {

// Holds a view the way an in-flight reader does, for as long as a test
// likes: the view keeps its epoch's reader tracker alive.
class ProvenanceServiceTestPeer {
 public:
  using Pin = std::shared_ptr<const ProvenanceService::EpochView>;

  static Pin PinLatest(const ProvenanceService& service) {
    return service.PinView();
  }

  static QueryResult Provenance(const ProvenanceService& service,
                                const Pin& pin, VertexId v) {
    return service.ProvenanceIn(*pin, v);
  }
};

namespace {

Tin GeneratedTin(size_t num_interactions = 3000) {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = num_interactions;
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

ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

TrackerSpec StreamingSpec(const std::string& name) {
  return {name, TestParams(), TrackerMode::kStreaming};
}

// Bit-exact: the serve layer promises the identical result, never an
// approximation, so no tolerance anywhere.
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

// Stop-the-world reference: a fresh identically configured tracker
// replayed over exactly `prefix` interactions of the log.
std::unique_ptr<Tracker> ReferencePrefix(const TrackerSpec& spec,
                                         const Tin& tin, size_t prefix) {
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  std::unique_ptr<Tracker> tracker = (*factory)();
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix && i < log.size(); ++i) {
    EXPECT_TRUE(tracker->Process(log[i]).ok());
  }
  return tracker;
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

// A handoff history: `factory`'s trackers recorded over the log's first
// `split` interactions, checkpointed every `interval`.
CheckpointedLog RecordHead(const TrackerFactory& factory, const Tin& tin,
                           size_t split, size_t interval) {
  VectorStream head(tin.num_vertices(),
                    std::vector<Interaction>(tin.interactions().begin(),
                                             tin.interactions().begin() +
                                                 split));
  auto log = CheckpointedLog::Record(factory, head, interval);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? *std::move(log) : CheckpointedLog();
}

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) {
                              return !std::isalnum(
                                  static_cast<unsigned char>(c));
                            }),
             name.end());
  return name;
}

// ---------------------------------------------------------------------
// (a) The drained service answers exactly like stop-the-world replay,
// for policies and scalable trackers alike.

class ServeFinalStateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeFinalStateTest, FinalEpochMatchesStopTheWorld) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 700;  // not a divisor of the stream length
  auto service =
      ProvenanceService::Create(StreamingSpec(GetParam()), tin.Stats(),
                                options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  const EpochInfo epoch = (*service)->LatestEpoch();
  EXPECT_EQ(epoch.prefix, tin.num_interactions());
  EXPECT_EQ(epoch.watermark, tin.interactions().back().t);
  EXPECT_EQ((*service)->ingest_stats().interactions, tin.num_interactions());

  const auto reference =
      ReferencePrefix(StreamingSpec(GetParam()), tin, tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.epoch.prefix, tin.num_interactions());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     GetParam() + " vertex " + std::to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Names, ServeFinalStateTest,
                         ::testing::Values("FIFO", "LRB", "Prop-sparse",
                                           "Windowed", "Budget", "Selective",
                                           "Grouped"),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Concurrent readers against the live writer: every answer, taken
// at whatever epoch the reader happened to pin, must equal the
// stop-the-world replay of exactly that epoch's prefix.

#if !defined(TINPROV_NO_THREADS)
TEST(ServeConcurrencyTest, ConcurrentReadersBitIdenticalToStopTheWorld) {
  const Tin tin = GeneratedTin(20000);
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  ServeOptions options;
  options.epoch_interval = 256;  // frequent publishes under the readers
  options.ingest_batch = 128;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  struct Sample {
    size_t prefix = 0;
    VertexId v = 0;
    Buffer buffer;
  };
  constexpr size_t kReaders = 3;
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> failed{false};

  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      VertexId v = static_cast<VertexId>(r);
      while (!(*service)->IngestDone()) {
        QueryResult result = (*service)->Provenance(v);
        if (!result.status.ok()) {
          failed.store(true);
          return;
        }
        samples[r].push_back({result.epoch.prefix, v, result.buffer});
        v = (v + 7) % static_cast<VertexId>(tin.num_vertices());
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE((*service)->WaitIngest().ok());
  ASSERT_FALSE(failed.load());

  // One more read per vertex after the drain, so the final epoch is
  // always among the verified prefixes.
  std::vector<Sample> all;
  for (auto& per_reader : samples) {
    all.insert(all.end(), per_reader.begin(), per_reader.end());
  }
  for (VertexId v = 0; v < tin.num_vertices(); v += 11) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    all.push_back({result.epoch.prefix, v, result.buffer});
  }
  ASSERT_FALSE(all.empty());

  // Verify against one reference tracker advanced prefix-by-prefix in
  // sorted order — each sampled epoch replayed stop-the-world.
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.prefix < b.prefix;
  });
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  size_t applied = 0;
  const auto& log = tin.interactions();
  for (const Sample& sample : all) {
    ASSERT_LE(sample.prefix, log.size());
    while (applied < sample.prefix) {
      ASSERT_TRUE(reference->Process(log[applied]).ok());
      ++applied;
    }
    ExpectSameBuffer(reference->Provenance(sample.v), sample.buffer,
                     "prefix " + std::to_string(sample.prefix) + " vertex " +
                         std::to_string(sample.v));
  }
}

TEST(ServeConcurrencyTest, WorkerPoolResolvesSubmittedQueries) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 500;
  options.num_query_threads = 2;
  auto service = ProvenanceService::Create(StreamingSpec("Prop-sparse"),
                                           tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->num_query_threads(), 2u);
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());

  std::vector<std::future<QueryResult>> futures;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    QueryRequest request;
    request.kind = QueryKind::kProvenance;
    request.v = v;
    futures.push_back((*service)->Submit(request));
  }
  for (auto& future : futures) {
    const QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  ASSERT_TRUE((*service)->WaitIngest().ok());
}
#endif  // !TINPROV_NO_THREADS

// ---------------------------------------------------------------------
// (c) Long after an epoch is superseded, historical queries still
// answer exactly via nearest snapshot + delta replay.

TEST(ServeHistoryTest, RingWraparoundStillAnswersExactly) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  ServeOptions options;
  options.epoch_interval = 100;  // ~30 epochs published
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  ASSERT_GT((*service)->LatestEpoch().seq, 10u);

  const auto& log = tin.interactions();
  // Probe times across the whole stream, almost all far behind the
  // newest epoch, plus the boundaries.
  const std::vector<Timestamp> probes = {
      log.front().t - 1.0, log.front().t, log[150].t, log[1234].t,
      log[2500].t,         log.back().t,  log.back().t + 5.0};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixAt(tin, t);
    const auto reference = ReferencePrefix(spec, tin, prefix);
    for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{59}}) {
      QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       "t=" + std::to_string(t) + " v=" + std::to_string(v));
    }
  }
}

// (c1) A query at an older epoch's exact prefix restores that epoch's
// own image from the history and replays nothing; the answer still
// carries the newest epoch's EpochInfo, the view it was resolved in.

TEST(ServeHistoryTest, EpochPrefixesRestoreTheirOwnImage) {
  const Tin tin = GeneratedTin();
  const auto& log = tin.interactions();
  for (const char* name : {"Prop-sparse", "LRB", "Windowed"}) {
    const TrackerSpec spec = StreamingSpec(name);
    ServeOptions options;
    options.epoch_interval = 100;
    auto service = ProvenanceService::Create(spec, tin.Stats(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(
        (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
    ASSERT_TRUE((*service)->WaitIngest().ok());
    const EpochInfo latest = (*service)->LatestEpoch();
    ASSERT_EQ(latest.prefix, log.size());

    auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
    ASSERT_TRUE(factory.ok());
    std::unique_ptr<Tracker> reference = (*factory)();
    size_t applied = 0;
    size_t probed = 0;
    for (size_t p = options.epoch_interval; p <= log.size();
         p += options.epoch_interval) {
      // t = log[p-1].t resolves to prefix p only when no later
      // interaction shares its timestamp.
      if (p < log.size() && log[p].t == log[p - 1].t) continue;
      ++probed;
      for (; applied < p; ++applied) {
        ASSERT_TRUE(reference->Process(log[applied]).ok());
      }
      const Timestamp t = log[p - 1].t;
      for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{42}}) {
        const std::string context = std::string(name) + " prefix " +
                                    std::to_string(p) + " v=" +
                                    std::to_string(v);
        const QueryResult result = (*service)->Provenance(v, t);
        ASSERT_TRUE(result.status.ok()) << context;
        EXPECT_EQ(result.replayed_interactions, 0u) << context;
        EXPECT_EQ(result.epoch.seq, latest.seq) << context;
        EXPECT_EQ(result.epoch.prefix, latest.prefix) << context;
        EXPECT_EQ(result.epoch.watermark, latest.watermark) << context;
        ExpectSameBuffer(reference->Provenance(v), result.buffer, context);
      }
    }
    EXPECT_GE(probed, 20u) << name;
  }
}

// ---------------------------------------------------------------------
// (c2) Recycled reader trackers. Every publish supersedes the previous
// epoch, whose reader tracker is parked and then restored into by the
// next publish. A reader pinning an old epoch
// across many publishes keeps its tracker untouched — only unpinned
// trackers are ever parked — and its answers, the concurrent readers'
// answers at every epoch and the newest epoch's all match
// stop-the-world replay.

class ServeRecycleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeRecycleTest, PinnedEpochSurvivesRecycledPublishes) {
  using Peer = ProvenanceServiceTestPeer;
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec(GetParam());
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  const size_t split = 1000;
  const auto& log = tin.interactions();

  ServeOptions options;
  options.epoch_interval = 64;  // 31 publishes over the 2000-long tail
  options.ingest_batch = 64;
  auto service = ProvenanceService::Create(
      spec, tin.Stats(), options, RecordHead(*factory, tin, split, 250));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // Epoch 0 is the handoff state at `split`; pin it before the writer
  // starts.
  const Peer::Pin pinned = Peer::PinLatest(**service);
  const obs::Counter* reuses =
      obs::MetricsRegistry::Global().GetCounter("serve.tracker_reuses");
  const uint64_t reuses_before = reuses->Value();

  struct Sample {
    size_t prefix = 0;
    VertexId v = 0;
    Buffer buffer;
  };
  std::vector<Sample> samples;
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(
                      tin.num_vertices(),
                      std::vector<Interaction>(log.begin() + split,
                                               log.end())))
                  .ok());
#if !defined(TINPROV_NO_THREADS)
  // A concurrent reader unpins views on its own thread, so some superseded
  // trackers are parked from here rather than from the writer.
  std::thread reader([&] {
    VertexId v = 0;
    while (!(*service)->IngestDone()) {
      QueryResult result = (*service)->Provenance(v);
      if (!result.status.ok()) return;
      samples.push_back({result.epoch.prefix, v, std::move(result.buffer)});
      v = (v + 7) % static_cast<VertexId>(tin.num_vertices());
    }
  });
  reader.join();
#endif
  ASSERT_TRUE((*service)->WaitIngest().ok());
  EXPECT_GE((*service)->LatestEpoch().seq, 20u);
  if (obs::kMetricsEnabled) {
    EXPECT_GT(reuses->Value(), reuses_before);
  }

  const auto at_split = ReferencePrefix(spec, tin, split);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const QueryResult result = Peer::Provenance(**service, pinned, v);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.epoch.prefix, split);
    ExpectSameBuffer(at_split->Provenance(v), result.buffer,
                     GetParam() + " pinned vertex " + std::to_string(v));
    QueryResult latest = (*service)->Provenance(v);
    ASSERT_TRUE(latest.status.ok());
    samples.push_back({latest.epoch.prefix, v, std::move(latest.buffer)});
  }

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.prefix < b.prefix;
            });
  std::unique_ptr<Tracker> reference = (*factory)();
  size_t applied = 0;
  for (const Sample& sample : samples) {
    ASSERT_GE(sample.prefix, split);
    ASSERT_LE(sample.prefix, log.size());
    while (applied < sample.prefix) {
      ASSERT_TRUE(reference->Process(log[applied++]).ok());
    }
    ExpectSameBuffer(reference->Provenance(sample.v), sample.buffer,
                     GetParam() + " prefix " + std::to_string(sample.prefix) +
                         " vertex " + std::to_string(sample.v));
  }
  EXPECT_EQ(applied, log.size());
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, ServeRecycleTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// With no reader pinning a view, every publish after the first restores
// into the reader tracker the previous publish superseded.
TEST(ServeRecycleCountTest, EachPublishReusesTheSupersededTracker) {
  const Tin tin = GeneratedTin(20000);  // five default-interval epochs
  auto service =
      ProvenanceService::Create(StreamingSpec("FIFO"), tin.Stats());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const obs::Counter* reuses =
      obs::MetricsRegistry::Global().GetCounter("serve.tracker_reuses");
  const uint64_t reuses_before = reuses->Value();
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  // Epoch 0 and epoch 1 each need a fresh tracker: epoch 0's is only
  // parked once epoch 1 replaces it.
  const uint64_t epochs = (*service)->LatestEpoch().seq + 1;
  ASSERT_GE(epochs, 5u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(reuses->Value() - reuses_before, epochs - 2);
  }
}

TEST(ServeHistoryTest, RetentionOffBoundsHistoricalReach) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 100;
  options.retain_history = false;
  auto service = ProvenanceService::Create(StreamingSpec("Prop-sparse"),
                                           tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // At or past the final watermark the latest epoch answers.
  QueryResult fresh =
      (*service)->Provenance(0, tin.interactions().back().t);
  EXPECT_TRUE(fresh.status.ok());
  // Far behind the latest epoch there is nothing to answer from.
  QueryResult stale =
      (*service)->Provenance(0, tin.interactions().front().t - 1.0);
  EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// (d) Handoff from a recorded CheckpointedLog: queries before, at, and
// after the handoff watermark all equal full-replay references, and the
// two regimes meet bit-exactly at the boundary.

TEST(ServeHistoryTest, HandoffBoundaryMatchesFullReplay) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());

  const size_t split = tin.num_interactions() / 2;
  const auto& log = tin.interactions();
  const CheckpointedLog history = RecordHead(*factory, tin, split, 97);
  ASSERT_EQ(history.size(), split);
  const Timestamp handoff = history[history.size() - 1].t;

  ServeOptions options;
  options.epoch_interval = 300;
  auto service =
      ProvenanceService::Create(spec, tin.Stats(), options, history);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // Epoch 0 is the handoff state itself.
  EXPECT_EQ((*service)->LatestEpoch().watermark, handoff);

  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE(
      (*service)
          ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                 std::move(tail)))
          .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  const std::vector<Timestamp> probes = {
      log.front().t,       log[split / 2].t, handoff - 1e-9,
      handoff,             log[split + 10].t, log.back().t};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixAt(tin, t);
    const auto reference = ReferencePrefix(spec, tin, prefix);
    for (const VertexId v : {VertexId{3}, VertexId{21}, VertexId{42}}) {
      QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       "t=" + std::to_string(t) + " v=" + std::to_string(v));
    }
  }

  // The live side's final state equals full replay of the whole log.
  const auto full = ReferencePrefix(spec, tin, tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); v += 13) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(full->Provenance(v), result.buffer,
                     "final vertex " + std::to_string(v));
  }
}

// ---------------------------------------------------------------------
// (d1) The handoff seeds one global history: epoch prefixes continue
// from the history's, the seeded log and snapshots are on the service's
// memory bill, and every snapshot prefix ±1 on both sides of the seam
// (plus the handoff watermark) answers like a clean prefix replay.

TEST(ServeHistoryTest, HandoffSeedsOneGlobalHistory) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());

  const auto& log = tin.interactions();
  const size_t split = tin.num_interactions() / 2;
  const size_t interval = 97;
  const CheckpointedLog history = RecordHead(*factory, tin, split, interval);

  ServeOptions options;
  options.epoch_interval = 300;
  auto service =
      ProvenanceService::Create(spec, tin.Stats(), options, history);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->LatestEpoch().prefix, split);
#if defined(TINPROV_METRICS_ENABLED)
  // The seeded history is counted: its log, its snapshots, and
  // at most the handoff image on top.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("memory.serve_log_bytes")->Value(),
            static_cast<double>(history.log_bytes()));
  const double snapshot_bytes =
      registry.GetGauge("memory.serve_snapshot_bytes")->Value();
  EXPECT_GE(snapshot_bytes,
            static_cast<double>(history.checkpoint_bytes()));
  EXPECT_LE(snapshot_bytes,
            static_cast<double>(history.checkpoint_bytes() +
                                (*service)->LatestEpochState()->size()));
#endif

  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE(
      (*service)
          ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                 std::move(tail)))
          .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  // Epoch prefixes are global: the last one is the whole log.
  EXPECT_EQ((*service)->LatestEpoch().prefix, tin.num_interactions());

  // Snapshot prefixes: the history's, the handoff, then every epoch.
  std::vector<size_t> probes;
  for (size_t p = interval; p <= split; p += interval) probes.push_back(p);
  probes.push_back(split);
  for (size_t p = split + options.epoch_interval; p <= log.size();
       p += options.epoch_interval) {
    probes.push_back(p);
  }
  probes.push_back(log.size());
  for (const size_t probe : probes) {
    for (const size_t p : {probe - 1, probe, probe + 1}) {
      if (p == 0 || p > log.size()) continue;
      const Timestamp t = log[p - 1].t;
      const auto reference = ReferencePrefix(spec, tin, PrefixAt(tin, t));
      for (const VertexId v : {VertexId{3}, VertexId{21}, VertexId{42}}) {
        QueryResult result = (*service)->Provenance(v, t);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ExpectSameBuffer(reference->Provenance(v), result.buffer,
                         "prefix " + std::to_string(p) + " v=" +
                             std::to_string(v));
      }
    }
  }
}

TEST(ServeHistoryTest, RetentionOffStillAnswersTheSeededHistory) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("FIFO");
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  const auto& log = tin.interactions();
  const size_t split = tin.num_interactions() / 2;
  ServeOptions options;
  options.epoch_interval = 100;
  options.retain_history = false;
  auto service = ProvenanceService::Create(
      spec, tin.Stats(), options, RecordHead(*factory, tin, split, 97));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE(
      (*service)
          ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                 std::move(tail)))
          .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // Before the handoff the seeded history answers exactly.
  const Timestamp t = log[split / 3].t;
  const auto reference = ReferencePrefix(spec, tin, PrefixAt(tin, t));
  QueryResult seeded = (*service)->Provenance(5, t);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status.ToString();
  ExpectSameBuffer(reference->Provenance(5), seeded.buffer, "seeded");
  // The unretained live past behind the latest epoch has nothing to
  // answer.
  QueryResult stale = (*service)->Provenance(5, log[split + 10].t);
  EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// (d2) Catchup: the label-sharded bulk-load before Start() must leave
// the service indistinguishable from one that ingested everything
// through the live path — for the decomposable trackers (Grouped is
// the benchmark's Catchup tracker) and for LRB, which takes the
// sequential fallback.

class ServeCatchupTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeCatchupTest, CatchupPlusTailMatchesFullSequentialStart) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec(GetParam());
  const auto& log = tin.interactions();
  const size_t split = tin.num_interactions() / 2;

  ServeOptions options;
  options.epoch_interval = 300;
  options.catchup.num_threads = 4;
  options.catchup.num_shards = 4;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<Interaction> head(log.begin(), log.begin() + split);
  ASSERT_TRUE((*service)
                  ->Catchup(std::make_unique<VectorStream>(
                      tin.num_vertices(), std::move(head)))
                  .ok());
  EXPECT_EQ((*service)->catchup_stats().interactions, split);
  EXPECT_EQ((*service)->catchup_stats().watermark, log[split - 1].t);
  // The catchup result is immediately queryable at its own epoch, and
  // that epoch is byte-identical to a sequential ingest of the head.
  EXPECT_EQ((*service)->LatestEpoch().prefix, split);
  EXPECT_EQ((*service)->LatestEpoch().watermark, log[split - 1].t);
  std::vector<uint8_t> head_state;
  ReferencePrefix(spec, tin, split)->SaveState(&head_state);
  EXPECT_TRUE(*(*service)->LatestEpochState() == head_state)
      << "catchup epoch SaveState bytes differ";

  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                         std::move(tail)))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // Epoch prefixes keep counting interactions-applied-since-empty, so
  // the final epoch covers the whole log, not just the tail.
  EXPECT_EQ((*service)->LatestEpoch().prefix, tin.num_interactions());
  EXPECT_EQ((*service)->LatestEpoch().watermark, log.back().t);
  EXPECT_EQ((*service)->ingest_stats().interactions,
            tin.num_interactions() - split);

  const auto reference = ReferencePrefix(spec, tin, tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     "catchup vertex " + std::to_string(v));
  }

  // Queries never show the replicated scalars (the attributed total
  // behind the alpha residue, window positions); the state bytes do.
  std::vector<uint8_t> reference_state;
  reference->SaveState(&reference_state);
  const auto final_state = (*service)->LatestEpochState();
  EXPECT_TRUE(*final_state == reference_state)
      << "final epoch SaveState bytes differ";
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> restored = (*factory)();
  ASSERT_TRUE(restored->RestoreState(*final_state).ok());
  const auto* expected_pro_rata =
      dynamic_cast<const SparseProportionalBase*>(reference.get());
  const auto* actual_pro_rata =
      dynamic_cast<const SparseProportionalBase*>(restored.get());
  ASSERT_EQ(expected_pro_rata == nullptr, actual_pro_rata == nullptr);
  if (expected_pro_rata != nullptr) {
    EXPECT_EQ(expected_pro_rata->AlphaResidue(),
              actual_pro_rata->AlphaResidue());
  }
}

TEST_P(ServeCatchupTest, HistoricalQueriesSpanTheCatchupRange) {
  // retain_history keeps the catchup interactions in the retained log
  // (the engine's stream is teed through it), so Provenance(v, t) for a
  // t inside the caught-up range answers exactly as if the range had
  // been ingested live.
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec(GetParam());
  const auto& log = tin.interactions();
  const size_t split = (2 * tin.num_interactions()) / 3;

  ServeOptions options;
  options.epoch_interval = 100;
  options.catchup.num_threads = 3;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  std::vector<Interaction> head(log.begin(), log.begin() + split);
  ASSERT_TRUE((*service)
                  ->Catchup(std::make_unique<VectorStream>(
                      tin.num_vertices(), std::move(head)))
                  .ok());
  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                         std::move(tail)))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  const std::vector<Timestamp> probes = {log[10].t, log[split / 2].t,
                                         log[split - 1].t, log[split + 5].t,
                                         log.back().t};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixAt(tin, t);
    const auto reference = ReferencePrefix(spec, tin, prefix);
    for (const VertexId v : {VertexId{1}, VertexId{29}, VertexId{58}}) {
      QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       "catchup-history t=" + std::to_string(t) + " v=" +
                           std::to_string(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Names, ServeCatchupTest,
                         ::testing::Values("Prop-sparse", "Windowed",
                                           "Selective", "Grouped", "LRB"),
                         SanitizeName);

TEST(ServeCatchupApiTest, OutOfOrderCatchupNamesTheOffense) {
  // Both Catchup paths — label-sharded and the sequential fallback —
  // report disorder with StreamIngestor's diagnostic: the interaction
  // index, its timestamp and the watermark it fell below.
  const Tin tin = GeneratedTin();
  std::vector<Interaction> head(tin.interactions().begin(),
                                tin.interactions().begin() + 200);
  std::swap(head[40], head[120]);
  const std::string offense =
      "interaction 41 has timestamp " + std::to_string(head[41].t) +
      " below the watermark " + std::to_string(head[40].t);
  ASSERT_LT(head[41].t, head[40].t);
  for (const char* name : {"Prop-sparse", "LRB"}) {
    ServeOptions options;
    options.catchup.num_threads = 3;
    auto service =
        ProvenanceService::Create(StreamingSpec(name), tin.Stats(), options);
    ASSERT_TRUE(service.ok());
    const Status status = (*service)->Catchup(
        std::make_unique<VectorStream>(tin.num_vertices(), head));
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find(offense), std::string::npos)
        << name << ": " << status.message();
  }
}

TEST(ServeCatchupApiTest, LifecyclePreconditions) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  const auto& log = tin.interactions();
  auto make_stream = [&] {
    return std::make_unique<VectorStream>(
        tin.num_vertices(), std::vector<Interaction>(log.begin(),
                                                     log.begin() + 100));
  };

  {
    auto service = ProvenanceService::Create(spec, tin.Stats());
    ASSERT_TRUE(service.ok());
    EXPECT_EQ((*service)->Catchup(nullptr).code(),
              StatusCode::kInvalidArgument);
    // A second catchup would double-apply: one bulk load only.
    ASSERT_TRUE((*service)->Catchup(make_stream()).ok());
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // Once the live ingest started, the bulk path is closed.
    auto service = ProvenanceService::Create(spec, tin.Stats());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*service)->WaitIngest().ok());
  }
  {
    // A handoff log already carries history: catchup must start from
    // empty state.
    auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
    ASSERT_TRUE(factory.ok());
    auto service = ProvenanceService::Create(
        spec, tin.Stats(), {}, RecordHead(*factory, tin, 1, 100));
    ASSERT_TRUE(service.ok());
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------------
// (e) API edges: construction validation, top-k ordering, dispatch,
// lifecycle, and ingest-error propagation.

TEST(ServeApiTest, RejectsMaterializedModeSpecs) {
  const Tin tin = GeneratedTin();
  TrackerSpec spec{"Prop-sparse", TestParams(), TrackerMode::kMaterialized};
  auto service = ProvenanceService::Create(spec, tin.Stats());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeApiTest, RejectsHistoryForAnotherVertexCount) {
  // RestoreState refuses an image cut for another vertex count, so a
  // checkpointed history recorded over 60 vertices cannot seed a
  // 61-vertex service.
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("FIFO");
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  const CheckpointedLog history = RecordHead(*factory, tin, 1500, 97);
  ASSERT_GT(history.num_checkpoints(), 0u);
  DatasetStats wider = tin.Stats();
  wider.num_vertices = tin.num_vertices() + 1;
  auto service = ProvenanceService::Create(spec, wider, {}, history);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeApiTest, TopOriginsSortsAndTruncates) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  for (VertexId v = 0; v < tin.num_vertices(); v += 9) {
    const QueryResult all = (*service)->Provenance(v);
    ASSERT_TRUE(all.status.ok());
    const QueryResult top = (*service)->TopOrigins(v, 3);
    ASSERT_TRUE(top.status.ok());
    EXPECT_LE(top.buffer.entries.size(), 3u);
    EXPECT_EQ(top.buffer.entries.size(),
              std::min<size_t>(3, all.buffer.entries.size()));
    // Quantity-descending, origin-ascending on ties; total untouched.
    EXPECT_EQ(top.buffer.total, all.buffer.total);
    for (size_t i = 1; i < top.buffer.entries.size(); ++i) {
      const ProvPair& a = top.buffer.entries[i - 1];
      const ProvPair& b = top.buffer.entries[i];
      EXPECT_TRUE(a.quantity > b.quantity ||
                  (a.quantity == b.quantity && a.origin < b.origin))
          << "vertex " << v << " entry " << i;
    }
    // Nothing outside the top-k beats anything inside it.
    if (!top.buffer.entries.empty()) {
      double kth = top.buffer.entries.back().quantity;
      for (const ProvPair& entry : all.buffer.entries) {
        EXPECT_LE(
            entry.quantity,
            top.buffer.entries.front().quantity);
        (void)kth;
      }
    }
  }
}

TEST(ServeApiTest, ExecuteDispatchAndBoundsChecks) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("FIFO"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  QueryRequest request;
  request.kind = QueryKind::kTopOrigins;
  request.v = 1;
  request.k = 2;
  const QueryResult via_execute = (*service)->Execute(request);
  const QueryResult direct = (*service)->TopOrigins(1, 2);
  ASSERT_TRUE(via_execute.status.ok());
  ExpectSameBuffer(direct.buffer, via_execute.buffer, "execute dispatch");

  // Out-of-range vertices are an error on every path, not a crash.
  EXPECT_EQ((*service)->Provenance(999).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->Provenance(999, 1.0).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->TopOrigins(999, 3).status.code(),
            StatusCode::kInvalidArgument);

  // One ingest per service.
  EXPECT_EQ(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).code(),
      StatusCode::kFailedPrecondition);
}

TEST(ServeApiTest, IngestErrorsSurfaceThroughWaitIngest) {
  std::vector<Interaction> disordered;
  for (size_t i = 0; i < 50; ++i) {
    Interaction interaction;
    interaction.src = static_cast<VertexId>(i % 5);
    interaction.dst = static_cast<VertexId>((i + 2) % 5);
    interaction.t = static_cast<Timestamp>(50 - i);  // strictly decreasing
    interaction.quantity = 1.0;
    disordered.push_back(interaction);
  }
  auto service = ProvenanceService::Create(StreamingSpec("FIFO"),
                                           DatasetStats{5, 50});
  ASSERT_TRUE(service.ok());
  const Status start =
      (*service)->Start(std::make_unique<VectorStream>(5, disordered));
  // Threaded builds report via WaitIngest; synchronous builds may fail
  // either there or at Start itself.
  if (start.ok()) {
    EXPECT_EQ((*service)->WaitIngest().code(), StatusCode::kInvalidArgument);
  } else {
    EXPECT_EQ(start.code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// (f) MemoryBytes regression (the dynamic_cast probe replacement):
// every tracker reports an allocator-level footprint at least as large
// as its logical accounting, whatever the policy.

TEST(ServeApiTest, MemoryBytesCoversLogicalBytesForEveryTracker) {
  const Tin tin = GeneratedTin();
  const TrackerRegistry& registry = TrackerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto tracker = registry.Create({name, TestParams()}, tin);
    ASSERT_TRUE(tracker.ok()) << name;
    ASSERT_TRUE((*tracker)->ProcessAll(tin).ok()) << name;
    EXPECT_GE((*tracker)->MemoryBytes(), (*tracker)->MemoryUsage()) << name;
    (*tracker)->PublishMetrics();  // must be callable on any tracker
  }
}

// ---------------------------------------------------------------------
// (g) Ops plane: /statusz agrees with what a pinned reader sees, the
// slow-query log tags queries on both entry points, and /healthz flips
// to 503 the moment a registered check reports unhealthy.

// Pulls the unsigned integer following `"key":` out of hand-built JSON.
uint64_t JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return ~uint64_t{0};
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ServeOpsTest, StatuszJsonMatchesPinnedEpoch) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // The page pins one view, exactly like a query does; after the drain
  // both must be the final epoch.
  const std::string statusz = (*service)->StatuszJson();
  const QueryResult pinned = (*service)->Provenance(0);
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(JsonField(statusz, "prefix"), pinned.epoch.prefix);
  EXPECT_EQ(JsonField(statusz, "seq"), pinned.epoch.seq);
  EXPECT_EQ(JsonField(statusz, "prefix"), (*service)->LatestEpoch().prefix);
  EXPECT_NE(statusz.find("\"done\":true"), std::string::npos);
  EXPECT_NE(statusz.find("\"total_bytes\":"), std::string::npos);
}

TEST(ServeOpsTest, SlowQueryLogTagsQueriesOnBothEntryPoints) {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  log.Clear();
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.slow_query_ns = 1;  // everything is slow
  auto service = ProvenanceService::Create(StreamingSpec("Prop-sparse"),
                                           tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  QueryRequest request;
  request.kind = QueryKind::kProvenance;
  request.v = 7;
  const QueryResult direct = (*service)->Execute(request);
  ASSERT_TRUE(direct.status.ok());
  EXPECT_GT(direct.query_id, 0u);
  ASSERT_EQ(log.recorded(), 1u);
  {
    const std::vector<obs::SlowQueryRecord> records = log.Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].query_id, direct.query_id);
    EXPECT_STREQ(records[0].kind, "provenance");
    EXPECT_EQ(records[0].vertex, 7u);
    EXPECT_GT(records[0].latency_ns, 0);
    EXPECT_EQ(records[0].epoch_prefix, direct.epoch.prefix);
  }

  // Submit funnels through the same Execute wrapper.
  request.kind = QueryKind::kTopOrigins;
  request.v = 3;
  request.k = 2;
  const QueryResult submitted = (*service)->Submit(request).get();
  ASSERT_TRUE(submitted.status.ok());
  EXPECT_GT(submitted.query_id, direct.query_id);
  ASSERT_EQ(log.recorded(), 2u);
  EXPECT_STREQ(log.Snapshot().back().kind, "top_origins");

  // A disabled threshold records nothing, but ids keep flowing.
  ServeOptions quiet;
  quiet.slow_query_ns = 0;
  auto quiet_service = ProvenanceService::Create(
      StreamingSpec("Prop-sparse"), tin.Stats(), quiet);
  ASSERT_TRUE(quiet_service.ok());
  ASSERT_TRUE((*quiet_service)
                  ->Start(std::make_unique<MaterializedStream>(tin))
                  .ok());
  ASSERT_TRUE((*quiet_service)->WaitIngest().ok());
  request.kind = QueryKind::kProvenance;
  const QueryResult untracked = (*quiet_service)->Execute(request);
  ASSERT_TRUE(untracked.status.ok());
  EXPECT_GT(untracked.query_id, submitted.query_id);
  EXPECT_EQ(log.recorded(), 2u);
  log.Clear();
}

#if !defined(TINPROV_NO_THREADS)

// Minimal loopback HTTP client (mirrors the one in test_obs.cc).
std::string OpsHttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ServeOpsTest, OpsServerServesConsistentStatusAndHealth) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  auto port = (*service)->EnableOpsServer(0);  // ephemeral
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);
  EXPECT_FALSE((*service)->EnableOpsServer(0).ok());  // one per service
  ASSERT_NE((*service)->ops_recorder(), nullptr);

  // /statusz over the wire reports the same epoch a pinned reader sees.
  const std::string statusz = OpsHttpGet(*port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos);
  const QueryResult pinned = (*service)->Provenance(0);
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(JsonField(statusz, "prefix"), pinned.epoch.prefix);

  // Healthy service: the full catalogue passes (ingest is drained, the
  // queue is empty, nothing dropped).
  const std::string healthy = OpsHttpGet(*port, "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(healthy.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(healthy.find("serve.epoch_age"), std::string::npos);
  EXPECT_NE(healthy.find("ingest.watermark_lag"), std::string::npos);

  // Force one check unhealthy: the endpoint must flip to 503.
  obs::HealthRegistry::Global().Register("test.forced", [] {
    obs::HealthResult result;
    result.healthy = false;
    result.message = "forced by test";
    return result;
  });
  const std::string sick = OpsHttpGet(*port, "/healthz");
  EXPECT_NE(sick.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_NE(sick.find("forced by test"), std::string::npos);
  obs::HealthRegistry::Global().Unregister("test.forced");
  EXPECT_NE(OpsHttpGet(*port, "/healthz").find("HTTP/1.0 200"),
            std::string::npos);

  // The other built-ins answer through the same listener.
  EXPECT_NE(OpsHttpGet(*port, "/metrics").find("# TYPE"), std::string::npos);
  EXPECT_NE(OpsHttpGet(*port, "/metricsz").find("\"counters\""),
            std::string::npos);

  (*service)->DisableOpsServer();
  (*service)->DisableOpsServer();  // idempotent
  EXPECT_TRUE(OpsHttpGet(*port, "/healthz").empty());
  // The service's health checks left the global registry with it.
  EXPECT_EQ(obs::HealthRegistry::Global().size(), 0u);
}

#endif  // !TINPROV_NO_THREADS

}  // namespace
}  // namespace tinprov
