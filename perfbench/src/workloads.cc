#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "core/tin.h"
#include "datagen/presets.h"
#include "obs/metrics.h"
#include "policies/tracker.h"
#include "serve/service.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace perfbench {

namespace {

using tinprov::Buffer;
using tinprov::DatasetStats;
using tinprov::Interaction;
using tinprov::ProvenanceService;
using tinprov::ServeOptions;
using tinprov::Status;
using tinprov::Timestamp;
using tinprov::Tin;
using tinprov::Tracker;
using tinprov::TrackerSpec;
using tinprov::VertexId;

constexpr double kZipfSkew = 0.8;  // query-vertex skew
constexpr size_t kTopK = 10;

TrackerSpec Spec(const char* name) {
  TrackerSpec spec;
  spec.name = name;
  spec.mode = tinprov::TrackerMode::kStreaming;
  return spec;
}

const char* WorkloadTracker(const std::string& workload) {
  if (workload == "replay-prop") return "Prop-sparse";
  if (workload == "serve-live") return "Grouped";
  return "LRB";
}

// ---- streams -------------------------------------------------------------

// Interactions [begin, end) of a generated log. With `pull_ns` set it
// stamps, per interaction, when the consumer pulled it: the start of
// its visibility lag.
class RangeStream : public tinprov::InteractionStream {
 public:
  RangeStream(const Tin& tin, size_t begin, size_t end,
              std::vector<int64_t>* pull_ns)
      : tin_(tin), begin_(begin), end_(end), cursor_(begin), pull_ns_(pull_ns) {}

  bool Next(Interaction* out) override {
    if (cursor_ >= end_) return false;
    *out = tin_.interactions()[cursor_];
    if (pull_ns_ != nullptr) (*pull_ns_)[cursor_ - begin_] = NowNs();
    ++cursor_;
    return true;
  }

  DatasetStats Stats() const override {
    return {tin_.num_vertices(), end_ - begin_};
  }

 private:
  const Tin& tin_;
  size_t begin_;
  size_t end_;
  size_t cursor_;
  std::vector<int64_t>* pull_ns_;
};

// Forwards every call to a real tracker and sums the time spent in
// Process(): the policies layer's share of an offline drain. Used only
// in traced iterations; never snapshotted.
class TimedTracker : public Tracker {
 public:
  explicit TimedTracker(Tracker* inner)
      : Tracker(inner->num_vertices()), inner_(inner) {}

  Status Process(const Interaction& interaction) override {
    const int64_t start = NowNs();
    const Status status = inner_->Process(interaction);
    process_ns_ += NowNs() - start;
    return status;
  }
  using Tracker::ReserveHint;
  void ReserveHint(const DatasetStats& stats) override {
    inner_->ReserveHint(stats);
  }
  double BufferTotal(VertexId v) const override {
    return inner_->BufferTotal(v);
  }
  Buffer Provenance(VertexId v) const override { return inner_->Provenance(v); }
  size_t MemoryUsage() const override { return inner_->MemoryUsage(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  void PublishMetrics() const override { inner_->PublishMetrics(); }

  double process_s() const { return NsToSeconds(process_ns_); }

 protected:
  void SaveStateBody(tinprov::ByteWriter*) const override {}
  Status RestoreStateBody(tinprov::ByteReader*) override {
    return Status::FailedPrecondition("TimedTracker is never restored");
  }

 private:
  Tracker* inner_;
  int64_t process_ns_ = 0;
};

// ---- set-up --------------------------------------------------------------

Tin GenerateDataset(const RunConfig& config, Tracer& tracer, int parent,
                    double* seconds) {
  ScopedSpan span(tracer, "datagen.generate", "datagen", parent);
  const int64_t start = NowNs();
  tinprov::GeneratorConfig generator =
      tinprov::PresetConfig(tinprov::DatasetKind::kBitcoin, config.scale);
  generator.seed = config.seed;
  auto tin = tinprov::Generate(generator);
  Require(tin.status(), "dataset generation");
  *seconds = NsToSeconds(NowNs() - start);

  // The paper's effects only show at scale: refuse anything smaller
  // than the scale-10 Bitcoin preset unless this is the self-test.
  const tinprov::GeneratorConfig floor =
      tinprov::PresetConfig(tinprov::DatasetKind::kBitcoin, 10.0);
  if (!config.selftest && (tin->num_interactions() < floor.num_interactions ||
                           tin->num_vertices() < floor.num_vertices)) {
    Refuse("input has " + std::to_string(tin->num_vertices()) +
           " vertices / " + std::to_string(tin->num_interactions()) +
           " interactions, below the scale-10 size (" +
           std::to_string(floor.num_vertices) + " / " +
           std::to_string(floor.num_interactions) + ")");
  }
  return *std::move(tin);
}

std::string IterationDir(const RunConfig& config, int iteration) {
  return config.data_dir + "/iter-" + std::to_string(iteration);
}

std::unique_ptr<ProvenanceService> CreateService(const RunConfig& config,
                                                 int iteration,
                                                 const DatasetStats& stats) {
  ServeOptions options;  // defaults: epoch interval, batch, catchup params
  if (config.epoch_interval != 0) options.epoch_interval = config.epoch_interval;
  if (config.workload == "durable-restart") {
    options.durability.dir = IterationDir(config, iteration);
  }
  auto service = ProvenanceService::Create(
      Spec(WorkloadTracker(config.workload)), stats, options);
  Require(service.status(), "service construction");
  return *std::move(service);
}

// What set-up builds: the dataset, then the workload's tracker
// (replay-prop) or service (the others) on a fresh directory.
struct Setup {
  Tin tin;
  // Pull stamps of the stream being ingested. Declared before the
  // service, which keeps its last stream (and a pointer here) alive.
  std::vector<int64_t> pull_ns;
  std::unique_ptr<Tracker> tracker;
  std::unique_ptr<ProvenanceService> service;
  double seconds = 0.0;
  double generate_s = 0.0;
};

Setup SetUp(const RunConfig& config, int iteration, Tracer& tracer,
            int parent) {
  std::filesystem::remove_all(IterationDir(config, iteration));
  Setup setup;
  const int64_t start = NowNs();
  setup.tin = GenerateDataset(config, tracer, parent, &setup.generate_s);
  if (config.workload == "replay-prop") {
    ScopedSpan span(tracer, "registry.create", "policies", parent);
    auto tracker = tinprov::TrackerRegistry::Global().Create(
        Spec("Prop-sparse"), setup.tin.Stats());
    Require(tracker.status(), "tracker construction");
    setup.tracker = *std::move(tracker);
  } else {
    ScopedSpan span(tracer, "service.create", "serve", parent);
    setup.service = CreateService(config, iteration, setup.tin.Stats());
  }
  setup.seconds = NsToSeconds(NowNs() - start);
  return setup;
}

// ---- checks --------------------------------------------------------------

// Balances under any policy equal the no-provenance tracker's; each
// buffer's entries sum to its balance; the buffered total equals the
// generated total (conservation of flow).
void CheckConservation(const char* what, const Tin& tin, size_t prefix,
                       const std::function<Buffer(VertexId)>& provenance) {
  auto reference =
      tinprov::CreateTracker(tinprov::PolicyKind::kNoProvenance,
                             tin.num_vertices());
  for (size_t i = 0; i < prefix; ++i) {
    Require(reference->Process(tin.interactions()[i]), "reference replay");
  }
  double buffered = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const Buffer buffer = provenance(v);
    const double balance = reference->BufferTotal(v);
    Check(Near(buffer.Total(), balance),
          std::string(what) + ": vertex " + std::to_string(v) + " holds " +
              std::to_string(buffer.Total()) + ", the no-provenance replay " +
              std::to_string(balance));
    Check(Near(buffer.EntrySum(), buffer.Total()),
          std::string(what) + ": vertex " + std::to_string(v) +
              " provenance entries do not sum to its balance");
    for (const tinprov::ProvPair& entry : buffer.entries) {
      Check(entry.quantity >= 0.0,
            std::string(what) + ": negative provenance entry at vertex " +
                std::to_string(v));
    }
    buffered += buffer.Total();
  }
  Check(Near(buffered, reference->total_generated()),
        std::string(what) + ": buffered total " + std::to_string(buffered) +
            " differs from the generated total " +
            std::to_string(reference->total_generated()));
}

// Upper bound: interactions with timestamp <= t.
size_t PrefixAt(const Tin& tin, Timestamp t) {
  const auto& log = tin.interactions();
  return static_cast<size_t>(
      std::upper_bound(log.begin(), log.end(), t,
                       [](Timestamp x, const Interaction& i) { return x < i.t; }) -
      log.begin());
}

// Every kept answer against a stop-the-world tracker advanced over the
// log to exactly the answer's prefix, one pass in prefix order.
void CheckSamples(const char* tracker_name, const Tin& tin,
                  std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.prefix < b.prefix; });
  auto reference = tinprov::TrackerRegistry::Global().Create(
      Spec(tracker_name), tin.Stats());
  Require(reference.status(), "reference tracker");
  size_t applied = 0;
  for (const Sample& sample : samples) {
    Check(sample.prefix <= tin.num_interactions(),
          "answer claims prefix " + std::to_string(sample.prefix) +
              " beyond the log");
    while (applied < sample.prefix) {
      Require((*reference)->Process(tin.interactions()[applied++]),
              "reference replay");
    }
    Buffer expected = (*reference)->Provenance(sample.v);
    if (sample.type == QueryType::kTopOrigins) {
      expected = TopK(std::move(expected), kTopK);
    }
    Check(SameBuffer(expected, sample.buffer),
          std::string("answer for vertex ") + std::to_string(sample.v) +
              " at prefix " + std::to_string(sample.prefix) +
              " differs from a stop-the-world replay");
  }
}

void MaybePerturb(const RunConfig& config, std::vector<Sample>* samples) {
  if (!config.perturb) return;
  Check(!samples->empty(), "no answers kept to perturb");
  // The smallest change a wrong answer could show: one ulp of a total.
  Buffer& buffer = samples->back().buffer;
  buffer.total = std::nextafter(buffer.total, buffer.total + 1.0);
}

// ---- shared phase helpers ------------------------------------------------

OpenLoopClient::Options ClientOptions(const RunConfig& config) {
  OpenLoopClient::Options options;
  options.rate = config.query_rate;
  return options;
}

uint64_t ClientSeed(const RunConfig& config, int iteration) {
  return config.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(iteration);
}

void RecordClient(ClientResult* client, IterationResult* result) {
  result->layer["client.lateness_p99_us"] =
      Percentile(client->lateness_us, 0.99);
  result->layer["client.queries"] = static_cast<double>(client->queries);
  result->query_us = std::move(client->latency_us);
  if (!client->lag_ms.empty()) result->lag_ms = std::move(client->lag_ms);
}

// Writer-side numbers the registry accumulates during an ingest phase.
struct WriterTimes {
  double publish_s = 0.0;
  double batch_s = 0.0;
  double sync_s = 0.0;
  double snapshot_write_s = 0.0;
  double epochs = 0.0;

  static WriterTimes Now() {
    WriterTimes t;
    t.publish_s = RegistryWindow::HistSum("serve.snapshot_publish_ns") / 1e9;
    t.batch_s = RegistryWindow::HistSum("ingest.batch_ns") / 1e9;
    t.sync_s = RegistryWindow::HistSum("storage.sync_ns") / 1e9;
    t.snapshot_write_s =
        RegistryWindow::HistSum("storage.snapshot_write_ns") / 1e9;
    t.epochs = static_cast<double>(tinprov::obs::MetricsRegistry::Global()
                                       .GetCounter("serve.epochs_published")
                                       ->Value());
    return t;
  }
  WriterTimes Since(const WriterTimes& before) const {
    WriterTimes d;
    d.publish_s = publish_s - before.publish_s;
    d.batch_s = batch_s - before.batch_s;
    d.sync_s = sync_s - before.sync_s;
    d.snapshot_write_s = snapshot_write_s - before.snapshot_write_s;
    d.epochs = epochs - before.epochs;
    return d;
  }
};

// One ingest phase: Start() over interactions [begin, end) and
// WaitIngest(), with the open-loop client querying the latest epoch on
// its own thread when `with_client` is set.
struct IngestPhase {
  double seconds = 0.0;
  WriterTimes writer;
  ClientResult client;
};

IngestPhase Ingest(const RunConfig& config, int iteration, Setup& setup,
                   size_t begin, size_t end, bool with_client,
                   Tracer& tracer, bool traced, int root, const char* name) {
  ProvenanceService& service = *setup.service;
  IngestPhase phase;
  ScopedSpan span(tracer, name, "serve", root);
  const WriterTimes before = WriterTimes::Now();
  setup.pull_ns.assign(end - begin, 0);
  auto ingest = [&] {
    const int64_t start = NowNs();
    Status status = service.Start(
        std::make_unique<RangeStream>(setup.tin, begin, end, &setup.pull_ns));
    if (status.ok()) status = service.WaitIngest();
    Ops().Record(status.ok());
    Require(status, name);
    phase.seconds = NsToSeconds(NowNs() - start);
  };
  if (with_client) {
    OpenLoopClient client(
        ClientOptions(config),
        VertexPicker(service.num_vertices(), kZipfSkew,
                     ClientSeed(config, iteration)),
        [&service](QueryType type, VertexId v) {
          // The service started from empty state, so its epoch prefixes
          // count over the whole log, Catchup included.
          const tinprov::QueryResult result =
              type == QueryType::kTopOrigins ? service.TopOrigins(v, kTopK)
                                             : service.Provenance(v);
          Answer answer;
          answer.ok = result.status.ok();
          answer.prefix = result.epoch.prefix;
          answer.buffer = std::move(result.buffer);
          return answer;
        },
        [&service, begin] {
          const size_t prefix = service.LatestEpoch().prefix;
          return prefix > begin ? prefix - begin : 0;
        },
        &setup.pull_ns, traced ? &tracer : nullptr, span.id());
    std::thread thread([&] { phase.client = client.Run(end - begin); });
    ingest();
    client.Stop();
    thread.join();
  } else {
    ingest();
  }
  phase.writer = WriterTimes::Now().Since(before);
  // Split the writer's time by layer: fsyncs and snapshot files to
  // storage, tracker batches to policies; the rest (publishing, the
  // writer loop) stays with serve.
  tracer.Attribute(span.id(), "storage",
                   phase.writer.sync_s + phase.writer.snapshot_write_s);
  tracer.Attribute(span.id(), "policies",
                   std::max(0.0, phase.writer.batch_s - phase.writer.sync_s));
  return phase;
}

// The live phase's end-to-end and writer metrics; refuses a phase that
// published fewer than ten epochs.
void RecordLivePhase(const IngestPhase& phase, size_t interactions,
                     IterationResult* result) {
  if (phase.writer.epochs < 10.0) {
    Refuse("only " + std::to_string(phase.writer.epochs) +
           " epochs published while the client ran (need >= 10)");
  }
  result->e2e["ingest_rate"] = static_cast<double>(interactions) / phase.seconds;
  result->layer["serve.writer_s"] = phase.seconds;
  result->layer["serve.publish_s"] = phase.writer.publish_s;
  result->layer["serve.epochs"] = phase.writer.epochs;
  result->layer["serve.publish_share"] = phase.writer.publish_s / phase.seconds;
  result->layer["serve.batch_s"] = phase.writer.batch_s;
  result->layer["stream.ingest_s"] = phase.writer.batch_s;
}

double Bytes(const char* gauge) { return RegistryWindow::Gauge(gauge); }

void RecordServeMemory(double extra_logical, IterationResult* result) {
  const double serve_bytes = Bytes("memory.serve_log_bytes") +
                             Bytes("memory.serve_snapshot_bytes");
  const double logical =
      Bytes("memory.ingest_tracker_bytes") + serve_bytes + extra_logical;
  const double allocator = Bytes("memory.ingest_tracker_reserved_bytes") +
                           serve_bytes + extra_logical;
  result->layer["policies.live_bytes"] = Bytes("memory.ingest_tracker_bytes");
  result->layer["policies.reserved_bytes"] =
      Bytes("memory.ingest_tracker_reserved_bytes");
  result->layer["serve.snapshot_bytes"] = Bytes("memory.serve_snapshot_bytes");
  result->layer["serve.log_bytes"] = Bytes("memory.serve_log_bytes");
  result->layer["memory.logical_mb"] = logical / 1048576.0;
  result->layer["memory.allocator_mb"] = allocator / 1048576.0;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

// ---- replay-prop ---------------------------------------------------------
//
// The paper's proportional model offline: a Prop-sparse tracker built
// through TrackerRegistry drains the log through StreamIngestor on one
// thread; then the open-loop client queries the final tracker.

void ReplayProp(const RunConfig& config, int iteration, Setup& setup,
                Tracer& tracer, bool traced, int root,
                IterationResult* result) {
  const Tin& tin = setup.tin;
  Tracker& tracker = *setup.tracker;
  const RegistryWindow window;  // tracker.list_len covers this drain only
  const size_t n = tin.num_interactions();
  setup.pull_ns.assign(n, 0);
  TimedTracker timed(&tracker);
  const ProcStats before = ReadProcStats();
  const int64_t drain_start = NowNs();
  {
    ScopedSpan span(tracer, "stream.ingest", "stream", root);
    RangeStream stream(tin, 0, n, &setup.pull_ns);
    tinprov::StreamIngestor ingestor(traced ? &timed : &tracker);
    const Status status = ingestor.IngestAll(stream);
    Ops().Record(status.ok());
    Require(status, "offline ingest");
    Check(ingestor.stats().interactions == n, "offline ingest stopped early");
    tracer.Attribute(span.id(), "policies", timed.process_s());
  }
  const int64_t drain_end = NowNs();
  const ProcStats after = ReadProcStats();
  const double drain_s = NsToSeconds(drain_end - drain_start);
  // The offline tracker is not safe to read while it ingests, so the
  // client sees every interaction when the drain ends.
  std::vector<double> lag_ms(n);
  for (size_t i = 0; i < n; ++i) {
    lag_ms[i] = static_cast<double>(drain_end - setup.pull_ns[i]) / 1e6;
  }
  result->e2e["ingest_rate"] = static_cast<double>(n) / drain_s;
  // Offline, the whole log is the backlog: catching up is the drain.
  result->e2e["catchup_rate"] = result->e2e["ingest_rate"];
  result->lag_ms = std::move(lag_ms);

  result->layer["stream.ingest_s"] = drain_s;
  result->layer["policies.process_s"] = traced ? timed.process_s() : 0.0;
  result->layer["process.minor_faults"] = after.minor_faults - before.minor_faults;
  result->layer["process.sys_s"] = after.sys_s - before.sys_s;
  result->layer["policies.list_len_p99"] =
      RegistryWindow::HistPercentile("tracker.list_len", 0.99);
  const double live = static_cast<double>(tracker.MemoryUsage());
  const double reserved = static_cast<double>(tracker.MemoryBytes());
  result->layer["policies.live_bytes"] = live;
  result->layer["policies.reserved_bytes"] = reserved;
  result->layer["policies.reserved_per_live"] = reserved / std::max(1.0, live);
  result->layer["memory.logical_mb"] = live / 1048576.0;
  result->layer["memory.allocator_mb"] =
      std::max(reserved, Bytes("memory.pool_bytes")) / 1048576.0;

  // Query phase: the same open-loop client against the final tracker.
  ClientResult client;
  {
    ScopedSpan span(tracer, "client.offline_queries", "client", root);
    OpenLoopClient::Options options = ClientOptions(config);
    options.max_queries = static_cast<size_t>(config.query_rate *
                                              config.offline_query_seconds);
    OpenLoopClient loop(
        options,
        VertexPicker(tin.num_vertices(), kZipfSkew,
                     ClientSeed(config, iteration)),
        [&tracker, n](QueryType type, VertexId v) {
          Answer answer;
          answer.ok = true;
          answer.prefix = n;
          answer.buffer = type == QueryType::kTopOrigins
                              ? TopK(tracker.Provenance(v), kTopK)
                              : tracker.Provenance(v);
          return answer;
        },
        nullptr, nullptr, traced ? &tracer : nullptr, span.id());
    client = loop.Run(0);
  }
  RecordClient(&client, result);

  ScopedSpan verify(tracer, "verify", "bench", root, /*path=*/false);
  // The drained tracker is itself the stop-the-world replay at prefix n.
  MaybePerturb(config, &client.samples);
  for (const Sample& sample : client.samples) {
    Buffer expected = tracker.Provenance(sample.v);
    if (sample.type == QueryType::kTopOrigins) {
      expected = TopK(std::move(expected), kTopK);
    }
    Check(SameBuffer(expected, sample.buffer),
          "answer for vertex " + std::to_string(sample.v) +
              " differs from the drained tracker");
  }
  CheckConservation("final Prop-sparse tracker", tin, n,
                    [&tracker](VertexId v) { return tracker.Provenance(v); });
}

// ---- serve-live ----------------------------------------------------------
//
// A ProvenanceService over Grouped (group provenance): Catchup bulk-loads
// the first half with the default ParallelParams, then Start ingests the
// second half while the open-loop client queries the latest epoch.

void ServeLive(const RunConfig& config, int iteration, Setup& setup,
               Tracer& tracer, bool traced, int root,
               IterationResult* result) {
  const Tin& tin = setup.tin;
  ProvenanceService& service = *setup.service;
  const RegistryWindow window;
  const size_t n = tin.num_interactions();
  const size_t half = n / 2;

  // Catchup: the parallel layer's vertex-sharded bulk load.
  double catchup_s = 0.0;
  {
    ScopedSpan span(tracer, "service.catchup", "parallel", root);
    const WriterTimes before = WriterTimes::Now();
    const int64_t start = NowNs();
    const Status status =
        service.Catchup(std::make_unique<RangeStream>(tin, 0, half, nullptr));
    Ops().Record(status.ok());
    Require(status, "catchup");
    catchup_s = NsToSeconds(NowNs() - start);
    tracer.Attribute(span.id(), "serve",
                     WriterTimes::Now().Since(before).publish_s);
  }
  const double shards = RegistryWindow::Gauge("serve.catchup_shards");
  if (shards <= 1.0) {
    Refuse("Catchup did not shard (serve.catchup_shards = " +
           std::to_string(shards) + "); the workload needs >= 2 CPUs");
  }
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  result->e2e["catchup_rate"] = static_cast<double>(half) / catchup_s;
  result->layer["parallel.catchup_s"] = catchup_s;
  result->layer["parallel.shards"] = shards;
  result->layer["parallel.busy_share"] =
      window.Counter("parallel.shard_busy_ns") / 1e9 / (threads * catchup_s);
  result->layer["parallel.idle_s"] =
      window.Counter("parallel.worker_idle_ns") / 1e9;
  result->layer["parallel.steals"] = window.Counter("parallel.steals");

  IngestPhase live = Ingest(config, iteration, setup, half, n, true, tracer,
                            traced, root, "service.live_ingest");
  std::vector<Sample> samples = std::move(live.client.samples);
  RecordClient(&live.client, result);
  RecordLivePhase(live, n - half, result);
  result->layer["policies.list_len_p99"] =
      RegistryWindow::HistPercentile("tracker.list_len", 0.99);
  RecordServeMemory(0.0, result);

  ScopedSpan verify(tracer, "verify", "bench", root, /*path=*/false);
  if (traced) {
    // parallel.speedup: a sequential StreamIngestor over the same
    // backlog, against the sharded Catchup above.
    auto sequential = tinprov::TrackerRegistry::Global().Create(
        Spec("Grouped"), tin.Stats());
    Require(sequential.status(), "sequential baseline tracker");
    RangeStream backlog(tin, 0, half, nullptr);
    tinprov::StreamIngestor ingestor(sequential->get());
    const int64_t start = NowNs();
    Require(ingestor.IngestAll(backlog), "sequential baseline ingest");
    result->layer["parallel.speedup"] =
        NsToSeconds(NowNs() - start) / catchup_s;
  }
  MaybePerturb(config, &samples);
  CheckSamples("Grouped", tin, std::move(samples));
  CheckConservation("final Grouped epoch", tin, n, [&service](VertexId v) {
    return service.Provenance(v).buffer;
  });
}

// ---- durable-restart -----------------------------------------------------
//
// A durable ProvenanceService over LRB: phase 1 ingests 80% with the
// client running, phase 2 destroys the service and re-creates it on the
// same directory (recovery), phase 3 ingests the rest, and phase 4 runs
// closed-loop historical queries Provenance(v, t), t uniform over the
// whole stream.

void DurableRestart(const RunConfig& config, int iteration, Setup& setup,
                    Tracer& tracer, bool traced, int root,
                    IterationResult* result) {
  const Tin& tin = setup.tin;
  const RegistryWindow window;
  const size_t n = tin.num_interactions();
  const size_t n1 = n * 8 / 10;

  // Phase 1: durable ingest of the first 80% under the open-loop client.
  IngestPhase phase1 = Ingest(config, iteration, setup, 0, n1, true, tracer,
                              traced, root, "service.durable_ingest");
  std::vector<Sample> samples = std::move(phase1.client.samples);
  RecordClient(&phase1.client, result);
  RecordLivePhase(phase1, n1, result);
  result->layer["storage.sync_s"] = phase1.writer.sync_s;
  result->layer["storage.snapshot_write_s"] = phase1.writer.snapshot_write_s;
  result->layer["storage.snapshots_written"] =
      window.Counter("storage.snapshots_written");

  // Phase 2: restart. Re-creating the service on the directory runs
  // recovery and rebuilds the time-travel index.
  setup.service.reset();
  {
    ScopedSpan span(tracer, "service.recover", "serve", root);
    const double recovery_before = RegistryWindow::HistSum("storage.recovery_ns");
    const int64_t start = NowNs();
    setup.service = CreateService(config, iteration, tin.Stats());
    const double recover_s = NsToSeconds(NowNs() - start);
    const double recovery_s =
        (RegistryWindow::HistSum("storage.recovery_ns") - recovery_before) / 1e9;
    // Recovery proper reads the log and snapshots; the rest of the
    // re-creation rebuilds the lazy layer's time-travel index.
    tracer.Attribute(span.id(), "storage", recovery_s);
    tracer.Attribute(span.id(), "lazy", std::max(0.0, recover_s - recovery_s));
    result->layer["storage.recovery_s"] = recovery_s;
    result->layer["serve.recover_s"] = recover_s;
    result->e2e["catchup_rate"] = static_cast<double>(n1) / recover_s;
  }
  ProvenanceService& service = *setup.service;
  const double recovered = RegistryWindow::Gauge("storage.recovered_interactions");
  if (recovered != static_cast<double>(n1)) {
    Refuse("recovered prefix " + std::to_string(recovered) +
           " differs from the durable prefix " + std::to_string(n1));
  }
  result->layer["storage.recovery_replayed"] =
      RegistryWindow::Gauge("storage.recovery_replayed");
  result->layer["lazy.save_s"] = RegistryWindow::HistSum("timetravel.save_ns") / 1e9;
  {
    // The recovered state against a clean replay of the durable prefix.
    ScopedSpan span(tracer, "verify.recovered", "bench", root, /*path=*/false);
    auto reference = tinprov::TrackerRegistry::Global().Create(Spec("LRB"),
                                                               tin.Stats());
    Require(reference.status(), "reference tracker");
    for (size_t i = 0; i < n1; ++i) {
      Require((*reference)->Process(tin.interactions()[i]), "reference replay");
    }
    for (VertexId v = 0; v < tin.num_vertices(); ++v) {
      Buffer served = service.Provenance(v).buffer;
      if (config.perturb && v == 0) {
        served.total = std::nextafter(served.total, served.total + 1.0);
      }
      Check(SameBuffer((*reference)->Provenance(v), served),
            "recovered state differs from a clean replay of the durable "
            "prefix at vertex " + std::to_string(v));
    }
  }

  // Phase 3: the last 20%, durably.
  const IngestPhase phase3 = Ingest(config, iteration, setup, n1, n, false,
                                    tracer, traced, root,
                                    "service.resume_ingest");
  result->layer["serve.resume_rate"] =
      static_cast<double>(n - n1) / phase3.seconds;
  result->layer["storage.bytes_per_interaction"] =
      DirectoryBytes(IterationDir(config, iteration)) / static_cast<double>(n);

  // Phase 4: closed-loop historical queries.
  const double restore_before = RegistryWindow::HistSum("timetravel.restore_ns");
  const double replay_before = RegistryWindow::HistSum("serve.historical_replay_ns");
  const double restores_before = window.Counter("timetravel.restores");
  const double delta_before = window.Counter("timetravel.delta_interactions");
  const Timestamp handoff = tin.interactions()[n1 - 1].t;
  const Timestamp t_first = tin.interactions().front().t;
  const Timestamp t_last = tin.interactions().back().t;
  std::vector<double> hist_ms;
  double hist_total_s = 0.0;
  {
    ScopedSpan span(tracer, "client.history_queries", "client", root);
    VertexPicker picker(tin.num_vertices(), kZipfSkew,
                        ClientSeed(config, iteration) ^ 0x5bd1e995ULL);
    tinprov::Rng times(ClientSeed(config, iteration) + 17);
    // Traced iterations report the historical-query percentiles; the
    // untraced ones issue enough queries for the check and a pooled
    // table figure (>= 200 over a run).
    const size_t queries = traced ? config.hist_queries
                                  : (config.hist_queries + 3) / 4;
    for (size_t q = 0; q < queries; ++q) {
      const VertexId v = picker.Next();
      const Timestamp t = t_first + times.NextDouble() * (t_last - t_first);
      const int query_span = tracer.Begin(
          "provenance_at", t < handoff ? "lazy" : "serve", span.id());
      const int64_t start = NowNs();
      tinprov::QueryResult answer = service.Provenance(v, t);
      const int64_t end = NowNs();
      tracer.End(query_span);
      Ops().Record(answer.status.ok());
      hist_ms.push_back(static_cast<double>(end - start) / 1e6);
      hist_total_s += NsToSeconds(end - start);
      if (answer.status.ok() && q % 4 == 0) {
        Sample sample;
        sample.type = QueryType::kProvenanceAt;
        sample.v = v;
        sample.t = t;
        sample.prefix = PrefixAt(tin, t);
        sample.buffer = std::move(answer.buffer);
        samples.push_back(std::move(sample));
      }
    }
  }
  result->layer["client.hist_queries"] = static_cast<double>(hist_ms.size());
  result->hist_ms = std::move(hist_ms);
  result->layer["serve.history_replay_share"] =
      (RegistryWindow::HistSum("serve.historical_replay_ns") - replay_before) /
      1e9 / hist_total_s;
  result->layer["serve.delta_interactions_p50"] =
      RegistryWindow::HistPercentile("serve.delta_interactions", 0.50);
  result->layer["lazy.restores"] =
      window.Counter("timetravel.restores") - restores_before;
  result->layer["lazy.restore_s"] =
      (RegistryWindow::HistSum("timetravel.restore_ns") - restore_before) / 1e9;
  result->layer["lazy.delta_interactions"] =
      window.Counter("timetravel.delta_interactions") - delta_before;
  const double index_bytes = Bytes("memory.timetravel_bytes");
  result->layer["lazy.index_bytes"] = index_bytes;
  RecordServeMemory(index_bytes, result);

  ScopedSpan verify(tracer, "verify", "bench", root, /*path=*/false);
  MaybePerturb(config, &samples);
  CheckSamples("LRB", tin, std::move(samples));
  CheckConservation("final LRB epoch", tin, n, [&service](VertexId v) {
    return service.Provenance(v).buffer;
  });
}

}  // namespace

uint64_t DatasetSeed(uint64_t run_seed, int index) {
  // splitmix64 of (seed, index): neighbouring seeds share no dataset.
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) +
               0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool KnownWorkload(const std::string& name) {
  return name == "replay-prop" || name == "serve-live" ||
         name == "durable-restart";
}

double SetupOnce(const RunConfig& config, int iteration) {
  Tracer off(false, 0);
  const double seconds = SetUp(config, iteration, off, -1).seconds;
  std::filesystem::remove_all(IterationDir(config, iteration));
  return seconds;
}

IterationResult RunIteration(const RunConfig& config, int iteration,
                             Tracer& tracer, bool traced) {
  // Hand freed heap back to the kernel so the high-water mark below
  // starts from this iteration's own footprint.
  malloc_trim(0);
  ResetPeakRss();
  IterationResult result;
  const int root = tracer.Begin("iteration", "bench", -1);
  {
    Setup setup = SetUp(config, iteration, tracer, root);
    result.e2e["setup_s"] = setup.seconds;
    result.layer["datagen.generate_s"] = setup.generate_s;
    if (config.workload == "replay-prop") {
      ReplayProp(config, iteration, setup, tracer, traced, root, &result);
    } else if (config.workload == "serve-live") {
      ServeLive(config, iteration, setup, tracer, traced, root, &result);
    } else {
      DurableRestart(config, iteration, setup, tracer, traced, root, &result);
    }
  }
  std::filesystem::remove_all(IterationDir(config, iteration));
  tracer.End(root);
  const double peak = PeakRssMb();
  result.e2e["peak_rss_mb"] = peak;
  result.layer["memory.rss_mb"] = peak;
  return result;
}

}  // namespace perfbench
