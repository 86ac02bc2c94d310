#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "obs/health.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "parallel/sharded_replay.h"
#include "util/cpu.h"

namespace tinprov {

namespace {

bool TopOriginOrder(const ProvPair& a, const ProvPair& b) {
  if (a.quantity != b.quantity) return a.quantity > b.quantity;
  return a.origin < b.origin;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kProvenance:
      return "provenance";
    case QueryKind::kProvenanceAt:
      return "provenance_at";
    case QueryKind::kTopOrigins:
      return "top_origins";
  }
  return "unknown";
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

/// The immutable state one atomic publish makes visible: the newest
/// epoch and the history copy it was published with. Readers pin a
/// view with atomic_load and may then use everything it references for
/// as long as they hold the shared_ptr; the writer never mutates a
/// published view, it builds a successor and swaps the pointer.
struct ProvenanceService::EpochView {
  EpochInfo info;
  std::shared_ptr<const std::vector<uint8_t>> state;  // SaveState image
  std::shared_ptr<const Tracker> tracker;  // `state` restored, read-only

  /// The writer's history as of this publish: the seeded history, then
  /// (with retention on) every interaction up to the epoch's prefix and
  /// every epoch's byte image.
  CheckpointedLog log;
};

/// One-slot parking place for the reader tracker of a superseded
/// epoch. Epoch trackers are shared with a deleter that parks them here
/// instead of destroying them, and the next publish restores into the
/// parked one instead of building a fresh tracker. The deleter runs on
/// whichever thread drops the last reference — the writer replacing the
/// view, or a reader unpinning an old one — hence the mutex. A tracker
/// arriving while the slot is full is destroyed, outside the lock.
class ProvenanceService::TrackerSpare {
 public:
  void Park(Tracker* tracker) {
    // Declared before the guard, so a tracker the full slot turns away
    // is destroyed after the unlock.
    std::unique_ptr<Tracker> owned(tracker);
    std::lock_guard<std::mutex> lock(mu_);
    if (spare_ == nullptr) spare_ = std::move(owned);
  }

  std::unique_ptr<Tracker> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spare_);
  }

 private:
  std::mutex mu_;
  std::unique_ptr<Tracker> spare_;
};

/// Tee stream the writer wraps its source in: every pulled interaction
/// is appended to the service's history before the ingestor sees it,
/// so the published log always covers the applied prefix.
class ProvenanceService::LogSink : public InteractionStream {
 public:
  LogSink(ProvenanceService* service, InteractionStream* inner)
      : service_(service), inner_(inner) {}

  bool Next(Interaction* out) override {
    if (!inner_->Next(out)) return false;
    service_->AppendLog(*out);
    return true;
  }

  DatasetStats Stats() const override { return inner_->Stats(); }

 private:
  ProvenanceService* service_;
  InteractionStream* inner_;
};

StatusOr<std::unique_ptr<ProvenanceService>> ProvenanceService::Create(
    const TrackerSpec& spec, const DatasetStats& stats, ServeOptions options,
    CheckpointedLog history) {
  auto factory = TrackerRegistry::Global().Factory(spec, stats);
  if (!factory.ok()) return factory.status();
  std::unique_ptr<ProvenanceService> service(
      new ProvenanceService(*std::move(factory), spec, stats, options));

  // The live tracker starts from the final state of the seeded history
  // (log_): the directory's, replayed by recovery, or the handoff log's.
  if (options.durability.Enabled()) {
    if (!history.empty()) {
      return Status::InvalidArgument(
          "pass one source of pre-ingest history: a durable service "
          "recovers it from its directory — drop the handoff log");
    }
    storage::Env* env = options.durability.env != nullptr
                            ? options.durability.env
                            : storage::Env::Posix();
    storage::RecoveryManager manager(env, options.durability.dir);
    auto recovered = manager.Recover(service->factory_);
    if (!recovered.ok()) return recovered.status();
    Status status = manager.DiscardUntrusted(*recovered);
    if (!status.ok()) return status;
    auto log = storage::DurableLog::Open(env, options.durability.dir,
                                         recovered->prefix,
                                         recovered->next_seq,
                                         options.durability.log);
    if (!log.ok()) return log.status();
    service->durable_ = *std::move(log);
    service->live_tracker_ = std::move(recovered->tracker);
    service->log_ = std::move(recovered->log);
    service->resume_watermark_ = recovered->watermark;
  } else {
    auto tracker = history.Replay(service->factory_, history.size());
    if (!tracker.ok()) {
      return Status(tracker.status().code(),
                    "replaying the handoff history (is the spec configured "
                    "like the history's trackers?): " +
                        tracker.status().message());
    }
    service->live_tracker_ = *std::move(tracker);
    if (!history.empty()) {
      service->resume_watermark_ = history[history.size() - 1].t;
    }
    service->log_ = std::move(history);
  }
  service->prefix_base_ = service->log_.size();
  const Status status = service->Init();
  if (!status.ok()) return status;
  return service;
}

ProvenanceService::ProvenanceService(TrackerFactory factory, TrackerSpec spec,
                                     const DatasetStats& stats,
                                     const ServeOptions& options)
    : factory_(std::move(factory)),
      tracker_spec_(std::move(spec)),
      stats_(stats),
      options_(options),
      spare_(std::make_shared<TrackerSpare>()) {
  if (options_.epoch_interval == 0) options_.epoch_interval = 1;
  if (options_.ingest_batch == 0) options_.ingest_batch = 1;
  pool_ = std::make_unique<QueryWorkerPool>(
      [this](const QueryRequest& request) { return Execute(request); },
      options_.num_query_threads);
}

ProvenanceService::~ProvenanceService() {
  // The ops plane reads `this` from its accept thread; take it down
  // before the state it snapshots goes away.
  DisableOpsServer();
  // Workers execute through `this`; stop them before anything else.
  pool_.reset();
#if !defined(TINPROV_NO_THREADS)
  if (writer_.joinable()) writer_.join();
#endif
}

Status ProvenanceService::Init() {
  live_tracker_->ReserveHint({stats_.num_vertices, stats_.num_interactions});
  // Epoch 0: the pre-ingest state, published before any reader or the
  // writer exists, so latest_ is never null and a plain store suffices.
  auto view = BuildView(prefix_base_, resume_watermark_);
  if (!view.ok()) return view.status();
  latest_ = *std::move(view);
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  TINPROV_GAUGE_SET("memory.serve_log_bytes", log_.log_bytes());
  TINPROV_GAUGE_SET("memory.serve_snapshot_bytes", log_.checkpoint_bytes());
  return Status::Ok();
}

StatusOr<std::shared_ptr<const ProvenanceService::EpochView>>
ProvenanceService::BuildView(size_t prefix, Timestamp watermark) {
  auto state = std::make_shared<std::vector<uint8_t>>();
  // Images grow slowly between epochs: sized from the last one, the
  // save below fills the buffer without regrowing it.
  state->reserve(last_state_bytes_ + last_state_bytes_ / 8);
  live_tracker_->SaveState(state.get());
  last_state_bytes_ = state->size();
  auto restored = RestoreEpochTracker(*state);
  if (!restored.ok()) {
    return Status(restored.status().code(),
                  "restoring epoch " + std::to_string(next_seq_) +
                      " state: " + restored.status().message());
  }

  auto view = std::make_shared<EpochView>();
  view->info.seq = next_seq_++;
  view->info.prefix = prefix;
  view->info.watermark = watermark;
  view->tracker = *std::move(restored);
  view->state = std::move(state);
  if (options_.retain_history) log_.AddCheckpoint(prefix, view->state);
  view->log = log_;
  return std::shared_ptr<const EpochView>(std::move(view));
}

StatusOr<std::shared_ptr<const Tracker>>
ProvenanceService::RestoreEpochTracker(const std::vector<uint8_t>& state) {
  std::unique_ptr<Tracker> tracker = spare_->Take();
  const bool reused = tracker != nullptr;
  if (!reused) tracker = factory_();
  if (tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  const Status status = tracker->RestoreState(state);
  if (!status.ok()) return status;
  if (reused) TINPROV_COUNTER_ADD("serve.tracker_reuses", 1);
  std::shared_ptr<TrackerSpare> spare = spare_;
  return std::shared_ptr<const Tracker>(
      tracker.release(),
      [spare = std::move(spare)](Tracker* parked) { spare->Park(parked); });
}

void ProvenanceService::AppendLog(const Interaction& interaction) {
  if (options_.retain_history) log_.Append(interaction);
}

Status ProvenanceService::PublishEpoch(size_t prefix, Timestamp watermark) {
  TINPROV_SCOPED_LATENCY_NS("serve.snapshot_publish_ns");
  obs::TraceSpan span("serve.publish_epoch", "serve");

  auto view = BuildView(prefix, watermark);
  if (!view.ok()) return view.status();
  const std::shared_ptr<const std::vector<uint8_t>> state = (*view)->state;
  // Readers keep pinning the old view until this store; when the last
  // one lets go, its reader tracker parks as the next publish's spare.
  std::atomic_store_explicit(&latest_, *std::move(view),
                             std::memory_order_release);

  TINPROV_COUNTER_ADD("serve.epochs_published", 1);
  TINPROV_HISTOGRAM_OBSERVE("serve.epoch_age_ns",
                            since_publish_.ElapsedNanos());
  since_publish_.Restart();
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  TINPROV_GAUGE_SET("serve.epoch_seq", next_seq_ - 1);
  TINPROV_GAUGE_SET("serve.epoch_prefix", prefix);
  TINPROV_GAUGE_SET("memory.serve_log_bytes", log_.log_bytes());
  TINPROV_GAUGE_SET("memory.serve_snapshot_bytes", log_.checkpoint_bytes());
  TINPROV_GAUGE_SET("memory.serve_epoch_state_bytes", state->size());

  // Epoch published → snapshot persisted at the epoch's prefix, which
  // is its durable log position. WriteSnapshot syncs the segment log
  // first, so a snapshot on disk is always backed by a durable log at
  // least as long. Under kFailStop an error surfaces as the ingest
  // status; under kDegrade the log absorbed it and flipped the
  // storage.durability health check.
  if (durable_ != nullptr) {
    const Status durable_status =
        durable_->WriteSnapshot(prefix, watermark, *state);
    if (!durable_status.ok()) return durable_status;
  }
  return Status::Ok();
}

namespace {

/// BatchSink adapter: applied micro-batches flow into the durable log.
class DurableBatchSink : public BatchSink {
 public:
  explicit DurableBatchSink(storage::DurableLog* log) : log_(log) {}

  Status OnBatch(const Interaction* batch, size_t count) override {
    return log_->Append(batch, count);
  }

 private:
  storage::DurableLog* log_;
};

}  // namespace

Status ProvenanceService::RunIngest() {
  obs::TraceSpan span("serve.ingest", "serve");
  LogSink sink(this, stream_.get());
  DurableBatchSink durable_sink(durable_.get());
  IngestOptions ingest_options;
  ingest_options.batch_size = std::min(options_.ingest_batch,
                                       options_.epoch_interval);
  ingest_options.initial_watermark = resume_watermark_;
  if (durable_ != nullptr) ingest_options.sink = &durable_sink;
  StreamIngestor ingestor(live_tracker_.get(), ingest_options);

  size_t last_published = 0;
  bool done = false;
  while (!done) {
    Status status = ingestor.IngestBatch(sink, &done);
    if (!status.ok()) {
      final_ingest_stats_ = ingestor.stats();
      return status;
    }
    const IngestStats& stats = ingestor.stats();
    if (stats.interactions - last_published >= options_.epoch_interval) {
      last_published = stats.interactions;
      status = PublishEpoch(prefix_base_ + stats.interactions,
                            std::max(stats.watermark, resume_watermark_));
      if (!status.ok()) {
        final_ingest_stats_ = stats;
        return status;
      }
    }
  }
  final_ingest_stats_ = ingestor.stats();
  if (final_ingest_stats_.interactions != last_published) {
    // Final epoch: every applied interaction visible to readers.
    const Status status = PublishEpoch(
        prefix_base_ + final_ingest_stats_.interactions,
        std::max(final_ingest_stats_.watermark, resume_watermark_));
    if (!status.ok()) return status;
  }
  if (durable_ != nullptr) {
    // Clean drain: footer + fsync, so the next recovery reads a sealed
    // segment instead of trusting-then-truncating an open tail.
    const Status status = durable_->Seal();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ProvenanceService::Catchup(std::unique_ptr<InteractionStream> stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("null catchup stream");
  }
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("catchup must run before Start()");
  }
  if (caught_up_) {
    return Status::FailedPrecondition("service already caught up");
  }
  if (durable_ != nullptr) {
    return Status::FailedPrecondition(
        "catchup bypasses the durable log — run it with durability off and "
        "seed the directory separately");
  }
  if (prefix_base_ != 0) {
    return Status::FailedPrecondition(
        "catchup starts from empty state; a handoff log already carries "
        "the history");
  }
  obs::TraceSpan span("serve.catchup", "serve");

  auto sharded = TrackerRegistry::Global().Sharded(tracker_spec_, stats_);
  if (!sharded.ok()) return sharded.status();
  ShardedReplayEngine engine(*std::move(sharded), options_.catchup);
  // The tee keeps the retained log covering the catchup range, so
  // historical delta replays work across it; the engine's producer runs
  // on this thread, which owns the writer-side state until Start().
  LogSink sink(this, stream.get());
  Stopwatch watch;
  auto result = engine.ReplayStream(sink);
  if (!result.ok()) return result.status();

  live_tracker_ = std::move(result->tracker);
  catchup_stats_.interactions = result->interactions_replayed;
  catchup_stats_.watermark = result->watermark;
  catchup_stats_.tracker_peak_memory = live_tracker_->MemoryUsage();
  catchup_stats_.seconds = watch.ElapsedSeconds();
  caught_up_ = true;
  prefix_base_ = catchup_stats_.interactions;
  resume_watermark_ = std::max(resume_watermark_, catchup_stats_.watermark);
  TINPROV_COUNTER_ADD("serve.catchup_interactions",
                      catchup_stats_.interactions);
  TINPROV_GAUGE_SET("serve.catchup_shards", result->num_shards);
  // Readers see the caught-up state the moment this returns.
  return PublishEpoch(prefix_base_, resume_watermark_);
}

Status ProvenanceService::Start(std::unique_ptr<InteractionStream> stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("null ingest stream");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("service already started");
  }
  stream_ = std::move(stream);
  since_publish_.Restart();
#if defined(TINPROV_NO_THREADS)
  ingest_status_ = RunIngest();
  ingest_done_.store(true, std::memory_order_release);
#else
  writer_ = std::thread([this] {
    ingest_status_ = RunIngest();
    ingest_done_.store(true, std::memory_order_release);
  });
#endif
  return Status::Ok();
}

Status ProvenanceService::WaitIngest() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service not started");
  }
#if !defined(TINPROV_NO_THREADS)
  if (writer_.joinable()) writer_.join();
#endif
  ingest_joined_ = true;
  return ingest_status_;
}

EpochInfo ProvenanceService::LatestEpoch() const {
  return PinView()->info;
}

std::shared_ptr<const std::vector<uint8_t>>
ProvenanceService::LatestEpochState() const {
  return PinView()->state;
}

QueryResult ProvenanceService::Provenance(VertexId v) const {
  TINPROV_SCOPED_LATENCY_NS("serve.query_ns");
  TINPROV_COUNTER_ADD("serve.queries", 1);
  return ProvenanceIn(*PinView(), v);
}

QueryResult ProvenanceService::ProvenanceIn(const EpochView& view,
                                            VertexId v) const {
  QueryResult result;
  result.epoch = view.info;
  if (v >= stats_.num_vertices) {
    result.status = Status::InvalidArgument("query vertex " +
                                            std::to_string(v) +
                                            " out of range");
    return result;
  }
  result.buffer = view.tracker->Provenance(v);
  return result;
}

QueryResult ProvenanceService::TopOrigins(VertexId v, size_t k) const {
  QueryResult result = Provenance(v);
  if (!result.status.ok()) return result;
  std::vector<ProvPair>& entries = result.buffer.entries;
  if (k < entries.size()) {
    std::partial_sort(entries.begin(), entries.begin() + k, entries.end(),
                      TopOriginOrder);
    entries.resize(k);
  } else {
    std::sort(entries.begin(), entries.end(), TopOriginOrder);
  }
  return result;
}

QueryResult ProvenanceService::Provenance(VertexId v, Timestamp t) const {
  TINPROV_SCOPED_LATENCY_NS("serve.query_ns");
  TINPROV_COUNTER_ADD("serve.queries", 1);
  return ProvenanceAt(v, t);
}

QueryResult ProvenanceService::ProvenanceAt(VertexId v, Timestamp t) const {
  QueryResult result;
  const std::shared_ptr<const EpochView> view = PinView();
  result.epoch = view->info;
  if (v >= stats_.num_vertices) {
    result.status = Status::InvalidArgument("query vertex " +
                                            std::to_string(v) +
                                            " out of range");
    return result;
  }

  // The prefix t resolves to: the epoch's own for t at or past its
  // watermark (the fast path); else the history's, when it holds the
  // whole published prefix (retention on) or t falls inside its seeded
  // part; else none (past the published prefix).
  const CheckpointedLog& log = view->log;
  const EpochInfo& info = view->info;
  size_t target = info.prefix + 1;
  if (t >= info.watermark) {
    target = info.prefix;
  } else if (log.size() >= info.prefix ||
             (!log.empty() && t < log[log.size() - 1].t)) {
    target = log.UpperBound(t);
  }
  if (target == info.prefix) {
    result.buffer = view->tracker->Provenance(v);
    return result;
  }

  if (target > info.prefix) {
    result.status = Status::FailedPrecondition(
        "historical query at t=" + std::to_string(t) +
        " needs history retention (ServeOptions::retain_history) or a "
        "handoff log");
    return result;
  }

  // Nearest snapshot at or before the target, then delta replay of the
  // pinned history. With retention on every epoch's image is a
  // snapshot, so a target at an older epoch's prefix restores that
  // image and replays nothing.
  TINPROV_COUNTER_ADD("serve.historical_replays", 1);
  TINPROV_SCOPED_LATENCY_NS("serve.historical_replay_ns");
  size_t replayed = 0;
  auto tracker = log.Replay(factory_, target, &replayed);
  if (!tracker.ok()) {
    result.status = tracker.status();
    return result;
  }
  TINPROV_HISTOGRAM_OBSERVE("serve.delta_interactions", replayed);
  result.replayed_interactions = replayed;
  result.buffer = (*tracker)->Provenance(v);
  return result;
}

QueryResult ProvenanceService::Dispatch(const QueryRequest& request) const {
  switch (request.kind) {
    case QueryKind::kProvenance:
      return Provenance(request.v);
    case QueryKind::kProvenanceAt:
      return Provenance(request.v, request.t);
    case QueryKind::kTopOrigins:
      return TopOrigins(request.v, request.k);
  }
  QueryResult result;
  result.status = Status::InvalidArgument("unknown query kind");
  return result;
}

QueryResult ProvenanceService::Execute(const QueryRequest& request) const {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  const uint64_t id = log.NextQueryId();
  const Stopwatch watch;
  QueryResult result = Dispatch(request);
  result.query_id = id;
  const int64_t latency_ns = watch.ElapsedNanos();
  if (options_.slow_query_ns > 0 && latency_ns >= options_.slow_query_ns) {
    obs::SlowQueryRecord record;
    record.query_id = id;
    record.kind = QueryKindName(request.kind);
    record.vertex = request.v;
    record.latency_ns = latency_ns;
    record.replayed_interactions = result.replayed_interactions;
    record.epoch_seq = result.epoch.seq;
    record.epoch_prefix = result.epoch.prefix;
    log.Record(record);
    TINPROV_COUNTER_ADD("serve.slow_queries", 1);
  }
  return result;
}

std::future<QueryResult> ProvenanceService::Submit(QueryRequest request) {
  return pool_->Submit(request);
}

double ProvenanceService::EpochAgeSeconds() const {
  const int64_t last = last_publish_ns_.load(std::memory_order_relaxed);
  if (last == 0) return 0.0;  // Init hasn't published epoch 0 yet
  return static_cast<double>(SteadyNowNs() - last) / 1e9;
}

std::string ProvenanceService::StatuszJson() const {
  // The epoch block is read the way a query reads it — one pinned view —
  // so the page is consistent with what any concurrent reader sees.
  const std::shared_ptr<const EpochView> view = PinView();
  const EpochInfo epoch = view->info;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();

  std::string out = "{\"service\":{\"uptime_s\":";
  out += JsonDouble(uptime_.ElapsedSeconds());
  out += ",\"num_vertices\":" + std::to_string(stats_.num_vertices);
  out += ",\"query_threads\":" + std::to_string(pool_->num_threads());
  out += "},\"epoch\":{\"seq\":" + std::to_string(epoch.seq);
  out += ",\"prefix\":" + std::to_string(epoch.prefix);
  out += ",\"watermark\":" + JsonDouble(epoch.watermark);
  out += ",\"age_s\":" + JsonDouble(EpochAgeSeconds());
  out += "},\"ingest\":{\"done\":";
  out += IngestDone() ? "true" : "false";
  out += ",\"watermark\":" +
         JsonDouble(registry.GetGauge("ingest.watermark")->Value());
  out += ",\"watermark_lag\":" +
         JsonDouble(registry.GetGauge("ingest.watermark_lag")->Value());
  out += ",\"interactions\":" +
         std::to_string(registry.GetCounter("ingest.interactions")->Value());
  out += ",\"interactions_per_s\":" +
         JsonDouble(ops_recorder_ != nullptr
                        ? ops_recorder_->Rate("ingest.interactions")
                        : 0.0);
  out += "},\"queries\":{\"executed\":" +
         std::to_string(registry.GetCounter("serve.queries")->Value());
  out += ",\"submitted\":" +
         std::to_string(registry.GetCounter("serve.queries_submitted")->Value());
  out += ",\"per_s\":" + JsonDouble(ops_recorder_ != nullptr
                                        ? ops_recorder_->Rate("serve.queries")
                                        : 0.0);
  out += ",\"slow_recorded\":" + std::to_string(slow.recorded());
  // The runtime block: which kernel table this process dispatches to
  // (fixed at startup; see util/cpu.h) and the host's thread count.
  out += "},\"runtime\":{\"simd\":\"";
  out += cpu::SimdLevelName(cpu::ActiveSimdLevel());
  out += "\",\"simd_detected\":\"";
  out += cpu::SimdLevelName(cpu::DetectSimdLevel());
  out += "\",\"avx512\":";
  out += cpu::DetectAvx512() ? "true" : "false";
  out += ",\"num_threads\":" + std::to_string(HardwareThreads());
  out += "},\"memory\":{\"total_bytes\":" + JsonDouble(registry.MemoryBytes());
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("memory.", 0) != 0) continue;
    out += ",\"" + name + "\":" + JsonDouble(value);
  }
  out += "},\"storage\":{\"enabled\":";
  out += durable_ != nullptr ? "true" : "false";
  if (durable_ != nullptr) {
    // prefix/degraded come straight from DurableLog's atomics (safe
    // from this ops thread, and truthful even when TINPROV_METRICS=OFF
    // compiles the gauge mirrors away); the counters are registry-only
    // best-effort stats.
    out += ",\"durable_prefix\":" +
           std::to_string(durable_->prefix());
    out += ",\"degraded\":";
    out += durable_->degraded() ? "true" : "false";
    out += ",\"segments_sealed\":" +
           std::to_string(
               registry.GetCounter("storage.segments_sealed")->Value());
    out += ",\"snapshots_written\":" +
           std::to_string(
               registry.GetCounter("storage.snapshots_written")->Value());
    out += ",\"bytes_written\":" +
           std::to_string(registry.GetCounter("storage.bytes_written")->Value());
    out += ",\"recovered_interactions\":" +
           JsonDouble(
               registry.GetGauge("storage.recovered_interactions")->Value());
  }
  out += "},\"recorder\":{\"samples\":" +
         std::to_string(ops_recorder_ != nullptr ? ops_recorder_->num_samples()
                                                 : 0);
  out += ",\"window_s\":" +
         JsonDouble(ops_recorder_ != nullptr ? ops_recorder_->WindowSeconds()
                                             : 0.0);
  out += "}}";
  return out;
}

StatusOr<uint16_t> ProvenanceService::EnableOpsServer(uint16_t port) {
#if defined(TINPROV_NO_THREADS)
  (void)port;
  return Status::FailedPrecondition(
      "ops server needs threads (built with TINPROV_PARALLEL=OFF)");
#else
  if (ops_server_ != nullptr) {
    return Status::FailedPrecondition("ops server already enabled");
  }

  obs::RecorderOptions recorder_options;
  recorder_options.interval_ms = options_.ops_recorder_interval_ms;
  recorder_options.capacity = options_.ops_recorder_capacity;
  auto recorder = std::make_unique<obs::Recorder>(recorder_options);
  Status status = recorder->Start();
  if (!status.ok()) return status;

  // The health catalogue, thresholds from ServeOptions. Checks run on
  // the ops server's accept thread; everything they touch is either a
  // registry gauge or an atomic on `this` (torn down in
  // DisableOpsServer before `this` dies).
  obs::HealthRegistry& health = obs::HealthRegistry::Global();
  health.Register("serve.epoch_age", [this] {
    obs::HealthResult result;
    result.value = EpochAgeSeconds();
    result.healthy =
        IngestDone() || result.value <= options_.health_max_epoch_age_s;
    result.message =
        "epoch age " + std::to_string(result.value) + "s (limit " +
        std::to_string(options_.health_max_epoch_age_s) +
        (IngestDone() ? "s, ingest done)" : "s while ingesting)");
    return result;
  });
  health.Register("serve.queue_depth",
                  obs::GaugeAtMostCheck("serve.queue_depth",
                                        options_.health_max_queue_depth));
  RegisterIngestHealthChecks(health, options_.health_max_watermark_lag);
  health.Register("trace.drops", [] {
    obs::HealthResult result;
    result.value = static_cast<double>(obs::TraceSink::Global().dropped_events());
    result.healthy = result.value == 0.0;
    result.message = "trace ring dropped " +
                     std::to_string(static_cast<size_t>(result.value)) +
                     " events";
    return result;
  });
  health.Register("tracker.alpha_residue",
                  obs::GaugeAtMostCheck("tracker.alpha_residue",
                                        options_.health_max_alpha_residue));
  health_checks_ = {"serve.epoch_age", "serve.queue_depth",
                    "ingest.watermark_lag", "trace.drops",
                    "tracker.alpha_residue"};
  if (durable_ != nullptr) {
    // storage.durability: healthy while the log has not degraded to
    // memory. Reads DurableLog::degraded() (an atomic latched by the
    // ingest thread) directly rather than the gauge mirror, so the
    // check works in TINPROV_METRICS=OFF builds too; `durable_`
    // outlives the check (unregistered in DisableOpsServer).
    storage::DurableLog* log = durable_.get();
    health.Register("storage.durability", [log] {
      obs::HealthResult result;
      result.value = log->degraded() ? 1.0 : 0.0;
      result.healthy = !log->degraded();
      result.message =
          log->degraded()
              ? "log degraded to memory-only after a storage failure"
              : "appending at prefix " + std::to_string(log->prefix());
      return result;
    });
    // storage.segment_corrupt: any checksum-mismatched record seen by
    // recovery means bit rot on this disk — surface it even though
    // recovery itself carried on.
    health.Register("storage.segment_corrupt", [] {
      obs::HealthResult result;
      result.value = static_cast<double>(obs::MetricsRegistry::Global()
                                             .GetCounter(
                                                 "storage.segment_corrupt")
                                             ->Value());
      result.healthy = result.value == 0.0;
      result.message =
          "recovery saw " +
          std::to_string(static_cast<uint64_t>(result.value)) +
          " corrupt segment record(s)";
      return result;
    });
    const uint64_t min_free = options_.durability.min_free_disk_bytes;
    storage::Env* env = durable_->env();
    const std::string dir = durable_->dir();
    health.Register("storage.disk_headroom", [env, dir, min_free] {
      obs::HealthResult result;
      auto free_bytes = env->FreeDiskBytes(dir);
      result.value =
          free_bytes.ok() ? static_cast<double>(*free_bytes) : 0.0;
      result.healthy = free_bytes.ok() && *free_bytes >= min_free;
      result.message =
          free_bytes.ok()
              ? std::to_string(*free_bytes) + " bytes free (floor " +
                    std::to_string(min_free) + ")"
              : "statvfs failed: " + std::string(free_bytes.status().message());
      return result;
    });
    health_checks_.push_back("storage.durability");
    health_checks_.push_back("storage.segment_corrupt");
    health_checks_.push_back("storage.disk_headroom");
  }

  auto server = std::make_unique<obs::OpsServer>();
  server->SetHandler("/statusz", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson();
    return response;
  });
  status = server->Start(port);
  if (!status.ok()) {
    recorder->Stop();
    for (const std::string& name : health_checks_) health.Unregister(name);
    health_checks_.clear();
    return status;
  }
  ops_recorder_ = std::move(recorder);
  ops_server_ = std::move(server);
  return ops_server_->port();
#endif
}

void ProvenanceService::DisableOpsServer() {
  // Accept thread first: its handlers read `this` and the recorder.
  if (ops_server_ != nullptr) ops_server_->Stop();
  if (ops_recorder_ != nullptr) ops_recorder_->Stop();
  for (const std::string& name : health_checks_) {
    obs::HealthRegistry::Global().Unregister(name);
  }
  health_checks_.clear();
  ops_server_.reset();
  ops_recorder_.reset();
}

}  // namespace tinprov
