// ProvenanceService: snapshot-isolated provenance queries over a live
// ingest — the serve-while-ingesting layer.
//
// Every earlier layer assumes one thread owns the tracker; this one
// splits the work. A single writer thread drives a StreamIngestor over
// the live tracker and, every epoch_interval interactions, publishes an
// *epoch*: the tracker's SaveState byte image restored into a read-only
// tracker, plus the watermark/prefix it is consistent with. Each
// published view holds exactly one epoch. The reader tracker is
// recycled: when the last reference to a superseded epoch's tracker
// drops, it is parked in a one-slot spare, and the next publish
// restores into it instead of building a fresh one (RestoreState fully
// defines a tracker's state, policies/tracker.h).
// Reader threads answer Provenance(v), Provenance(v, t), and top-k
// origin queries against published epochs only — they never touch the
// live tracker and never take the writer's lock.
//
// Concurrency model (RCU-style epoch pinning):
//   - The service holds one std::shared_ptr<const EpochView>, published
//     with std::atomic_store (release) and pinned by readers with
//     std::atomic_load (acquire). An EpochView is immutable after
//     publication; pinning it keeps every state it references — its
//     epoch's reader tracker and image, the history's log chunks and
//     snapshot byte images — alive for the duration of the query,
//     however far the writer advances meanwhile.
//   - History is one CheckpointedLog (lazy/checkpointed_log.h). A view
//     holds a copy taken at publish; readers only read entries below
//     that copy's size, all written before the view's release-store —
//     no torn reads, no locks, TSan-clean.
//   - Writer-side state (live tracker, the writer's CheckpointedLog) is
//     touched only by the writer thread.
//
// Consistency guarantees:
//   - Provenance(v) / TopOrigins(v, k) answer from the newest published
//     epoch: a consistent prefix of the stream, bit-identical to a
//     stop-the-world query at that epoch's watermark. Staleness is
//     bounded by epoch_interval interactions (plus one in-flight
//     batch); the answer's EpochInfo says exactly which watermark it
//     reflects.
//   - Provenance(v, t) is exact for any t at or below the pinned
//     epoch's watermark. From the watermark on, the epoch's tracker
//     answers; for t beyond it that is the epoch state — complete
//     through the watermark, with EpochInfo reporting the gap. An
//     earlier t is CheckpointedLog::Replay of the pinned history
//     (nearest snapshot + delta). With retention on, every epoch's
//     image is a snapshot there, so a t that resolves to an older
//     epoch's prefix restores that image and replays nothing. Either
//     way the answer's EpochInfo is the pinned (newest) epoch's.
//   - A service seeded from a handoff CheckpointedLog or a recovered
//     directory starts its history with the seed's log and snapshots,
//     and its live tracker is the seed's replayed final state; epoch
//     prefixes count from the start of that history, so one log
//     answers every t.
#ifndef TINPROV_SERVE_SERVICE_H_
#define TINPROV_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analytics/registry.h"
#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "lazy/checkpointed_log.h"
#include "parallel/sharded_replay.h"
#include "serve/request_queue.h"
#include "storage/durable_log.h"
#include "storage/recovery.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/status.h"
#include "util/stopwatch.h"

#if !defined(TINPROV_NO_THREADS)
#include <thread>
#endif

namespace tinprov {

namespace obs {
class OpsServer;
class Recorder;
}  // namespace obs

/// Durability wiring for a service (ServeOptions::durability). With a
/// non-empty dir the service recovers whatever the directory holds on
/// construction (the checksummed log up to the first torn or corrupt
/// record, every valid snapshot), seeds its live tracker and history
/// from it, then keeps the directory current: every applied micro-batch
/// lands in the segment log, every published epoch's byte image becomes
/// a snapshot. A restart therefore resumes bit-identically to a clean
/// replay of the recovered prefix.
struct DurabilityOptions {
  /// Storage directory (created if missing). Empty = in-memory only —
  /// the pre-durability behavior, and the default.
  std::string dir;
  /// Filesystem boundary; null = storage::Env::Posix(). Tests pass a
  /// FaultInjectingEnv here to crash the pipeline at exact I/O ops.
  storage::Env* env = nullptr;
  /// Segment rotation / per-batch fsync / fail-stop-vs-degrade policy.
  storage::DurableLogOptions log;
  /// storage.disk_headroom health check trips below this many free
  /// bytes on dir's filesystem.
  uint64_t min_free_disk_bytes = 64ull << 20;

  bool Enabled() const { return !dir.empty(); }
};

struct ServeOptions {
  /// Interactions between epoch publishes. Lower = fresher reads,
  /// higher publish cost: one SaveState/RestoreState round per epoch,
  /// which costs about two copies of the whole image (the image sized
  /// once from the previous epoch's, restored into a recycled reader
  /// tracker) — about 3-5 ms for a 2.7 MB Grouped image over 120k
  /// vertices on a 4-vCPU host, plus the durable snapshot write when
  /// durability is on.
  size_t epoch_interval = 4096;
  /// StreamIngestor micro-batch size for the writer.
  size_t ingest_batch = 1024;
  /// Retain the ingested log (chunked) and every epoch's byte image so
  /// Provenance(v, t) can delta-replay to arbitrary past times. With
  /// retention off, standing memory stops growing with the stream and
  /// Provenance(v, t) answers only a t at or after the latest epoch's
  /// watermark or inside the seeded (handoff or recovered) history;
  /// any other t returns FailedPrecondition.
  bool retain_history = true;
  /// Worker threads for the Submit() queue. 0 = inline execution; the
  /// direct query methods never use the pool either way.
  size_t num_query_threads = 0;

  /// Shard/thread layout for Catchup()'s label-sharded bulk load
  /// (parallel/sharded_replay.h). Defaults shard one-per-hardware-
  /// thread, clamped to the tracker's label space; the spec decides
  /// whether sharding is sound, so a non-decomposable tracker silently
  /// takes the sequential path.
  ParallelParams catchup;

  // --- Ops plane (EnableOpsServer / the slow-query log) ------------------

  /// Execute()/Submit() queries slower than this land in the
  /// process-wide SlowQueryLog (/tracez?slow=1 on the ops server).
  /// 0 disables recording; ids are stamped either way.
  int64_t slow_query_ns = 1'000'000;  // 1 ms

  /// /healthz thresholds, wired when EnableOpsServer runs. Age applies
  /// only while ingest is live (a drained service is never stale);
  /// infinite limits report their value but never trip.
  double health_max_epoch_age_s = 60.0;
  double health_max_queue_depth = 65536.0;
  double health_max_watermark_lag = std::numeric_limits<double>::infinity();
  double health_max_alpha_residue = std::numeric_limits<double>::infinity();

  /// EnableOpsServer's metrics recorder: sampling period and ring bound
  /// (the ring always holds the most recent capacity*interval window).
  int64_t ops_recorder_interval_ms = 250;
  size_t ops_recorder_capacity = 512;

  // --- Durability (storage/ layer) ---------------------------------------

  /// Off (empty dir) by default. See DurabilityOptions.
  DurabilityOptions durability;
};

class ProvenanceService {
 public:
  /// A service for `spec` over a dataset of shape `stats`. The spec must
  /// be TrackerMode::kStreaming — the service only ever sees a stream.
  /// An empty `history` starts from empty state. A non-empty one (say,
  /// CheckpointedLog::Record over the pre-ingest data) is a handoff:
  /// the live tracker is the history's Replay at its size() and the
  /// service's history starts with its log and checkpoints. Its
  /// checkpoints must come from trackers configured like the spec's, or
  /// the restore fails. Durable services refuse a handoff: their
  /// history is their directory.
  static StatusOr<std::unique_ptr<ProvenanceService>> Create(
      const TrackerSpec& spec, const DatasetStats& stats,
      ServeOptions options = {}, CheckpointedLog history = {});

  /// Stops ingest (joins the writer) and the worker pool.
  ~ProvenanceService();

  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  // --- Writer side -------------------------------------------------------

  /// Bulk-loads historical data before serving begins: drains `stream`
  /// (owned) through the label-sharded replay engine (the calling
  /// thread produces, shard workers consume), installs the adopted
  /// tracker — bit-identical to a sequential ingest of the same stream,
  /// SaveState bytes included — as the live tracker, and
  /// publishes it as an epoch. Start() then continues with the live
  /// tail from the catchup watermark. Must run before Start(), at most
  /// once, from empty state (no seeded history) and with durability off
  /// (the catchup batches would bypass the durable log). With history
  /// retention on, the catchup interactions land in the retained log,
  /// so Provenance(v, t) works across the catchup range exactly as if
  /// the writer had ingested it.
  Status Catchup(std::unique_ptr<InteractionStream> stream);

  /// Catchup accounting (parallel or fallback path): interactions,
  /// watermark, final tracker memory and wall time; the batch fields
  /// stay zero. Valid after a successful Catchup().
  const IngestStats& catchup_stats() const { return catchup_stats_; }

  /// Starts the writer thread ingesting `stream` (owned). One ingest per
  /// service. In TINPROV_NO_THREADS builds the whole ingest runs
  /// synchronously inside Start(), publishing epochs along the way.
  Status Start(std::unique_ptr<InteractionStream> stream);

  /// Blocks until the writer has drained its stream; returns the ingest
  /// status. Idempotent. After an OK return, the final epoch (every
  /// interaction applied) is published and ingest_stats() is valid.
  Status WaitIngest();

  /// True once the writer has finished (successfully or not) — readers
  /// can poll this without blocking.
  bool IngestDone() const {
    return ingest_done_.load(std::memory_order_acquire);
  }

  /// Final ingest accounting. Valid only after WaitIngest().
  const IngestStats& ingest_stats() const { return final_ingest_stats_; }

  // --- Reader side (thread-safe, wait-free vs the writer) ----------------

  /// Provenance of `v` at the newest published epoch.
  QueryResult Provenance(VertexId v) const;

  /// Provenance of `v` at historical time `t` — see the consistency
  /// notes above for how t relates to the history and the epoch
  /// watermark. The result's epoch is the newest epoch's whatever t
  /// is; with retention on, replayed_interactions is 0 when t resolves
  /// to an epoch's prefix.
  QueryResult Provenance(VertexId v, Timestamp t) const;

  /// The k origins contributing the most quantity to v's buffer at the
  /// newest epoch, sorted by quantity descending (origin id ascending
  /// on ties, so results are deterministic). buffer.total remains the
  /// full buffered quantity.
  QueryResult TopOrigins(VertexId v, size_t k) const;

  /// Executes any request — the QueryWorkerPool executor.
  QueryResult Execute(const QueryRequest& request) const;

  /// Queues a request on the worker pool (inline when the pool has no
  /// threads). Thread-safe.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Identity of the newest published epoch.
  EpochInfo LatestEpoch() const;

  /// The newest epoch's SaveState byte image. Restoring it into a
  /// tracker built from the same spec exposes state no query shows
  /// (the alpha residue, window positions).
  std::shared_ptr<const std::vector<uint8_t>> LatestEpochState() const;

  size_t num_query_threads() const { return pool_->num_threads(); }
  size_t num_vertices() const { return stats_.num_vertices; }

  // --- Ops plane ---------------------------------------------------------

  /// Starts the embedded ops endpoint on 127.0.0.1:`port` (0 picks an
  /// ephemeral port; the bound port is returned). Wires the whole
  /// plane: the service-aware /statusz page, a metrics Recorder
  /// sampling at ops_recorder_interval_ms, and the health checks
  /// (serve.epoch_age, serve.queue_depth, ingest.watermark_lag,
  /// trace.drops, tracker.alpha_residue) against the ServeOptions
  /// thresholds. One ops server per service; FailedPrecondition when
  /// already enabled or built without threads.
  StatusOr<uint16_t> EnableOpsServer(uint16_t port);

  /// Stops the endpoint and recorder and unregisters the service's
  /// health checks. Idempotent; the destructor calls it.
  void DisableOpsServer();

  /// The recorder EnableOpsServer started (time-series export), or
  /// null while the ops plane is down.
  const obs::Recorder* ops_recorder() const { return ops_recorder_.get(); }

  /// The /statusz document: uptime, the newest epoch exactly as a
  /// pinned reader sees it, ingest progress and windowed rates, query
  /// accounting, and every memory.* gauge. Valid with or without the
  /// ops server running (the handler calls this).
  std::string StatuszJson() const;

  /// Seconds since the newest epoch was published (any thread).
  double EpochAgeSeconds() const;

 private:
  struct EpochView;  // service.cc: the immutable published state
  /// Tests pin a view across publishes through this peer, the way an
  /// in-flight reader would.
  friend class ProvenanceServiceTestPeer;

  ProvenanceService(TrackerFactory factory, TrackerSpec spec,
                    const DatasetStats& stats, const ServeOptions& options);

  /// Publishes epoch 0 from the live tracker Create seeded — the state
  /// at the end of the seeded history (log_), or the empty state: one
  /// SaveState, restored into the reader tracker.
  Status Init();

  /// Writer body: drains stream_, publishing epochs along the way.
  Status RunIngest();

  /// Writer (via LogSink): appends one pulled interaction to the
  /// history. No-op when history retention is off.
  void AppendLog(const Interaction& interaction);

  /// Writer: publishes the current live-tracker state as a new epoch.
  Status PublishEpoch(size_t prefix, Timestamp watermark);

  /// Writer: the next epoch's view — the live tracker's image restored
  /// into a reader tracker, plus the history, which (with retention on)
  /// gains the image as its checkpoint at `prefix`.
  StatusOr<std::shared_ptr<const EpochView>> BuildView(size_t prefix,
                                                       Timestamp watermark);

  /// Writer: a read-only tracker holding `state`, restored into the
  /// parked spare when there is one (counted as serve.tracker_reuses),
  /// else into a fresh factory_() tracker. Dropping the last reference
  /// parks it as the next spare.
  StatusOr<std::shared_ptr<const Tracker>> RestoreEpochTracker(
      const std::vector<uint8_t>& state);

  /// Reader: pins the newest view.
  std::shared_ptr<const EpochView> PinView() const {
    return std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  }

  /// Provenance(v) against a view the caller has pinned.
  QueryResult ProvenanceIn(const EpochView& view, VertexId v) const;

  QueryResult ProvenanceAt(VertexId v, Timestamp t) const;

  /// The kind switch Execute() wraps with id/latency/slow-log bookkeeping.
  QueryResult Dispatch(const QueryRequest& request) const;

  TrackerFactory factory_;
  TrackerSpec tracker_spec_;  // for Catchup()'s ShardedSpec lookup
  DatasetStats stats_;
  ServeOptions options_;
  /// Watermark the live ingest must resume at or above: the seeded
  /// history's, raised by Catchup() to the catchup watermark.
  Timestamp resume_watermark_ = std::numeric_limits<Timestamp>::lowest();

  // Writer-owned after Start() (and during Create).
  std::unique_ptr<Tracker> live_tracker_;
  std::unique_ptr<InteractionStream> stream_;
  /// Durable log, or null when ServeOptions::durability is off. Written
  /// by the writer thread; other threads observe it through the
  /// storage.* gauges only. Its positions are epoch prefixes.
  std::unique_ptr<storage::DurableLog> durable_;
  class LogSink;  // service.cc: tee stream appending into log_
  /// The history: seeded interactions and snapshots, then (with
  /// retention on) every ingested interaction and published epoch.
  CheckpointedLog log_;
  /// Interactions applied before the writer's own ingest begins — the
  /// seeded history's or Catchup()'s count. Epoch prefixes offset by it
  /// so they keep indexing the full history.
  size_t prefix_base_ = 0;
  uint64_t next_seq_ = 0;
  Stopwatch since_publish_;  // serve.epoch_age_ns at publish time
  /// Size of the last published image: the next one is reserved at
  /// this plus 1/8, so SaveState fills it without regrowing.
  size_t last_state_bytes_ = 0;
  class TrackerSpare;  // service.cc: the one-slot recycled reader tracker
  /// Shared with every epoch tracker's deleter, which may run after the
  /// service is gone (a reader still pinning an old view).
  std::shared_ptr<TrackerSpare> spare_;

  // Shared: the RCU-published view; writer stores, readers load.
  std::shared_ptr<const EpochView> latest_;

  std::atomic<bool> started_{false};
  std::atomic<bool> ingest_done_{false};
  bool ingest_joined_ = false;
  bool caught_up_ = false;
  Status ingest_status_;
  IngestStats final_ingest_stats_;
  IngestStats catchup_stats_;
#if !defined(TINPROV_NO_THREADS)
  std::thread writer_;
#endif
  std::unique_ptr<QueryWorkerPool> pool_;

  // Ops plane (EnableOpsServer). last_publish_ns_ mirrors
  // since_publish_ in a form any thread may read (the health check and
  // /statusz run on the ops server's accept thread).
  Stopwatch uptime_;  // never restarted; reads are race-free
  std::atomic<int64_t> last_publish_ns_{0};
  std::unique_ptr<obs::OpsServer> ops_server_;
  std::unique_ptr<obs::Recorder> ops_recorder_;
  std::vector<std::string> health_checks_;  // names registered, for teardown
};

}  // namespace tinprov

#endif  // TINPROV_SERVE_SERVICE_H_
