#include "parallel/sharded_replay.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scalable/grouped.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

#if !defined(TINPROV_NO_THREADS)
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#endif

namespace tinprov {

namespace {

/// Per-shard entry pre-sizing from an expected interaction count
/// (0 = unknown, no reservation).
void ReserveShard(SparseProportionalBase* tracker,
                  size_t expected_interactions, size_t num_shards) {
  if (expected_interactions == 0) return;  // unknown length: grow on demand
  const size_t hint = std::min(expected_interactions,
                               (size_t{8} << 20) / sizeof(ProvPair)) /
                          num_shards +
                      16;
  tracker->ReserveEntries(hint);
}

}  // namespace

size_t HardwareThreads() {
#if defined(TINPROV_NO_THREADS)
  return 1;
#else
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
#endif
}

ShardedReplayEngine::ShardedReplayEngine(ShardedSpec spec,
                                         ParallelParams params)
    : spec_(std::move(spec)), params_(params) {}

size_t ShardedReplayEngine::ResolvedThreads() const {
  return params_.num_threads == 0 ? HardwareThreads() : params_.num_threads;
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::SequentialStreamReplay(
    InteractionStream& stream) const {
  if (!spec_.sequential) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  ShardedReplayResult result;
  result.tracker = spec_.sequential();
  if (result.tracker == nullptr) {
    return Status::Internal("sequential tracker factory returned null");
  }
  Stopwatch watch;
  StreamIngestor ingestor(result.tracker.get());
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(),
                  "sequential stream replay: " + status.message());
  }
  result.replay_seconds = watch.ElapsedSeconds();
  result.interactions_replayed = ingestor.stats().interactions;
  result.watermark = ingestor.stats().watermark;
  return result;
}

bool ShardedReplayEngine::UsesShards(size_t* num_shards) const {
  const size_t threads = ResolvedThreads();
  size_t shards = params_.num_shards == 0 ? threads : params_.num_shards;
  shards = std::min(shards, spec_.label_count);
  *num_shards = shards;
  return spec_.decomposable && spec_.make_shard != nullptr && shards > 1;
}

void ShardedReplayEngine::PartitionLabels(ShardRun* run,
                                          size_t num_shards) const {
  const size_t label_count = spec_.label_count;
  // Deterministic label partition, independent of threading.
  const std::vector<GroupId> assignment =
      RoundRobinGroups(label_count, num_shards);
  run->masks.assign(num_shards, std::vector<uint8_t>(label_count, 0));
  run->labels_per_shard.assign(num_shards, 0);
  for (size_t label = 0; label < label_count; ++label) {
    const GroupId shard = assignment[label];
    run->masks[shard][label] = 1;
    ++run->labels_per_shard[shard];
  }
}

StatusOr<ShardedReplayEngine::ShardRun> ShardedReplayEngine::RunShardsStream(
    InteractionStream& stream, size_t num_shards) const {
  const size_t label_count = spec_.label_count;
  ShardRun run;
  run.num_shards = num_shards;
  const size_t num_workers = std::min(ResolvedThreads(), num_shards);
  run.num_threads = num_workers;
  PartitionLabels(&run, num_shards);

  // Shard trackers are built up front on the caller (construction is
  // O(|V|), not worth parallelizing) and pre-sized from whatever length
  // the stream advertises.
  run.trackers.resize(num_shards);
  run.seconds.assign(num_shards, 0.0);
  const DatasetStats advertised = stream.Stats();
  for (size_t s = 0; s < num_shards; ++s) {
    run.trackers[s] = spec_.make_shard();
    if (run.trackers[s] == nullptr) {
      return Status::Internal("shard tracker factory returned null");
    }
    run.trackers[s]->RestrictLabels(run.masks[s].data(), label_count);
    ReserveShard(run.trackers[s].get(), advertised.num_interactions,
                 num_shards);
  }

  const size_t chunk_capacity = std::max<size_t>(1, params_.stream_chunk);

  // Applies one chunk to one shard. Only the owning worker ever touches
  // a shard's tracker or seconds slot, so no synchronization is needed
  // beyond the queue hand-off.
  const auto feed = [&run](size_t s,
                           const std::vector<Interaction>& chunk) -> Status {
    obs::TraceSpan span("replay.shard", "parallel");
    Stopwatch watch;
    for (const Interaction& interaction : chunk) {
      const Status status = run.trackers[s]->Process(interaction);
      if (!status.ok()) {
        return Status(status.code(), "shard " + std::to_string(s) +
                                         " stream replay: " +
                                         status.message());
      }
    }
    run.seconds[s] += watch.ElapsedSeconds();
    TINPROV_COUNTER_ADD("parallel.shard_busy_ns", watch.ElapsedNanos());
    return Status::Ok();
  };

  // The producer (calling thread) is the only one that touches the
  // stream; it also enforces the time-order contract the trackers rely
  // on, exactly as StreamIngestor does (chunks play its batches).
  size_t chunks_pulled = 0;
  const auto pull_chunk = [&](std::vector<Interaction>* chunk) -> Status {
    chunk->clear();
    Interaction interaction;
    while (chunk->size() < chunk_capacity && stream.Next(&interaction)) {
      if (interaction.t < run.watermark) {
        return TimeOrderViolation(chunks_pulled,
                                  run.interactions + chunk->size(),
                                  interaction.t, run.watermark);
      }
      run.watermark = interaction.t;
      chunk->push_back(interaction);
    }
    run.interactions += chunk->size();
    ++chunks_pulled;
    return Status::Ok();
  };

#if defined(TINPROV_NO_THREADS)
  const bool inline_path = true;
#else
  const bool inline_path = num_workers <= 1;
#endif
  if (inline_path) {
    // Single worker: no queue, just alternate pull and broadcast. Same
    // per-shard op sequence as the threaded path, so same results.
    std::vector<Interaction> chunk;
    for (;;) {
      Status status = pull_chunk(&chunk);
      if (!status.ok()) return status;
      if (chunk.empty()) break;
      for (size_t s = 0; s < num_shards; ++s) {
        status = feed(s, chunk);
        if (!status.ok()) return status;
      }
      if (chunk.size() < chunk_capacity) break;
    }
  }
#if !defined(TINPROV_NO_THREADS)
  else {
    // Bounded broadcast queue: the producer appends shared chunks, each
    // worker consumes every chunk in order for the shards it owns
    // (shard s belongs to worker s % num_workers), and fully consumed
    // chunks are popped. The queue holds at most kStreamQueueChunks
    // chunks and each worker can pin one popped chunk it is still
    // processing, so live buffering never exceeds
    // (kStreamQueueChunks + num_workers) * stream_chunk interactions.
    //
    // A shard error stops the producer, but every worker still runs the
    // chunks up to the earliest failing one, so the error reported is
    // the one the inline path meets first, whatever the thread timing.
    constexpr size_t kNoFailure = std::numeric_limits<size_t>::max();
    struct Failure {
      size_t chunk = kNoFailure;
      size_t shard = 0;
      Status status;
    };
    std::mutex mu;
    std::condition_variable producer_cv, consumer_cv;
    std::deque<std::shared_ptr<const std::vector<Interaction>>> chunks;
    size_t base = 0;  // global index of chunks.front()
    std::vector<size_t> cursor(num_workers, 0);
    bool done = false;
    Failure first;  // earliest (chunk, shard) failure seen so far

    const auto worker_main = [&](size_t w) {
      obs::TraceSpan worker_span("replay.worker", "parallel");
      for (;;) {
        std::shared_ptr<const std::vector<Interaction>> chunk;
        size_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          {
            // Queue-wait time: the stream is the bottleneck when this
            // dwarfs parallel.shard_busy_ns.
            TINPROV_SCOPED_COUNTER_NS("parallel.worker_idle_ns");
            consumer_cv.wait(lock, [&] {
              return done || cursor[w] > first.chunk ||
                     cursor[w] < base + chunks.size();
            });
          }
          // Past the earliest failure, or done and drained.
          if (cursor[w] > first.chunk || cursor[w] == base + chunks.size()) {
            return;
          }
          index = cursor[w]++;
          chunk = chunks[index - base];
        }
        producer_cv.notify_one();
        for (size_t s = w; s < num_shards; s += num_workers) {
          Status status = feed(s, *chunk);
          if (status.ok()) continue;
          std::lock_guard<std::mutex> lock(mu);
          if (index < first.chunk ||
              (index == first.chunk && s < first.shard)) {
            first = {index, s, std::move(status)};
          }
          producer_cv.notify_all();
          consumer_cv.notify_all();
          return;
        }
      }
    };
    Status producer_status = Status::Ok();
    {
      std::vector<std::thread> workers;
      // Ends the pipeline and joins the workers on every exit from this
      // block, exceptions included: a destroyed joinable std::thread
      // ends the program.
      struct JoinOnExit {
        std::function<void()> finish;
        ~JoinOnExit() { finish(); }
      } join_on_exit{[&] {
        {
          std::lock_guard<std::mutex> lock(mu);
          done = true;
        }
        consumer_cv.notify_all();
        for (std::thread& worker : workers) worker.join();
      }};
      workers.reserve(num_workers);
      for (size_t w = 0; w < num_workers; ++w) {
        workers.emplace_back(worker_main, w);
      }

      std::vector<Interaction> scratch;
      for (;;) {
        producer_status = pull_chunk(&scratch);
        if (!producer_status.ok() || scratch.empty()) break;
        const bool exhausted = scratch.size() < chunk_capacity;
        auto chunk = std::make_shared<const std::vector<Interaction>>(
            std::move(scratch));
        {
          std::unique_lock<std::mutex> lock(mu);
          for (;;) {
            while (!chunks.empty() &&
                   *std::min_element(cursor.begin(), cursor.end()) > base) {
              chunks.pop_front();
              ++base;
            }
            if (first.chunk != kNoFailure ||
                chunks.size() < kStreamQueueChunks) {
              break;
            }
            producer_cv.wait(lock);
          }
          if (first.chunk != kNoFailure) break;
          chunks.push_back(std::move(chunk));
          TINPROV_COUNTER_ADD("stream.chunks", 1);
          TINPROV_GAUGE_SET("stream.queue_depth", chunks.size());
          TINPROV_GAUGE_MAX("stream.queue_depth_peak", chunks.size());
        }
        consumer_cv.notify_all();
        if (exhausted) break;
      }
    }

    // Shard errors precede a producer error in stream order: the
    // producer only pulls past chunks it has already queued.
    if (first.chunk != kNoFailure) return first.status;
    if (!producer_status.ok()) return producer_status;
  }
#endif

  // Replicated global state must agree bit-for-bit across shards, or
  // the spec lied about being label-linear. total_generated accumulates
  // every deficit in order and the alpha residue every attribution, so
  // together they are a cheap complete witness for the scalars the
  // adoption takes from shard 0.
  for (size_t s = 1; s < num_shards; ++s) {
    if (run.trackers[s]->total_generated() !=
            run.trackers[0]->total_generated() ||
        run.trackers[s]->AlphaResidue() != run.trackers[0]->AlphaResidue()) {
      return Status::Internal(
          "shard " + std::to_string(s) +
          " diverged from shard 0 — tracker is not label-decomposable");
    }
  }
  return run;
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::AssembleResult(
    const ShardRun& run, double replay_seconds) const {
  ShardedReplayResult result;
  result.interactions_replayed = run.interactions;
  result.watermark = run.watermark;
  result.replay_seconds = replay_seconds;
  result.used_parallel_path = true;
  result.num_shards = run.num_shards;
  result.num_threads = run.num_threads;
  size_t pool_bytes = 0;
  for (size_t s = 0; s < run.num_shards; ++s) {
    ShardInfo info;
    info.labels = run.labels_per_shard[s];
    info.entries = run.trackers[s]->num_entries();
    info.seconds = run.seconds[s];
    info.pool_bytes = run.trackers[s]->PoolBytesReserved();
    pool_bytes += info.pool_bytes;
    result.shards.push_back(info);
  }
  TINPROV_COUNTER_ADD("parallel.replays", 1);
  TINPROV_COUNTER_ADD("parallel.shards_run", run.num_shards);
  TINPROV_GAUGE_SET("memory.shard_pool_bytes", pool_bytes);

  // Phase 2 (exchange): interleave the shards' disjoint label slices
  // back into one tracker. Pure data movement ordered by label id —
  // deterministic and free of floating-point arithmetic.
  obs::TraceSpan exchange_span("replay.exchange", "parallel");
  TINPROV_SCOPED_LATENCY_NS("parallel.exchange_ns");
  std::unique_ptr<SparseProportionalBase> adopted = spec_.make_shard();
  if (adopted == nullptr) {
    return Status::Internal("shard tracker factory returned null");
  }
  const Status status = adopted->AdoptLabelShards(run.trackers);
  if (!status.ok()) return status;
  result.tracker = std::move(adopted);
  return result;
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::ReplayStream(
    InteractionStream& stream) const {
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    return SequentialStreamReplay(stream);
  }
  Stopwatch watch;
  auto executed = RunShardsStream(stream, shards);
  if (!executed.ok()) return executed.status();
  return AssembleResult(*executed, watch.ElapsedSeconds());
}

}  // namespace tinprov
