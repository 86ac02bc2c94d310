// Parallel sharded replay of the pro-rata provenance trackers.
//
// The pro-rata update is linear in generation labels: a transfer moves
// the same fraction of every label's share, and that fraction depends
// only on per-vertex balances, which evolve independently of which
// labels are attributed. So the label space can be partitioned into
// shards, each shard can replay the FULL interaction log on its own
// tracker restricted (via SparseProportionalBase::RestrictLabels) to
// the labels it owns, and the per-vertex lists of different shards stay
// disjoint by construction. Three consequences:
//   - balances, deficits, total_generated and the attributed total are
//     computed by the identical floating-point op sequence in every
//     shard, so they are bit-identical to a sequential replay;
//   - each owned label's quantity undergoes exactly the op sequence the
//     sequential replay applies to it, so shard lists are bit-identical
//     to the owned-label slices of the sequential lists;
//   - the exchange phase that merges cross-shard flow back into one
//     tracker (SparseProportionalBase::AdoptLabelShards) is a pure
//     interleave by label — no arithmetic — and therefore deterministic
//     regardless of thread timing; the adopted tracker is bit-identical
//     to a sequential run, SaveState bytes included.
// Work per shard is (stream scan) + (list work / #shards): the scan is
// the cheap scalar part, the list work is the superlinear cost paper
// Figure 6 plots, which is what actually parallelizes.
//
// Trackers whose behaviour is NOT label-linear (the order-based
// policies; BudgetTracker, whose shrink inspects whole lists) run on a
// sequential fallback path inside the same engine, so callers get one
// API and bit-identical results either way. WindowedTracker IS
// decomposable here — unlike influence-cone slicing, every shard sees
// every interaction, so its global reset counter advances identically.
//
// The engine has one entry point, ReplayStream: a single pass of an
// InteractionStream is broadcast to the shards chunk by chunk through a
// bounded queue, each worker thread owning a fixed subset of the
// shards. Callers holding a log pass a MaterializedStream over it (a
// prefix-bounded one for historical replays); the serve layer's Catchup
// passes the live backlog. Labels are assigned to shards round-robin.
// Each shard tracker owns its own arena-backed pool; no state is shared
// between workers until the join.
#ifndef TINPROV_PARALLEL_SHARDED_REPLAY_H_
#define TINPROV_PARALLEL_SHARDED_REPLAY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/types.h"
#include "policies/proportional_base.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

/// std::thread::hardware_concurrency() with the zero-means-unknown case
/// mapped to 1; always 1 under TINPROV_NO_THREADS.
size_t HardwareThreads();

struct ParallelParams {
  /// Worker threads; 0 = HardwareThreads(). With TINPROV_PARALLEL=OFF
  /// the shards all run inline on the caller.
  size_t num_threads = 0;
  /// Label shards; 0 = one per thread. More shards than threads is
  /// valid (worker w runs shards w, w + threads, ...); shard counts are
  /// clamped to the label-space size.
  size_t num_shards = 0;
  /// Interactions per broadcast chunk. The producer queue holds at most
  /// kStreamQueueChunks undrained chunks and each worker can pin one
  /// more it is processing, so total pipeline buffering is bounded by
  /// (kStreamQueueChunks + workers) * stream_chunk interactions — a
  /// constant, independent of stream length.
  size_t stream_chunk = 4096;
};

/// Bound on undrained chunks in the shard runner's broadcast queue.
inline constexpr size_t kStreamQueueChunks = 8;

/// Builds a fresh, identically configured pro-rata tracker; the engine
/// applies the per-shard label restriction itself.
using ShardTrackerFactory =
    std::function<std::unique_ptr<SparseProportionalBase>()>;

/// What the engine needs to know about a tracker configuration. Build
/// one by hand, or by name via TrackerRegistry::Sharded().
struct ShardedSpec {
  /// True when the tracker is label-linear (see file comment); false
  /// routes every replay through the sequential fallback.
  bool decomposable = false;
  /// Size of the generation-label id space: num_vertices for the
  /// vertex-labelled trackers, num_groups for GroupedTracker.
  size_t label_count = 0;
  /// Shard construction; required when decomposable.
  ShardTrackerFactory make_shard;
  /// Fallback (and reference) construction; always required.
  TrackerFactory sequential;
};

/// Per-shard accounting for bench output.
struct ShardInfo {
  size_t labels = 0;        // labels owned
  size_t entries = 0;       // tuples held at the end of the replay
  double seconds = 0.0;     // replay wall time on its worker
  size_t pool_bytes = 0;    // arena bytes its tracker reserved
};

/// Outcome of a (possibly prefix-bounded) replay.
struct ShardedReplayResult {
  /// The replayed tracker, bit-identical to spec.sequential() after the
  /// same interactions (SaveState bytes included): the adopted shard
  /// trackers on the parallel path, the sequential tracker itself on
  /// the fallback.
  std::unique_ptr<Tracker> tracker;
  size_t interactions_replayed = 0;  // stream / log prefix length
  /// Timestamp of the last replayed interaction; the tracker's state is
  /// complete up to (and including) this time.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  /// Wall time of the replay itself, excluding the exchange phase. This
  /// is the number comparable to a sequential tracker's Process() loop.
  double replay_seconds = 0.0;
  /// False when the sequential fallback ran (non-decomposable spec or a
  /// single shard).
  bool used_parallel_path = false;
  size_t num_shards = 1;
  size_t num_threads = 1;
  std::vector<ShardInfo> shards;

  double BufferTotal(VertexId v) const { return tracker->BufferTotal(v); }
  Buffer Provenance(VertexId v) const { return tracker->Provenance(v); }
};

class ShardedReplayEngine {
 public:
  explicit ShardedReplayEngine(ShardedSpec spec, ParallelParams params = {});

  /// Single-pass streaming replay: drains `stream` once, broadcasting
  /// fixed-size chunks to every shard through a bounded queue (the
  /// calling thread is the producer; shard workers consume each chunk
  /// in order), then adopts the shards into one tracker. Pipeline
  /// buffering stays bounded by (kStreamQueueChunks + workers) chunks.
  /// Enforces non-decreasing timestamps like StreamIngestor. A shard
  /// error reports the earliest failing chunk's lowest failing shard,
  /// whatever the thread count. Non-decomposable specs (or a single
  /// shard) drain the stream through a sequential StreamIngestor
  /// instead, same result.
  StatusOr<ShardedReplayResult> ReplayStream(InteractionStream& stream) const;

  /// Threads the engine will actually use.
  size_t ResolvedThreads() const;

 private:
  // One executed parallel phase: the shard trackers plus the label
  // masks they borrow (declared first so they outlive the trackers).
  struct ShardRun {
    std::vector<std::vector<uint8_t>> masks;
    std::vector<std::unique_ptr<SparseProportionalBase>> trackers;
    std::vector<size_t> labels_per_shard;
    std::vector<double> seconds;
    size_t num_shards = 0;
    size_t num_threads = 0;
    size_t interactions = 0;
    Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  };

  /// True when this spec/params combination shards at all; false means
  /// ReplayStream takes its sequential path.
  bool UsesShards(size_t* num_shards) const;
  /// Round-robin label partition + masks for `num_shards` (phase 0).
  void PartitionLabels(ShardRun* run, size_t num_shards) const;
  /// Phase 1: the shard runner.
  StatusOr<ShardRun> RunShardsStream(InteractionStream& stream,
                                     size_t num_shards) const;
  /// Phase 2 (exchange): adopts the shards into one tracker and fills
  /// in the result bookkeeping.
  StatusOr<ShardedReplayResult> AssembleResult(const ShardRun& run,
                                               double replay_seconds) const;
  StatusOr<ShardedReplayResult> SequentialStreamReplay(
      InteractionStream& stream) const;

  ShardedSpec spec_;
  ParallelParams params_;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SHARDED_REPLAY_H_
