// CheckpointedLog: the one "nearest snapshot + delta replay" history
// behind lazy replay-on-demand (paper Section 8 future work; Ariadne's
// "replay lazy"), the serve layer's Provenance(v, t) and crash
// recovery. It holds an append-only interaction log in fixed-capacity
// chunks that never move, tracker SaveState images ("checkpoints")
// keyed by the log prefix they were cut at, and two replay shapes over
// one restore step:
//   - Replay(): the tracker state after a log prefix — full replay at
//     size(), a historical query at UpperBound(t);
//   - ReplaySliced(): one vertex's buffer after a prefix, replaying
//     only the delta interactions in its backward influence cone.
// Both are bit-identical to a fresh tracker's Process() over the prefix
// by the SaveState/RestoreState resume contract.
//
// Copies share chunks and images, so they are cheap, and each is a
// snapshot: the original appending past a copy's size is invisible to
// it, which lets a pinned serve view read while the writer appends.
// Append never writes into a chunk another copy shares below its size
// (it copies such a tail first), so distinct copies may be used, and
// appended to, from distinct threads.
#ifndef TINPROV_LAZY_CHECKPOINTED_LOG_H_
#define TINPROV_LAZY_CHECKPOINTED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/types.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

class CheckpointedLog {
 public:
  /// A SaveState byte image, shared between copies of the log.
  using Image = std::shared_ptr<const std::vector<uint8_t>>;

  /// Drains `stream` through one tracker from `factory`, logging every
  /// interaction and checkpointing the tracker every `interval`
  /// interactions (0 is treated as 1). Rejects a timestamp below its
  /// predecessor's (wrap disordered sources in a SortingStream) and any
  /// interaction the tracker rejects. Queries must use a factory that
  /// builds identically configured trackers. Emits
  /// timetravel.snapshots, timetravel.save_ns and
  /// memory.timetravel_bytes.
  static StatusOr<CheckpointedLog> Record(const TrackerFactory& factory,
                                          InteractionStream& stream,
                                          size_t interval);

  /// Appends one interaction. Callers keep timestamps non-decreasing;
  /// UpperBound() relies on it.
  void Append(const Interaction& interaction);

  /// Records `image` as the tracker state after the first `prefix`
  /// interactions. Prefixes ascend; a prefix at or below the newest
  /// checkpoint's is ignored (the same prefix is the same state).
  void AddCheckpoint(size_t prefix, Image image);

  /// Interactions logged.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Interaction `i` (i < size()).
  const Interaction& operator[](size_t i) const {
    return chunks_[i / kChunkCapacity][i % kChunkCapacity];
  }

  /// Count of logged interactions with timestamp <= t: the prefix a
  /// query at time t replays.
  size_t UpperBound(Timestamp t) const;

  size_t num_checkpoints() const { return checkpoints_.size(); }

  /// Bytes of logged interactions (size() * sizeof(Interaction)).
  size_t log_bytes() const { return size_ * sizeof(Interaction); }

  /// Bytes of checkpoint images.
  size_t checkpoint_bytes() const { return checkpoint_bytes_; }

  /// Standing bytes: the log, the images and one prefix per checkpoint
  /// (container headers excluded, as in Tracker::MemoryUsage()).
  size_t MemoryUsage() const {
    return log_bytes() + checkpoint_bytes_ +
           checkpoints_.size() * sizeof(size_t);
  }

  /// A tracker from `factory` holding the state after log[0, prefix):
  /// the nearest checkpoint at or below `prefix` restored (a fresh
  /// tracker when none is), then the delta replayed. `replayed`
  /// (optional) receives the delta length. Emits timetravel.restores,
  /// timetravel.restore_ns and timetravel.delta_interactions.
  StatusOr<std::unique_ptr<Tracker>> Replay(const TrackerFactory& factory,
                                            size_t prefix,
                                            size_t* replayed = nullptr) const;

  /// Provenance of `v` after log[0, prefix), replaying only v's
  /// backward influence cone within the delta. The restore is
  /// Replay()'s; then one reverse scan over the delta collects every
  /// interaction whose destination is in the cone (pulling its source
  /// in) or whose source alone is (an outflow reshapes the sender's
  /// buffer), and the collected interactions replay in log order.
  /// Exact for every PolicyKind and for Selective, Grouped and Budget,
  /// whose behaviour at a vertex depends only on cone histories; NOT
  /// for Windowed, whose global reset counter sees a different
  /// interaction count under slicing — use Replay() there. `replayed`
  /// (optional) receives the cone's interaction count. InvalidArgument
  /// when `v`, or an endpoint in the delta, is outside the tracker's
  /// vertex range. Emits lazy.cone_vertices and lazy.cone_interactions.
  StatusOr<Buffer> ReplaySliced(const TrackerFactory& factory, size_t prefix,
                                VertexId v, size_t* replayed = nullptr) const;

 private:
  /// Interactions per chunk.
  static constexpr size_t kChunkCapacity = 4096;

  struct Checkpoint {
    size_t prefix = 0;
    Image image;
  };

  /// The restore step both replay shapes share: a tracker from
  /// `factory` holding the nearest checkpoint at or below `prefix`
  /// (fresh when none is); `start` receives that checkpoint's prefix.
  StatusOr<std::unique_ptr<Tracker>> Restore(const TrackerFactory& factory,
                                             size_t prefix,
                                             size_t* start) const;

  std::vector<std::shared_ptr<Interaction[]>> chunks_;
  size_t size_ = 0;
  std::vector<Checkpoint> checkpoints_;
  size_t checkpoint_bytes_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_CHECKPOINTED_LOG_H_
