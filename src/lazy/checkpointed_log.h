// CheckpointedLog: the one "nearest snapshot + delta replay" history
// behind TimeTravelIndex, the serve layer's Provenance(v, t) and crash
// recovery. It holds an append-only interaction log in fixed-capacity
// chunks that never move, tracker SaveState images ("checkpoints")
// keyed by the log prefix they were cut at, and Replay(), which is
// bit-identical to a fresh tracker's Process() over a log prefix by the
// SaveState/RestoreState resume contract.
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

#include "core/types.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

class CheckpointedLog {
 public:
  /// A SaveState byte image, shared between copies of the log.
  using Image = std::shared_ptr<const std::vector<uint8_t>>;

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

  /// A tracker from `factory` holding the state after log[0, prefix):
  /// the nearest checkpoint at or below `prefix` restored (a fresh
  /// tracker when none is), then the delta replayed. `replayed`
  /// (optional) receives the delta length. Emits timetravel.restores,
  /// timetravel.restore_ns and timetravel.delta_interactions.
  StatusOr<std::unique_ptr<Tracker>> Replay(const TrackerFactory& factory,
                                            size_t prefix,
                                            size_t* replayed = nullptr) const;

 private:
  /// Interactions per chunk.
  static constexpr size_t kChunkCapacity = 4096;

  struct Checkpoint {
    size_t prefix = 0;
    Image image;
  };

  std::vector<std::shared_ptr<Interaction[]>> chunks_;
  size_t size_ = 0;
  std::vector<Checkpoint> checkpoints_;
  size_t checkpoint_bytes_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_CHECKPOINTED_LOG_H_
