#include "lazy/checkpointed_log.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace tinprov {

void CheckpointedLog::Append(const Interaction& interaction) {
  const size_t offset = size_ % kChunkCapacity;
  if (offset == 0 || chunks_.back().use_count() > 1) {
    std::shared_ptr<Interaction[]> chunk(new Interaction[kChunkCapacity]);
    if (offset == 0) {
      chunks_.push_back(std::move(chunk));
    } else {
      // Copy-on-write: a copy shares the tail. Only this log creates
      // new references to its chunks, so a count of one stays one.
      std::copy_n(chunks_.back().get(), offset, chunk.get());
      chunks_.back() = std::move(chunk);
    }
  }
  chunks_.back()[offset] = interaction;
  ++size_;
}

void CheckpointedLog::AddCheckpoint(size_t prefix, Image image) {
  if (!checkpoints_.empty() && prefix <= checkpoints_.back().prefix) return;
  checkpoint_bytes_ += image->size();
  checkpoints_.push_back({prefix, std::move(image)});
}

size_t CheckpointedLog::UpperBound(Timestamp t) const {
  size_t lo = 0;
  size_t hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid].t <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::unique_ptr<Tracker>> CheckpointedLog::Replay(
    const TrackerFactory& factory, size_t prefix, size_t* replayed) const {
  if (prefix > size_) {
    return Status::InvalidArgument("replay prefix " + std::to_string(prefix) +
                                   " exceeds the " + std::to_string(size_) +
                                   "-interaction log");
  }
  std::unique_ptr<Tracker> tracker = factory ? factory() : nullptr;
  if (tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  // Nearest checkpoint at or below the prefix; none means the delta
  // starts from the fresh tracker.
  const auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), prefix,
      [](size_t p, const Checkpoint& c) { return p < c.prefix; });
  size_t start = 0;
  if (it != checkpoints_.begin()) {
    const Checkpoint& checkpoint = *(it - 1);
    TINPROV_SCOPED_LATENCY_NS("timetravel.restore_ns");
    TINPROV_COUNTER_ADD("timetravel.restores", 1);
    const Status status = tracker->RestoreState(*checkpoint.image);
    if (!status.ok()) {
      return Status(status.code(), "restoring snapshot at prefix " +
                                       std::to_string(checkpoint.prefix) +
                                       ": " + status.message());
    }
    start = checkpoint.prefix;
  }
  for (size_t i = start; i < prefix; ++i) {
    const Status status = tracker->Process((*this)[i]);
    if (!status.ok()) {
      return Status(status.code(), "delta replay at interaction " +
                                       std::to_string(i) + ": " +
                                       status.message());
    }
  }
  TINPROV_COUNTER_ADD("timetravel.delta_interactions", prefix - start);
  if (replayed != nullptr) *replayed = prefix - start;
  return tracker;
}

}  // namespace tinprov
