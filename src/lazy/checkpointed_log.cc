#include "lazy/checkpointed_log.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/interaction_stream.h"

namespace tinprov {

StatusOr<CheckpointedLog> CheckpointedLog::Record(
    const TrackerFactory& factory, InteractionStream& stream,
    size_t interval) {
  if (interval == 0) interval = 1;
  std::unique_ptr<Tracker> tracker = factory ? factory() : nullptr;
  if (tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  CheckpointedLog log;
  Interaction interaction;
  while (stream.Next(&interaction)) {
    const size_t observed = log.size();
    if (observed > 0 && interaction.t < log[observed - 1].t) {
      return Status::InvalidArgument(
          "recording at interaction " + std::to_string(observed) +
          ": timestamp below the watermark — wrap the source in a "
          "SortingStream");
    }
    const Status status = tracker->Process(interaction);
    if (!status.ok()) {
      return Status(status.code(), "recording at interaction " +
                                       std::to_string(observed) + ": " +
                                       status.message());
    }
    log.Append(interaction);
    if (log.size() % interval == 0) {
      auto state = std::make_shared<std::vector<uint8_t>>();
      {
        TINPROV_SCOPED_LATENCY_NS("timetravel.save_ns");
        tracker->SaveState(state.get());
      }
      log.AddCheckpoint(log.size(), std::move(state));
      TINPROV_COUNTER_ADD("timetravel.snapshots", 1);
    }
  }
  TINPROV_GAUGE_SET("memory.timetravel_bytes", log.MemoryUsage());
  return log;
}

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

StatusOr<std::unique_ptr<Tracker>> CheckpointedLog::Restore(
    const TrackerFactory& factory, size_t prefix, size_t* start) const {
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
  *start = 0;
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
    *start = checkpoint.prefix;
  }
  return tracker;
}

StatusOr<std::unique_ptr<Tracker>> CheckpointedLog::Replay(
    const TrackerFactory& factory, size_t prefix, size_t* replayed) const {
  size_t start = 0;
  auto tracker = Restore(factory, prefix, &start);
  if (!tracker.ok()) return tracker.status();
  for (size_t i = start; i < prefix; ++i) {
    const Status status = (*tracker)->Process((*this)[i]);
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

StatusOr<Buffer> CheckpointedLog::ReplaySliced(const TrackerFactory& factory,
                                               size_t prefix, VertexId v,
                                               size_t* replayed) const {
  obs::TraceSpan span("lazy.sliced_query", "lazy");
  size_t start = 0;
  auto tracker = Restore(factory, prefix, &start);
  if (!tracker.ok()) return tracker.status();
  // The scan reads the log directly, so it range-checks what Process()
  // would before indexing the cone bitmap.
  const size_t n = (*tracker)->num_vertices();
  if (v >= n) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  // Scanning backwards, in_cone[u] says whether u's state at this
  // position matters for v's at `prefix`. A receipt into the cone makes
  // the sender's state matter too; an outflow from a cone vertex
  // changes only its own state, so it joins without pulling in the
  // receiver. The restored tracker is exact at `start` for everyone.
  std::vector<uint8_t> in_cone(n, 0);
  in_cone[v] = 1;
  size_t cone_vertices = 1;
  std::vector<size_t> cone;  // positions, descending
  for (size_t i = prefix; i-- > start;) {
    const Interaction& x = (*this)[i];
    if (x.src >= n || x.dst >= n) {
      return Status::InvalidArgument(
          "sliced replay at interaction " + std::to_string(i) +
          ": vertex id out of range for " + std::to_string(n) + " vertices");
    }
    if (in_cone[x.dst]) {
      cone.push_back(i);
      if (!in_cone[x.src]) {
        in_cone[x.src] = 1;
        ++cone_vertices;
      }
    } else if (in_cone[x.src]) {
      cone.push_back(i);
    }
  }
  for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
    const Status status = (*tracker)->Process((*this)[*it]);
    if (!status.ok()) {
      return Status(status.code(), "sliced replay at interaction " +
                                       std::to_string(*it) + ": " +
                                       status.message());
    }
  }
  TINPROV_HISTOGRAM_OBSERVE("lazy.cone_vertices", cone_vertices);
  TINPROV_HISTOGRAM_OBSERVE("lazy.cone_interactions", cone.size());
  if (replayed != nullptr) *replayed = cone.size();
  return (*tracker)->Provenance(v);
}

}  // namespace tinprov
