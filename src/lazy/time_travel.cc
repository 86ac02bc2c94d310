#include "lazy/time_travel.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/interaction_stream.h"

namespace tinprov {

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::Build(
    const Tin& tin, PolicyKind kind, size_t snapshot_interval) {
  const size_t n = tin.num_vertices();
  return Build(
      tin, [kind, n] { return CreateTracker(kind, n); }, snapshot_interval);
}

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::Build(
    const Tin& tin, TrackerFactory factory, size_t snapshot_interval) {
  auto index =
      NewStreaming(tin.num_vertices(), std::move(factory), snapshot_interval);
  if (!index.ok()) return index.status();
  // The same Observe() path the streaming form uses; the index copies
  // the borrowed log as it goes.
  for (const Interaction& interaction : tin.interactions()) {
    const Status status = (*index)->Observe(interaction);
    if (!status.ok()) return status;
  }
  const Status status = (*index)->Finalize();
  if (!status.ok()) return status;
  return index;
}

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::NewStreaming(
    size_t num_vertices, TrackerFactory factory, size_t snapshot_interval) {
  if (!factory) {
    return Status::InvalidArgument("time-travel index needs a factory");
  }
  const size_t interval = snapshot_interval == 0 ? 1 : snapshot_interval;
  std::unique_ptr<TimeTravelIndex> index(
      new TimeTravelIndex(num_vertices, std::move(factory), interval));
  index->build_tracker_ = index->factory_();
  if (index->build_tracker_ == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  return index;
}

Status TimeTravelIndex::Observe(const Interaction& interaction) {
  if (finalized()) {
    return Status::FailedPrecondition(
        "time-travel index is finalized — no further interactions");
  }
  const size_t observed = log_.size();
  if (interaction.t < watermark()) {
    return Status::InvalidArgument(
        "time-travel build at interaction " + std::to_string(observed) +
        ": timestamp below the watermark — wrap the source in a "
        "SortingStream");
  }
  const Status status = build_tracker_->Process(interaction);
  if (!status.ok()) {
    return Status(status.code(), "time-travel build at interaction " +
                                     std::to_string(observed) + ": " +
                                     status.message());
  }
  log_.Append(interaction);
  if (log_.size() % interval_ == 0) {
    auto state = std::make_shared<std::vector<uint8_t>>();
    {
      TINPROV_SCOPED_LATENCY_NS("timetravel.save_ns");
      build_tracker_->SaveState(state.get());
    }
    log_.AddCheckpoint(log_.size(), std::move(state));
    TINPROV_COUNTER_ADD("timetravel.snapshots", 1);
    TINPROV_GAUGE_SET("memory.timetravel_bytes", MemoryUsage());
  }
  return Status::Ok();
}

Status TimeTravelIndex::ObserveStream(InteractionStream& stream) {
  Interaction interaction;
  while (stream.Next(&interaction)) {
    const Status status = Observe(interaction);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status TimeTravelIndex::Finalize() {
  if (finalized()) return Status::Ok();
  build_tracker_.reset();
  TINPROV_GAUGE_SET("memory.timetravel_bytes", MemoryUsage());
  return Status::Ok();
}

StatusOr<Buffer> TimeTravelIndex::Provenance(VertexId v, Timestamp t) const {
  obs::TraceSpan span("timetravel.query", "lazy");
  TINPROV_COUNTER_ADD("timetravel.queries", 1);
  if (!finalized()) {
    return Status::FailedPrecondition(
        "time-travel index is still ingesting — call Finalize() first");
  }
  if (v >= num_vertices_) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  auto tracker = log_.Replay(factory_, log_.UpperBound(t));
  if (!tracker.ok()) return tracker.status();
  return (*tracker)->Provenance(v);
}

Status TimeTravelIndex::SaveFinalState(std::vector<uint8_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("null output buffer");
  }
  if (!finalized()) {
    return Status::FailedPrecondition(
        "time-travel index is still ingesting — call Finalize() first");
  }
  auto tracker = log_.Replay(factory_, log_.size());
  if (!tracker.ok()) return tracker.status();
  (*tracker)->SaveState(out);
  return Status::Ok();
}

size_t TimeTravelIndex::MemoryUsage() const {
  return log_.log_bytes() + log_.checkpoint_bytes() +
         log_.num_checkpoints() * sizeof(size_t);
}

}  // namespace tinprov
