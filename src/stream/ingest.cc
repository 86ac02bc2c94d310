#include "stream/ingest.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace tinprov {

Status TimeOrderViolation(size_t batch, size_t index, Timestamp t,
                          Timestamp watermark) {
  return Status::InvalidArgument(
      "stream batch " + std::to_string(batch) + " interaction " +
      std::to_string(index) + " has timestamp " + std::to_string(t) +
      " below the watermark " + std::to_string(watermark) +
      " — wrap the source in a SortingStream");
}

StreamIngestor::StreamIngestor(Tracker* tracker, IngestOptions options)
    : tracker_(tracker),
      options_(options),
      pull_watermark_(options.initial_watermark) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  batch_.reserve(options_.batch_size);
}

Status StreamIngestor::IngestBatch(InteractionStream& stream, bool* done) {
  obs::TraceSpan span("ingest.batch", "ingest");
  TINPROV_SCOPED_LATENCY_NS("ingest.batch_ns");
  Stopwatch watch;
  if (!reserved_) {
    reserved_ = true;
    tracker_->ReserveHint(stream.Stats());
  }

  batch_.clear();
  Interaction interaction;
  while (batch_.size() < options_.batch_size && stream.Next(&interaction)) {
    if (interaction.t < pull_watermark_) {
      return TimeOrderViolation(stats_.batches,
                                stats_.interactions + batch_.size(),
                                interaction.t, pull_watermark_);
    }
    // The pull-side watermark advances immediately so the order check
    // also covers disorder *within* this batch; the published
    // stats_.watermark only moves once the batch has been applied, so
    // it never claims state that a failed Process() left unbuilt.
    pull_watermark_ = std::max(pull_watermark_, interaction.t);
    batch_.push_back(interaction);
  }
  *done = batch_.size() < options_.batch_size;
  if (batch_.empty()) {
    stats_.seconds += watch.ElapsedSeconds();
    return Status::Ok();
  }

  stats_.peak_batch = std::max(stats_.peak_batch, batch_.size());
  for (size_t i = 0; i < batch_.size(); ++i) {
    const Status status = tracker_->Process(batch_[i]);
    if (!status.ok()) {
      return Status(status.code(),
                    "ingest at interaction " +
                        std::to_string(stats_.interactions + i) + ": " +
                        status.message());
    }
  }
  if (options_.sink != nullptr) {
    // After the apply loop: the sink persists only what the tracker's
    // state already reflects, so recovered state is always a replay of
    // a durable prefix, never of an un-applied write-ahead.
    const Status status = options_.sink->OnBatch(batch_.data(), batch_.size());
    if (!status.ok()) {
      return Status(status.code(),
                    "batch sink at batch " + std::to_string(stats_.batches) +
                        " (interaction " + std::to_string(stats_.interactions) +
                        "): " + status.message());
    }
  }
  stats_.interactions += batch_.size();
  ++stats_.batches;
  stats_.watermark = std::max(stats_.watermark, batch_.back().t);
  stats_.tracker_peak_memory =
      std::max(stats_.tracker_peak_memory, tracker_->MemoryUsage());
  stats_.seconds += watch.ElapsedSeconds();
  TINPROV_COUNTER_ADD("ingest.interactions", batch_.size());
  TINPROV_COUNTER_ADD("ingest.batches", 1);
  TINPROV_GAUGE_SET("ingest.watermark", stats_.watermark);
  // Pull-side minus published watermark: how far ahead the order check
  // has read past the state the tracker has actually built.
  TINPROV_GAUGE_SET("ingest.watermark_lag", pull_watermark_ - stats_.watermark);
  TINPROV_GAUGE_MAX("ingest.peak_batch", stats_.peak_batch);
  TINPROV_GAUGE_SET("memory.ingest_tracker_bytes", tracker_->MemoryUsage());
  TINPROV_GAUGE_MAX("memory.ingest_tracker_peak_bytes",
                    stats_.tracker_peak_memory);
  // Allocator-level footprint and representation-specific gauges come
  // from the tracker itself (virtual hooks), so every policy reports —
  // the old dynamic_cast probe covered only the pro-rata family.
  TINPROV_GAUGE_SET("memory.ingest_tracker_reserved_bytes",
                    tracker_->MemoryBytes());
  tracker_->PublishMetrics();
  return Status::Ok();
}

Status StreamIngestor::IngestAll(InteractionStream& stream) {
  bool done = false;
  while (!done) {
    const Status status = IngestBatch(stream, &done);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

void RegisterIngestHealthChecks(obs::HealthRegistry& registry,
                                double max_watermark_lag) {
  registry.Register(
      "ingest.watermark_lag",
      obs::GaugeAtMostCheck("ingest.watermark_lag", max_watermark_lag));
}

}  // namespace tinprov
