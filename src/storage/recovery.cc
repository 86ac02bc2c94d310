#include "storage/recovery.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "storage/log_format.h"
#include "storage/segment.h"
#include "storage/snapshot_store.h"

namespace tinprov::storage {

Status ReadLog(Env* env, const std::string& dir, ReadLogResult* out) {
  *out = ReadLogResult();
  if (!env->FileExists(dir)) return Status::Ok();
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();

  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    segments.push_back({seq, name});
    out->next_seq = std::max(out->next_seq, seq + 1);
  }
  std::sort(segments.begin(), segments.end());

  bool broken = false;
  for (const auto& [seq, name] : segments) {
    if (broken) {
      ++out->segments_dropped;
      out->dropped_segments.push_back(name);
      continue;
    }
    SegmentReadResult segment;
    const Status status = ReadSegment(env, JoinPath(dir, name), &segment);
    if (!status.ok()) return status;
    ++out->segments_scanned;

    // Continuity: a segment extends the trusted log only from exactly
    // its end. After a truncated tail, only a writer that recovered to
    // that same prefix (and so opened its segment there) lines up.
    if (segment.base_prefix != out->log.size()) {
      if (segment.end == SegmentEnd::kTorn && segment.interactions.empty() &&
          !segment.sealed) {
        // A header-less or header-only file (crash during segment
        // creation) carries no data and no position claim worth
        // honouring; count the tear and keep scanning.
        ++out->torn_tails;
        continue;
      }
      broken = true;
      ++out->segments_dropped;
      out->dropped_segments.push_back(name);
      ++out->corrupt_records;
      TINPROV_COUNTER_ADD("storage.segment_corrupt", 1);
      continue;
    }

    for (const Interaction& interaction : segment.interactions) {
      out->log.Append(interaction);
    }
    if (segment.end == SegmentEnd::kTorn) {
      ++out->torn_tails;
      TINPROV_COUNTER_ADD("storage.segment_torn", 1);
    } else if (segment.end == SegmentEnd::kCorrupt) {
      ++out->corrupt_records;
      TINPROV_COUNTER_ADD("storage.segment_corrupt", 1);
    }
  }
  return Status::Ok();
}

RecoveryManager::RecoveryManager(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

StatusOr<RecoveredState> RecoveryManager::Recover(
    const TrackerFactory& factory) const {
  TINPROV_SCOPED_LATENCY_NS("storage.recovery_ns");
  RecoveredState out;

  ReadLogResult log;
  Status status = ReadLog(env_, dir_, &log);
  if (!status.ok()) return status;
  out.log = std::move(log.log);
  out.prefix = out.log.size();
  if (!out.log.empty()) out.watermark = out.log[out.log.size() - 1].t;
  out.torn_tails = log.torn_tails;
  out.corrupt_records = log.corrupt_records;
  out.dropped_segments = std::move(log.dropped_segments);
  out.next_seq = log.next_seq;

  if (env_->FileExists(dir_)) {
    SnapshotStore store(env_, dir_);
    auto loaded = store.LoadAllValid(out.prefix);
    if (!loaded.ok()) return loaded.status();
    out.snapshots_skipped = loaded->corrupt_skipped;
    for (LoadedSnapshot& snapshot : loaded->snapshots) {
      out.log.AddCheckpoint(
          snapshot.prefix,
          std::make_shared<const std::vector<uint8_t>>(
              std::move(snapshot.state)));
    }
  }

  size_t replayed = 0;
  auto tracker = out.log.Replay(factory, out.prefix, &replayed);
  if (!tracker.ok()) {
    return Status(tracker.status().code(),
                  "recovery (is the recovery spec configured like the "
                  "writer's?): " +
                      tracker.status().message());
  }
  out.replayed = replayed;
  out.tracker = *std::move(tracker);

  TINPROV_COUNTER_ADD("storage.recoveries", 1);
  TINPROV_GAUGE_SET("storage.recovered_interactions", out.prefix);
  TINPROV_GAUGE_SET("storage.recovery_replayed", out.replayed);
  return out;
}

Status RecoveryManager::DiscardUntrusted(
    const RecoveredState& recovered) const {
  if (!env_->FileExists(dir_)) return Status::Ok();
  for (const std::string& name : recovered.dropped_segments) {
    const Status status = env_->DeleteFile(JoinPath(dir_, name));
    if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
  }
  SnapshotStore store(env_, dir_);
  auto metas = store.List();
  if (!metas.ok()) return metas.status();
  for (const SnapshotMeta& meta : *metas) {
    if (meta.prefix <= recovered.prefix) continue;
    const Status status = env_->DeleteFile(JoinPath(dir_, meta.name));
    if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
  }
  return Status::Ok();
}

}  // namespace tinprov::storage
