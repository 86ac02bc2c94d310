// RecoveryManager: turns a crash-interrupted storage directory back
// into a running tracker, bit-identical to a clean replay of whatever
// prefix the disk actually kept.
//
// The contract, end to end:
//   1. Segments are scanned in sequence order, every record
//      re-checksummed. The trusted log is the longest prefix of
//      interactions backed by intact records; the first torn tail or
//      checksum mismatch ends it. A later segment extends the trusted
//      log only if its base_prefix equals the trusted length exactly —
//      which is precisely what a post-recovery writer produces, so a
//      torn segment followed by a resumed one reads as one continuous
//      log, while bytes the crashed process never durably wrote are
//      truncated, never interpreted.
//   2. Every snapshot whose prefix fits inside the trusted log becomes
//      a checkpoint of the returned CheckpointedLog (corrupt snapshots
//      are skipped — they cost replay time, not correctness; a snapshot
//      claiming a prefix the log cannot back is ignored the same way).
//   3. CheckpointedLog::Replay restores the newest checkpoint and
//      replays the log tail past it; the replayed tracker itself is
//      returned, ready to continue ingesting (a restarted service
//      adopts it as its live tracker).
// The result equals Tracker::Process over trusted[0, prefix) on a fresh
// tracker — SaveState-identical, by the bit-exact-resume contract that
// makes the snapshot shortcut invisible — and the returned log answers
// any earlier prefix the same way. The crash test (test_storage /
// scripts/crash_smoke.sh) holds this equality under every
// FaultInjectingEnv mode and under kill -9.
#ifndef TINPROV_STORAGE_RECOVERY_H_
#define TINPROV_STORAGE_RECOVERY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "lazy/checkpointed_log.h"
#include "policies/tracker.h"
#include "storage/env.h"
#include "util/status.h"

namespace tinprov::storage {

/// The trusted contents of a storage directory's segment files.
struct ReadLogResult {
  /// Interactions backed by intact checksummed records, global order,
  /// appended segment by segment; no checkpoints.
  CheckpointedLog log;
  size_t segments_scanned = 0;
  /// Segments (or segment suffixes) past the first break — data the
  /// writer may have produced but the trusted prefix cannot reach.
  size_t segments_dropped = 0;
  /// File names of those dropped whole segments.
  std::vector<std::string> dropped_segments;
  size_t torn_tails = 0;       // incomplete trailing records (crash)
  size_t corrupt_records = 0;  // checksum mismatches (bit rot)
  /// One past the highest segment sequence number present — where a new
  /// writer must continue so file names never collide.
  uint64_t next_seq = 0;
};

/// Scans every segment under `dir`. I/O errors fail the call; torn and
/// corrupt data never do — they bound the trusted prefix.
Status ReadLog(Env* env, const std::string& dir, ReadLogResult* out);

struct RecoveredState {
  /// The trusted log, [0, prefix), with every valid snapshot at or
  /// below prefix as a checkpoint — the directory's whole history.
  CheckpointedLog log;
  uint64_t prefix = 0;
  /// Timestamp of the last trusted interaction; the recovered state is
  /// complete up to and including it.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  /// The state after log[0, prefix): a tracker from Recover's factory,
  /// SaveState-identical to a clean replay of the trusted log. Continue
  /// ingesting into it to resume bit-exactly.
  std::unique_ptr<Tracker> tracker;
  uint64_t replayed = 0;  // delta replayed past the newest checkpoint
  size_t snapshots_skipped = 0;  // corrupt snapshots passed over
  size_t torn_tails = 0;
  size_t corrupt_records = 0;
  /// Segments past the first break (ReadLogResult::dropped_segments).
  std::vector<std::string> dropped_segments;
  uint64_t next_seq = 0;  // DurableLog::Open's start_seq
};

class RecoveryManager {
 public:
  /// `env` is borrowed. A missing `dir` recovers to the empty state.
  RecoveryManager(Env* env, std::string dir);

  /// Full recovery for a tracker built by `factory`: trusted log scan,
  /// every valid snapshot loaded as a checkpoint, the newest restored
  /// and the delta replayed into the returned tracker. Reads only.
  /// Snapshot-restore or replay failures are real errors (config
  /// mismatch between the factory and the writer) and propagate.
  StatusOr<RecoveredState> Recover(const TrackerFactory& factory) const;

  /// Prepares the directory for a writer resuming at `recovered.prefix`,
  /// before its first append: deletes the segments dropped past the
  /// first break (they would end the next recovery before the resumed
  /// segments) and every snapshot above the prefix (it would be adopted
  /// over the resumed log).
  Status DiscardUntrusted(const RecoveredState& recovered) const;

 private:
  Env* env_;
  std::string dir_;
};

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_RECOVERY_H_
