// SlowQueryLog: a bounded structured ring of the slowest queries the
// serve layer answered — the "what was slow and why" page of the ops
// plane, served at /tracez?slow=1 by obs/http.h.
//
// ProvenanceService::Execute tags every query with a process-unique id
// and records the ones whose latency crosses the service's threshold
// (ServeOptions::slow_query_ns). A record carries enough to diagnose
// the outlier without a debugger: the query kind and vertex, the
// latency, how many log interactions the answer had to delta-replay
// (0 for latest-epoch answers — the fast path), and the epoch the
// answer resolved against.
//
// The ring is fixed-capacity and mutex-guarded; when full, the oldest
// record is overwritten and dropped() counts the loss, so a long-lived
// service keeps its most recent window of slow queries. All methods are
// thread-safe.
#ifndef TINPROV_OBS_SLOWLOG_H_
#define TINPROV_OBS_SLOWLOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tinprov::obs {

struct SlowQueryRecord {
  uint64_t query_id = 0;
  /// Stable short name of the query kind ("provenance",
  /// "provenance_at", "top_origins"); must outlive the process
  /// (string literal), the log stores the pointer.
  const char* kind = "";
  uint64_t vertex = 0;
  int64_t latency_ns = 0;
  /// Log interactions delta-replayed to build the answer; 0 when the
  /// query resolved from a published epoch directly.
  uint64_t replayed_interactions = 0;
  /// The epoch the answer was resolved against.
  uint64_t epoch_seq = 0;
  uint64_t epoch_prefix = 0;
};

class SlowQueryLog {
 public:
  /// The process-wide log (deliberately leaked, like the registries).
  static SlowQueryLog& Global();

  explicit SlowQueryLog(size_t capacity = kDefaultCapacity);
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Process-unique, monotonically increasing query id; never 0.
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends one record (the caller has already applied its threshold).
  void Record(const SlowQueryRecord& record);

  /// Oldest-first copy of the ring.
  std::vector<SlowQueryRecord> Snapshot() const;

  /// The ring as strict JSON, oldest first:
  /// {"capacity":..,"recorded":..,"dropped":..,"queries":[{"id":..,
  ///  "kind":"..","vertex":..,"latency_ns":..,"replayed":..,
  ///  "epoch_seq":..,"epoch_prefix":..}, ...]}
  std::string Json() const;

  /// Rebounds the ring (drops current contents). Never 0.
  void SetCapacity(size_t capacity);

  size_t size() const;
  /// Records overwritten because the ring was full.
  uint64_t dropped() const;
  /// Records ever passed to Record().
  uint64_t recorded() const;

  /// Test support: drops every record and zeroes the accounting (the id
  /// counter keeps advancing — ids stay process-unique).
  void Clear();

 private:
  static constexpr size_t kDefaultCapacity = 256;

  mutable std::mutex mu_;
  std::vector<SlowQueryRecord> ring_;
  size_t capacity_;
  size_t next_ = 0;        // ring slot the next record lands in
  uint64_t recorded_ = 0;  // total ever recorded
  uint64_t dropped_ = 0;   // overwritten records
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace tinprov::obs

#endif  // TINPROV_OBS_SLOWLOG_H_
