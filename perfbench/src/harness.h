// Measurement plumbing shared by the perfbench workloads: clocks and
// order statistics, failure exits, process counters (RSS high-water
// mark, getrusage), per-iteration deltas of the obs::MetricsRegistry,
// an in-memory span tracer, and the open-loop query client.
//
// Everything here calls only the tinprov library's public headers; the
// harness adds no instrumentation to the library itself.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/types.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

// ---- clocks and order statistics -------------------------------------

int64_t NowNs();  // std::chrono::steady_clock

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> values);

// Nearest-rank percentile, p in [0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// ---- exits ------------------------------------------------------------
//
// Exit codes: 2 bad arguments, 3 a correctness check failed, 4 a
// degenerate setup was refused, 5 an operation the run depends on
// failed. None of them prints a result line.

[[noreturn]] void CheckFailed(const std::string& what);
void Check(bool ok, const std::string& what);
[[noreturn]] void Refuse(const std::string& why);
void Require(const tinprov::Status& status, const std::string& context);

// Counts every operation the workload issues against the library and
// the ones that returned a non-OK status (the result's attempted and
// failed fields).
struct OpCounts {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};
OpCounts& Ops();

// ---- process counters --------------------------------------------------

// Resets the kernel's peak-RSS counter (VmHWM) to the current RSS.
void ResetPeakRss();
double PeakRssMb();  // VmHWM

struct ProcStats {
  double sys_s = 0.0;
  double minor_faults = 0.0;
};
ProcStats ReadProcStats();  // getrusage(RUSAGE_SELF)

// ---- metrics registry deltas -------------------------------------------

// Per-iteration view of obs::MetricsRegistry: construction resets every
// histogram and snapshots every counter, so counters read as deltas and
// histograms cover only this iteration. Gauges are levels.
class RegistryWindow {
 public:
  RegistryWindow();
  double Counter(const std::string& name) const;  // delta
  static double Gauge(const std::string& name);
  static double HistSum(const std::string& name);
  static double HistPercentile(const std::string& name, double p);

 private:
  std::map<std::string, uint64_t> counters_;
};

// ---- tracing -----------------------------------------------------------

// Spans recorded by the harness around its calls into each layer. Spans
// live in memory and are written out once, at the end of the run; all
// spans of one run carry the run's id. A disabled tracer records
// nothing and every call is a cheap no-op.
class Tracer {
 public:
  Tracer(bool enabled, uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}

  // Returns the span's id, or -1 when disabled. `parent` is -1 for a
  // root span. `path` marks spans on the result's blocking path; the
  // verification work that runs between timed phases is off it.
  int Begin(const char* name, const char* layer, int parent,
            bool path = true);
  void End(int id);

  // Time measured inside span `span` by the library's own histograms
  // (for example epoch publishing inside the writer's ingest): moved
  // from the span's layer to `layer` when self times are computed.
  void Attribute(int span, const char* layer, double seconds);

  // Self time per layer over the blocking-path spans (the first root
  // span's thread): each span's duration minus what its children and
  // attributions cover.
  std::map<std::string, double> PathSelfSeconds() const;

  // chrome://tracing JSON ("X" events; args carry id, parent, run).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    bool path = true;
    uint64_t thread = 0;
  };
  struct Attribution {
    int span;
    std::string layer;
    double seconds;
  };

  bool enabled_;
  uint64_t run_id_;
  mutable std::mutex mu_;  // guards spans_ and attributions_
  std::vector<Span> spans_;
  std::vector<Attribution> attributions_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer, int parent,
             bool path = true)
      : tracer_(tracer), id_(tracer.Begin(name, layer, parent, path)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- the query client --------------------------------------------------

enum class QueryType { kProvenance, kTopOrigins, kProvenanceAt };

// One answer kept for verification outside the timed phases.
struct Sample {
  QueryType type = QueryType::kProvenance;
  tinprov::VertexId v = 0;
  tinprov::Timestamp t = 0;
  size_t prefix = 0;  // global log prefix the answer claims to reflect
  tinprov::Buffer buffer;
};

struct Answer {
  bool ok = false;
  size_t prefix = 0;  // global prefix of the state that answered
  tinprov::Buffer buffer;
};

// Zipf-skewed vertex choice from the benchmark's seeded RNG.
class VertexPicker {
 public:
  VertexPicker(size_t num_vertices, double skew, uint64_t seed);
  tinprov::VertexId Next();

 private:
  tinprov::Rng rng_;
  tinprov::ZipfDistribution zipf_;
  std::vector<tinprov::VertexId> perm_;
};

struct ClientResult {
  std::vector<double> latency_us;   // from when each query was due
  std::vector<double> lateness_us;  // how late each query was issued
  std::vector<double> lag_ms;       // visibility lag per interaction
  std::vector<Sample> samples;
  size_t queries = 0;
};

// Single-threaded open-loop client: issues Provenance(v) and
// TopOrigins(v, 10) alternately at a fixed rate, each timed from when it
// was due, and between queries watches the visible prefix to time how
// long each pulled interaction took to become visible.
class OpenLoopClient {
 public:
  using QueryFn = std::function<Answer(QueryType, tinprov::VertexId)>;
  // Visible prefix, relative to the stream whose pulls are stamped.
  using VisibleFn = std::function<size_t()>;

  struct Options {
    double rate = 2000.0;        // queries per second
    size_t sample_every = 16;    // keep every n-th answer for checks
    size_t max_queries = 0;      // 0 = until Stop()
  };

  OpenLoopClient(Options options, VertexPicker picker, QueryFn query,
                 VisibleFn visible, const std::vector<int64_t>* pull_ns,
                 Tracer* tracer, int parent_span);

  // Runs on the calling thread until Stop() (or max_queries) and until
  // `until_visible` interactions of the stamped stream are visible.
  ClientResult Run(size_t until_visible);
  void Stop() { stop_.store(true, std::memory_order_release); }

 private:
  Options options_;
  VertexPicker picker_;
  QueryFn query_;
  VisibleFn visible_;
  const std::vector<int64_t>* pull_ns_;
  Tracer* tracer_;
  int parent_span_;
  std::atomic<bool> stop_{false};
};

// Buffers compare bit-identically: same total, same entries in order.
bool SameBuffer(const tinprov::Buffer& a, const tinprov::Buffer& b);

// TopOrigins(v, k) computed from a full buffer, in the service's order
// (quantity descending, origin ascending).
tinprov::Buffer TopK(tinprov::Buffer buffer, size_t k);

// |a - b| within a relative tolerance of the larger magnitude.
bool Near(double a, double b, double rel = 1e-6);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
