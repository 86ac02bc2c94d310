#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <utility>

#include "obs/metrics.h"

namespace perfbench {

using tinprov::Buffer;
using tinprov::ProvPair;
using tinprov::VertexId;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void CheckFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

void Check(bool ok, const std::string& what) {
  if (!ok) CheckFailed(what);
}

void Refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: REFUSED: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(4);
}

void Require(const tinprov::Status& status, const std::string& context) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", context.c_str(),
               status.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(5);
}

OpCounts& Ops() {
  static OpCounts counts;
  return counts;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

ProcStats ReadProcStats() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcStats stats;
  stats.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
  stats.minor_faults = static_cast<double>(usage.ru_minflt);
  return stats;
}

// ---- RegistryWindow ----------------------------------------------------

RegistryWindow::RegistryWindow() {
  auto& registry = tinprov::obs::MetricsRegistry::Global();
  for (const auto& entry : registry.HistogramSnapshots()) {
    registry.GetHistogram(entry.first)->Reset();
  }
  for (const auto& entry : registry.CounterValues()) {
    counters_[entry.first] = entry.second;
  }
}

double RegistryWindow::Counter(const std::string& name) const {
  const uint64_t now =
      tinprov::obs::MetricsRegistry::Global().GetCounter(name)->Value();
  const auto it = counters_.find(name);
  const uint64_t base = it == counters_.end() ? 0 : it->second;
  return static_cast<double>(now - base);
}

double RegistryWindow::Gauge(const std::string& name) {
  return tinprov::obs::MetricsRegistry::Global().GetGauge(name)->Value();
}

double RegistryWindow::HistSum(const std::string& name) {
  return static_cast<double>(
      tinprov::obs::MetricsRegistry::Global().GetHistogram(name)->Sum());
}

double RegistryWindow::HistPercentile(const std::string& name, double p) {
  return tinprov::obs::MetricsRegistry::Global().GetHistogram(name)->Percentile(
      p);
}

// ---- Tracer ------------------------------------------------------------

namespace {

uint64_t ThreadTag() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t tag = next.fetch_add(1);
  return tag;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int Tracer::Begin(const char* name, const char* layer, int parent, bool path) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = NowNs();
  span.parent = parent;
  span.path = path;
  span.thread = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Attribute(int span, const char* layer, double seconds) {
  if (span < 0 || seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  attributions_.push_back({span, layer, seconds});
}

std::map<std::string, double> Tracer::PathSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.empty()) return {};
  // The blocking path is the span tree of the thread that opened the
  // first root span; the open-loop client's spans run beside it.
  const uint64_t main_thread = spans_.front().thread;
  auto on_path = [main_thread](const Span& span) {
    return span.path && span.thread == main_thread;
  };
  // Children covered per span: same-thread children are sequential, so
  // their durations sum to the covered part of the parent's interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    if (parent.thread != span.thread) continue;
    covered[static_cast<size_t>(span.parent)] +=
        NsToSeconds(span.end_ns - span.start_ns);
  }
  std::map<std::string, double> self;
  for (const Attribution& a : attributions_) {
    const Span& span = spans_[static_cast<size_t>(a.span)];
    if (!on_path(span)) continue;
    covered[static_cast<size_t>(a.span)] += a.seconds;
    self[a.layer] += a.seconds;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!on_path(span)) continue;
    const double own = NsToSeconds(span.end_ns - span.start_ns) - covered[i];
    self[span.layer] += std::max(0.0, own);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"run_id\":\"" << run_id_ << "\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << JsonEscape(span.name) << "\",\"cat\":\""
        << JsonEscape(span.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.thread << ",\"ts\":" << (span.start_ns - origin) / 1000.0
        << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"run\":\"" << run_id_ << "\",\"path\":"
        << (span.path ? "true" : "false") << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- client ------------------------------------------------------------

VertexPicker::VertexPicker(size_t num_vertices, double skew, uint64_t seed)
    : rng_(seed), zipf_(num_vertices, skew), perm_(num_vertices) {
  std::iota(perm_.begin(), perm_.end(), VertexId{0});
  for (size_t i = perm_.size(); i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng_.NextBounded(i)]);
  }
}

// ZipfDistribution draws ranks in [0, n); rank 0 is the most queried.
VertexId VertexPicker::Next() { return perm_[zipf_(rng_)]; }

OpenLoopClient::OpenLoopClient(Options options, VertexPicker picker,
                               QueryFn query, VisibleFn visible,
                               const std::vector<int64_t>* pull_ns,
                               Tracer* tracer, int parent_span)
    : options_(options),
      picker_(std::move(picker)),
      query_(std::move(query)),
      visible_(std::move(visible)),
      pull_ns_(pull_ns),
      tracer_(tracer),
      parent_span_(parent_span) {}

ClientResult OpenLoopClient::Run(size_t until_visible) {
  // The client owns one core and spins: a sleeping client would add the
  // scheduler's wake-up delay to every latency it reports. It polls the
  // visible prefix every 20 us, not continuously, so its reads of the
  // published epoch do not contend with the writer's publishes.
  constexpr int64_t kPollNs = 20'000;
  ClientResult result;
  const int64_t period_ns = static_cast<int64_t>(1e9 / options_.rate);
  const int64_t start = NowNs();
  int64_t due = start;
  int64_t next_poll = start;
  size_t seen = 0;
  bool queries_done = false;
  for (;;) {
    const int64_t now = NowNs();
    if (visible_ && now >= next_poll) {
      next_poll = now + kPollNs;
      const size_t visible = std::min(visible_(), pull_ns_->size());
      for (; seen < visible; ++seen) {
        result.lag_ms.push_back(static_cast<double>(now - (*pull_ns_)[seen]) /
                                1e6);
      }
    }
    if (!queries_done && (stop_.load(std::memory_order_acquire) ||
                          (options_.max_queries > 0 &&
                           result.queries >= options_.max_queries))) {
      queries_done = true;
    }
    if (queries_done && seen >= until_visible) break;
    if (queries_done || now < due) continue;

    const QueryType type = result.queries % 2 == 0 ? QueryType::kProvenance
                                                   : QueryType::kTopOrigins;
    const VertexId v = picker_.Next();
    const int span = tracer_ != nullptr
                         ? tracer_->Begin("query", "client", parent_span_)
                         : -1;
    Answer answer = query_(type, v);
    if (tracer_ != nullptr) tracer_->End(span);
    const int64_t end = NowNs();
    Ops().Record(answer.ok);
    result.latency_us.push_back(static_cast<double>(end - due) / 1e3);
    result.lateness_us.push_back(static_cast<double>(now - due) / 1e3);
    if (answer.ok && result.queries % options_.sample_every == 0) {
      Sample sample;
      sample.type = type;
      sample.v = v;
      sample.prefix = answer.prefix;
      sample.buffer = std::move(answer.buffer);
      result.samples.push_back(std::move(sample));
    }
    ++result.queries;
    due += period_ns;
  }
  return result;
}

bool SameBuffer(const Buffer& a, const Buffer& b) {
  return a.total == b.total && a.entries.size() == b.entries.size() &&
         std::equal(a.entries.begin(), a.entries.end(), b.entries.begin());
}

Buffer TopK(Buffer buffer, size_t k) {
  auto order = [](const ProvPair& a, const ProvPair& b) {
    if (a.quantity != b.quantity) return a.quantity > b.quantity;
    return a.origin < b.origin;
  };
  std::vector<ProvPair>& entries = buffer.entries;
  if (k < entries.size()) {
    std::partial_sort(entries.begin(), entries.begin() + k, entries.end(),
                      order);
    entries.resize(k);
  } else {
    std::sort(entries.begin(), entries.end(), order);
  }
  return buffer;
}

bool Near(double a, double b, double rel) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel * scale;
}

}  // namespace perfbench
