// Shared helpers for the table/figure reproduction harnesses.
//
// Every harness accepts the TINPROV_SCALE environment variable (default 1.0
// = laptop-sized presets, see datagen/presets.h); raise it to approach
// paper-sized runs. Output is printed as aligned tables whose rows mirror
// the corresponding paper table or figure series.
//
// Setting TINPROV_BENCH_JSON=<path> additionally records every measured
// row as a google-benchmark-format JSON file (the BENCH_*.json
// trajectory points; see scripts/bench_baseline.sh), so perf history is
// machine-comparable across commits.
#ifndef TINPROV_BENCH_BENCH_UTIL_H_
#define TINPROV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "obs/export.h"
#include "util/cpu.h"
#include "util/status.h"

namespace tinprov::bench {

/// The compiler that produced this binary, for the host-shape check in
/// bench_compare.py (native vs portable and gcc vs clang codegen are
/// not comparable runs).
inline const char* CompilerVersion() {
#if defined(__clang_version__)
  return "clang " __clang_version__;
#elif defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

/// Whether the binary was built with TINPROV_NATIVE=ON (-march=native).
inline constexpr bool kNativeBuild =
#if defined(TINPROV_NATIVE_BUILD)
    true;
#else
    false;
#endif

/// Scale factor from $TINPROV_SCALE, default 1.0.
inline double GetScale() {
  const char* env = std::getenv("TINPROV_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

/// Generates a preset dataset at the harness scale, aborting on failure
/// (benchmarks have no meaningful recovery path).
inline Tin MustMakeDataset(DatasetKind kind, double scale) {
  auto tin = MakeDataset(kind, scale);
  if (!tin.ok()) {
    std::fprintf(stderr, "dataset generation failed for %s: %s\n",
                 std::string(DatasetName(kind)).c_str(),
                 tin.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(tin).value();
}

/// Memory ceiling for the dense proportional tracker, mirroring the paper's
/// feasibility pattern at default scale: dense fits only on the
/// small-vertex-set networks (Flights, Taxis), exactly as in Tables 7-8.
inline constexpr size_t kDenseMemoryLimit = size_t{128} * 1024 * 1024;

/// Prints a section header for a reproduced table/figure.
inline void PrintHeader(const char* experiment_id, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("(synthetic stand-in datasets; compare shapes, not absolutes)\n");
  std::printf("==============================================================\n");
}

/// Collects named measurements and, when $TINPROV_BENCH_JSON names a
/// path, writes them on destruction in the shape google-benchmark emits
/// with --benchmark_format=json: a "context" object and a "benchmarks"
/// array whose entries carry name / real_time / time_unit (plus our
/// items_per_second, peak_memory and allocator_bytes counters).
/// scripts/bench_compare.py consumes either producer interchangeably.
/// With the variable unset the reporter is inert, so instrumented
/// benches cost nothing in normal table runs.
class JsonBenchReporter {
 public:
  explicit JsonBenchReporter(const char* executable) {
    const char* path = std::getenv("TINPROV_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') path_ = path;
    executable_ = executable;
  }

  JsonBenchReporter(const JsonBenchReporter&) = delete;
  JsonBenchReporter& operator=(const JsonBenchReporter&) = delete;

  bool active() const { return !path_.empty(); }

  /// Records one measurement. `items_per_second`, `peak_memory` and
  /// `allocator_bytes` are omitted from the JSON when zero.
  void Record(const std::string& name, double real_seconds,
              double items_per_second = 0.0, size_t peak_memory = 0,
              size_t allocator_bytes = 0) {
    if (!active()) return;
    entries_.push_back({name, real_seconds, items_per_second, peak_memory,
                        allocator_bytes});
  }

  ~JsonBenchReporter() {
    if (!active()) return;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    char date[32] = "";
    const std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    if (gmtime_r(&now, &tm_buf) != nullptr) {
      std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_buf);
    }
    std::fprintf(out,
                 "{\n"
                 "  \"context\": {\n"
                 "    \"date\": \"%s\",\n"
                 "    \"executable\": \"%s\",\n"
                 "    \"num_cpus\": %u,\n"
                 "    \"tinprov_native\": %s,\n"
                 "    \"simd\": \"%s\",\n"
                 "    \"compiler\": \"%s\",\n"
                 "    \"tinprov_scale\": %g\n"
                 "  },\n"
                 "  \"benchmarks\": [\n",
                 date, Escaped(executable_).c_str(),
                 std::thread::hardware_concurrency(),
                 kNativeBuild ? "true" : "false",
                 cpu::SimdLevelName(cpu::ActiveSimdLevel()),
                 Escaped(CompilerVersion()).c_str(), GetScale());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(out,
                   "    {\n"
                   "      \"name\": \"%s\",\n"
                   "      \"run_name\": \"%s\",\n"
                   "      \"run_type\": \"iteration\",\n"
                   "      \"repetitions\": 1,\n"
                   "      \"iterations\": 1,\n"
                   "      \"real_time\": %.9g,\n"
                   "      \"cpu_time\": %.9g,\n"
                   "      \"time_unit\": \"s\"",
                   Escaped(e.name).c_str(), Escaped(e.name).c_str(),
                   e.real_seconds, e.real_seconds);
      if (e.items_per_second > 0.0) {
        std::fprintf(out, ",\n      \"items_per_second\": %.9g",
                     e.items_per_second);
      }
      if (e.peak_memory > 0) {
        std::fprintf(out, ",\n      \"peak_memory\": %zu", e.peak_memory);
      }
      if (e.allocator_bytes > 0) {
        std::fprintf(out, ",\n      \"allocator_bytes\": %zu",
                     e.allocator_bytes);
      }
      std::fprintf(out, "\n    }%s\n", i + 1 < entries_.size() ? "," : "");
    }
    // The engine-metrics snapshot rides along with the timings, so
    // baseline JSONs answer "how many interactions / snapshots / bytes"
    // and not just "how long".
    std::fprintf(out, "  ],\n  \"metrics\": %s\n}\n",
                 obs::MetricsJson().c_str());
    std::fclose(out);
    std::printf("wrote %zu benchmark records to %s\n", entries_.size(),
                path_.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double real_seconds;
    double items_per_second;
    size_t peak_memory;
    size_t allocator_bytes;
  };

  static std::string Escaped(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::string executable_;
  std::vector<Entry> entries_;
};

}  // namespace tinprov::bench

#endif  // TINPROV_BENCH_BENCH_UTIL_H_
