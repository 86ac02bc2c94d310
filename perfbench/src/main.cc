// perfbench: the tinprov benchmark. One run executes one workload for
// a fixed time against the tinprov library, checks its outputs, and
// prints one JSON result as its last line of standard output.
//
//   perfbench --workload replay-prop|serve-live|durable-restart
//             --seed N --seconds S --trace 0|1 [--data-dir DIR]
//             [--out DIR] [--scale X] [--selftest] [--perturb]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, from iterations that record spans (written to
// --out as chrome://tracing JSON) alternated with untraced ones that
// give the tracing overhead. --scale picks the Bitcoin preset scale
// (default 10; smaller is refused outside the self-test). --selftest
// runs a tiny input; --perturb corrupts one kept answer so the checks
// must fail. perfbench/run.py builds this binary and is the usual
// entry point.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "datagen/presets.h"
#include "harness.h"
#include "serve/service.h"
#include "util/cpu.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics of BENCHMARK.json: every run prints all of them.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_rate", "1/s"},
    {"catchup_rate", "1/s"},
    {"visibility_lag_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Layers that appear on a blocking path (spans plus registry
// attributions); each gets path.<layer>_s and path.<layer>_share.
const char* const kPathLayers[] = {"datagen", "policies", "stream", "parallel",
                                   "serve",   "storage",  "lazy",   "client",
                                   "bench"};

const MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"stream.ingest_s", "s"},
    {"policies.process_s", "s"},
    {"policies.live_bytes", "B"},
    {"policies.reserved_bytes", "B"},
    {"policies.reserved_per_live", "ratio"},
    {"policies.list_len_p99", "count"},
    {"process.minor_faults", "count"},
    {"process.sys_s", "s"},
    {"parallel.catchup_s", "s"},
    {"parallel.shards", "count"},
    {"parallel.busy_share", "ratio"},
    {"parallel.idle_s", "s"},
    {"parallel.steals", "count"},
    {"parallel.speedup", "ratio"},
    {"serve.writer_s", "s"},
    {"serve.publish_s", "s"},
    {"serve.epochs", "count"},
    {"serve.publish_share", "ratio"},
    {"serve.batch_s", "s"},
    {"serve.snapshot_bytes", "B"},
    {"serve.log_bytes", "B"},
    {"serve.delta_interactions_p50", "count"},
    {"serve.history_replay_share", "ratio"},
    {"serve.recover_s", "s"},
    {"serve.resume_rate", "1/s"},
    {"lazy.restores", "count"},
    {"lazy.restore_s", "s"},
    {"lazy.delta_interactions", "count"},
    {"lazy.index_bytes", "B"},
    {"lazy.save_s", "s"},
    {"storage.bytes_per_interaction", "B"},
    {"storage.sync_s", "s"},
    {"storage.snapshot_write_s", "s"},
    {"storage.snapshots_written", "count"},
    {"storage.recovery_s", "s"},
    {"storage.recovery_replayed", "count"},
    {"obs.tracing_overhead", "ratio"},
    {"client.visibility_lag_p99_ms", "ms"},
    {"client.query_p50_us", "us"},
    {"client.query_p99_us", "us"},
    {"client.lateness_p99_us", "us"},
    {"client.queries", "count"},
    {"client.hist_query_p50_ms", "ms"},
    {"client.hist_query_p95_ms", "ms"},
    {"client.hist_queries", "count"},
    {"client.error_rate", "ratio"},
    {"memory.logical_mb", "MB"},
    {"memory.allocator_mb", "MB"},
    {"memory.rss_mb", "MB"},
    {"memory.allocator_per_logical", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "replay-prop|serve-live|durable-restart --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--out DIR] [--scale X] "
               "[--selftest] [--perturb]\n",
               why);
  std::_Exit(2);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

RunConfig ParseArgs(int argc, char** argv, std::string* out_dir) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  double scale = 0.0;  // 0: 10, or the self-test's tiny input
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = config.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      config.trace = v == "1";
      have_trace = true;
    } else if (arg == "--data-dir") {
      config.data_dir = value();
    } else if (arg == "--out") {
      *out_dir = value();
    } else if (arg == "--scale") {
      scale = std::strtod(value().c_str(), nullptr);
      if (!(scale > 0.0)) Usage("--scale must be positive");
    } else if (arg == "--selftest") {
      config.selftest = true;
    } else if (arg == "--perturb") {
      config.perturb = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !KnownWorkload(config.workload)) {
    Usage("--workload must be replay-prop, serve-live or durable-restart");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds (> 0) and --trace are required");
  }
  if (config.selftest) {
    // Tiny input (about 4,500 interactions), every check still on.
    config.scale = 0.1;
    config.offline_query_seconds = 0.05;
    config.hist_queries = 40;
    config.epoch_interval = 128;  // >= 10 epochs on the tiny input
  }
  if (scale > 0.0) config.scale = scale;
  if (config.data_dir.empty()) config.data_dir = "perfbench-data";
  return config;
}

std::string ConfigJson(const RunConfig& config) {
  const tinprov::GeneratorConfig generator =
      tinprov::PresetConfig(tinprov::DatasetKind::kBitcoin, config.scale);
  const tinprov::ServeOptions serve;
  std::string json = "{\"config\":{";
  auto add = [&json](const std::string& key, const std::string& value) {
    if (json.back() != '{') json += ",";
    json += "\"" + key + "\":" + value;
  };
  auto str = [](const std::string& s) { return "\"" + s + "\""; };
  add("workload", str(config.workload));
  add("seed", std::to_string(config.seed));
  add("seconds", Num(config.seconds));
  add("trace", config.trace ? "1" : "0");
  add("dataset", str("Bitcoin"));
  add("scale", Num(config.scale));
  add("vertices", std::to_string(generator.num_vertices));
  add("interactions", std::to_string(generator.num_interactions));
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("simd", str(tinprov::cpu::SimdLevelName(tinprov::cpu::ActiveSimdLevel())));
  add("compiler", str(PERFBENCH_COMPILER));
  add("build_type", str(PERFBENCH_BUILD_TYPE));
  add("epoch_interval", std::to_string(config.epoch_interval != 0
                                           ? config.epoch_interval
                                           : serve.epoch_interval));
  add("ingest_batch", std::to_string(serve.ingest_batch));
  add("flush_policy",
      str(std::string(serve.durability.log.sync_each_append
                          ? "fsync-each-batch"
                          : "fsync-on-rotate") +
          ",rotate=" + std::to_string(serve.durability.log.rotate_bytes) +
          ",fail-stop"));
  add("catchup_threads",
      std::to_string(serve.catchup.num_threads != 0
                         ? serve.catchup.num_threads
                         : std::thread::hardware_concurrency()));
  add("query_rate", Num(config.query_rate));
  add("selftest", config.selftest ? "true" : "false");
  json += "}}";
  return json;
}

void RefuseDegenerateBuild(const RunConfig& config) {
  const std::string type = PERFBENCH_BUILD_TYPE;
#if !defined(NDEBUG)
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if ((type != "Release" || asserts) && !config.selftest) {
    Refuse("build type is '" + type +
           "'; numbers are only reported from a Release build");
  }
}

int Main(int argc, char** argv) {
  std::string out_dir;
  const RunConfig config = ParseArgs(argc, argv, &out_dir);
  RefuseDegenerateBuild(config);
  std::filesystem::create_directories(config.data_dir);

  const std::string config_json = ConfigJson(config);
  std::printf("%s\n", config_json.c_str());
  std::fflush(stdout);

  const uint64_t run_id =
      (static_cast<uint64_t>(NowNs()) << 16) ^ static_cast<uint64_t>(getpid());
  Tracer tracer(true, run_id);
  Tracer untraced(false, 0);

  // Iterate until the run's time is used; trace runs alternate traced
  // and untraced iterations and need at least one of each.
  std::vector<IterationResult> traced_results, untraced_results;
  const int64_t start = NowNs();
  const int min_iterations = config.trace ? 2 : 1;
  for (int iteration = 0;; ++iteration) {
    const bool traced = config.trace && iteration % 2 == 0;
    // A traced iteration and the untraced one after it share a dataset,
    // so the tracing overhead compares like with like.
    RunConfig inputs = config;
    inputs.seed = DatasetSeed(config.seed, config.trace ? iteration / 2
                                                        : iteration);
    IterationResult result =
        RunIteration(inputs, iteration, traced ? tracer : untraced, traced);
    (traced ? traced_results : untraced_results).push_back(std::move(result));
    if (iteration + 1 >= min_iterations &&
        NsToSeconds(NowNs() - start) >= config.seconds) {
      break;
    }
  }
  const std::vector<IterationResult>& reported =
      config.trace ? traced_results : untraced_results;

  // Several set-up samples per run, whatever the iteration count.
  std::vector<double> setup;
  for (const auto& r : traced_results) setup.push_back(r.e2e.at("setup_s"));
  for (const auto& r : untraced_results) setup.push_back(r.e2e.at("setup_s"));
  for (int extra = 0; setup.size() < 7; ++extra) {
    RunConfig inputs = config;
    inputs.seed = DatasetSeed(config.seed, extra);
    setup.push_back(SetupOnce(inputs, 1000 + extra));
  }
  auto pooled = [&reported](std::vector<double> IterationResult::*field) {
    std::vector<double> all;
    for (const IterationResult& r : reported) {
      all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
  };
  const std::vector<double> query_us = pooled(&IterationResult::query_us);
  const std::vector<double> lag_ms = pooled(&IterationResult::lag_ms);
  const std::vector<double> hist_ms = pooled(&IterationResult::hist_ms);

  auto median_of = [](const std::vector<IterationResult>& results,
                      bool e2e, const std::string& name) {
    std::vector<double> values;
    for (const IterationResult& r : results) {
      const auto& map = e2e ? r.e2e : r.layer;
      const auto it = map.find(name);
      values.push_back(it == map.end() ? 0.0 : it->second);
    }
    return Median(values);
  };

  // Percentiles over the run's pooled samples; everything else is the
  // median over iterations.
  std::map<std::string, double> e2e;
  for (const MetricDef& m : kEndToEnd) {
    e2e[m.name] = median_of(reported, true, m.name);
  }
  e2e["setup_s"] = Median(setup);
  e2e["visibility_lag_p50_ms"] = Percentile(lag_ms, 0.50);

  std::map<std::string, double> layer;
  if (config.trace) {
    for (const MetricDef& m : kPerLayer) {
      layer[m.name] = median_of(traced_results, false, m.name);
    }
    const double traced_rate = median_of(traced_results, true, "ingest_rate");
    const double plain_rate = median_of(untraced_results, true, "ingest_rate");
    layer["obs.tracing_overhead"] =
        plain_rate > 0.0 ? 1.0 - traced_rate / plain_rate : 0.0;
    layer["client.visibility_lag_p99_ms"] = Percentile(lag_ms, 0.99);
    layer["client.query_p50_us"] = Percentile(query_us, 0.50);
    layer["client.query_p99_us"] = Percentile(query_us, 0.99);
    layer["client.hist_query_p50_ms"] = Percentile(hist_ms, 0.50);
    layer["client.hist_query_p95_ms"] = Percentile(hist_ms, 0.95);
    layer["memory.allocator_per_logical"] =
        layer["memory.logical_mb"] > 0.0
            ? layer["memory.allocator_mb"] / layer["memory.logical_mb"]
            : 0.0;
    // Blocking-path self time per layer, per traced iteration.
    const std::map<std::string, double> self = tracer.PathSelfSeconds();
    double total = 0.0;
    for (const auto& entry : self) total += entry.second;
    const double iterations = static_cast<double>(traced_results.size());
    for (const char* name : kPathLayers) {
      const auto it = self.find(name);
      const double s = it == self.end() ? 0.0 : it->second;
      layer[std::string("path.") + name + "_s"] = s / iterations;
      layer[std::string("path.") + name + "_share"] =
          total > 0.0 ? s / total : 0.0;
    }
  }
  const uint64_t attempted = Ops().attempted.load();
  const uint64_t failed = Ops().failed.load();
  if (config.trace) {
    layer["client.error_rate"] =
        attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }

  // Human-readable table: the end-to-end metrics, then the user-visible
  // numbers BENCHMARK.json keeps among the per-layer metrics (tail lag
  // and query latency vary too much between runs to carry a bound; the
  // durable-restart numbers exist on one workload only).
  std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
  for (const MetricDef& m : kEndToEnd) {
    std::printf("%-36s %18.6g  %s\n", m.name, e2e[m.name], m.unit);
  }
  std::printf("%-36s %18.6g  %s\n", "visibility_lag_p99_ms",
              Percentile(lag_ms, 0.99), "ms");
  std::printf("%-36s %18.6g  %s\n", "query_p50_us",
              Percentile(query_us, 0.50), "us");
  std::printf("%-36s %18.6g  %s\n", "query_p99_us",
              Percentile(query_us, 0.99), "us");
  if (config.workload == "durable-restart") {
    std::printf("%-36s %18.6g  %s\n", "recover_s",
                median_of(reported, false, "serve.recover_s"), "s");
    std::printf("%-36s %18.6g  %s\n", "hist_query_p50_ms",
                Percentile(hist_ms, 0.50), "ms");
    std::printf("%-36s %18.6g  %s\n", "hist_query_p95_ms",
                Percentile(hist_ms, 0.95), "ms");
    std::printf("%-36s %18.6g  %s\n", "stored_bytes_per_interaction",
                median_of(reported, false, "storage.bytes_per_interaction"),
                "B");
  }
  std::printf("%-36s %18.6g  %s\n", "error_rate",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio");
  if (config.trace) {
    for (const auto& entry : layer) {
      std::printf("%-36s %18.6g\n", entry.first.c_str(), entry.second);
    }
  }

  // The result line.
  std::string metrics;
  auto add_metric = [&metrics](const std::string& name, double value,
                               const char* unit) {
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + Num(value) + ",\"unit\":\"" +
               unit + "\"}";
  };
  if (config.trace) {
    for (const MetricDef& m : kPerLayer) add_metric(m.name, layer[m.name], m.unit);
    for (const char* name : kPathLayers) {
      add_metric(std::string("path.") + name + "_s",
                 layer[std::string("path.") + name + "_s"], "s");
      add_metric(std::string("path.") + name + "_share",
                 layer[std::string("path.") + name + "_share"], "ratio");
    }
  } else {
    for (const MetricDef& m : kEndToEnd) add_metric(m.name, e2e[m.name], m.unit);
  }
  const std::string line = "{\"correct\": true, \"attempted\": " +
                           std::to_string(attempted) + ", \"failed\": " +
                           std::to_string(failed) + ", \"metrics\": {" +
                           metrics + "}}";

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             (config.trace ? "1" : "0");
    std::ofstream(stem + ".json") << config_json << "\n" << line << "\n";
    if (config.trace && !tracer.WriteChromeTrace(stem + ".trace.json")) {
      std::fprintf(stderr, "perfbench: could not write %s.trace.json\n",
                   stem.c_str());
    }
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
