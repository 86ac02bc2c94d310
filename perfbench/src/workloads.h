// The three perfbench workloads. Each call runs one iteration: set-up
// (dataset generation plus tracker or service construction), the timed
// phases, then the correctness checks, which run outside the timed
// phases and exit non-zero on any mismatch.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  // Bitcoin preset scale. 10 gives 120,000 vertices and 455,000
  // interactions; smaller inputs are refused outside the self-test.
  double scale = 10.0;
  bool selftest = false;  // tiny input allowed
  bool perturb = false;   // corrupt one kept answer: the checks must trip

  size_t epoch_interval = 0;          // 0: ServeOptions' default
  double query_rate = 5000.0;         // open-loop client, queries/s
  double offline_query_seconds = 0.2; // replay-prop's query phase
  size_t hist_queries = 200;          // durable-restart phase 4
  std::string data_dir;               // durable-restart's directories
};

// One iteration's numbers by metric name: the end-to-end metrics and,
// from traced iterations, the per-layer ones.
struct IterationResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  // Raw samples, pooled over a run's iterations before percentiles.
  std::vector<double> query_us;  // latest-state queries, from when due
  std::vector<double> lag_ms;    // visibility lag per interaction
  std::vector<double> hist_ms;   // historical queries (durable-restart)
};

// Each iteration generates its own dataset; its generator seed is
// derived from the run's --seed and the dataset index, so one run
// averages over several inputs and the same seed gives the same ones.
uint64_t DatasetSeed(uint64_t run_seed, int index);

// Set-up only (generate, construct, destroy); returns seconds. Used to
// take several set-up samples when few iterations fit in a run.
double SetupOnce(const RunConfig& config, int iteration);

IterationResult RunIteration(const RunConfig& config, int iteration,
                             Tracer& tracer, bool traced);

bool KnownWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
