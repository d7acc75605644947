// The four workloads (protocol, materialize, distributed, service), each
// as an untraced run that yields the end-to-end metrics and a traced run
// that yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/json.hpp"

namespace repobench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Reduced sizes for the benchmark's own tests.
  bool smoke = false;
  /// Check kind to perturb (see Checker); empty in real runs.
  std::string perturb;
  std::string kronotri;  ///< CLI binary for daemons, agents and workers
  std::string run_dir;   ///< scratch files, sockets and the trace
  unsigned threads = 4;  ///< OMP threads of every process
  unsigned setups = 3;   ///< set-ups per run; setup_s is their median
  unsigned big_n = 300;  ///< factor size of the protocol-sized product
  unsigned small_n = 150;  ///< factor size of the service plans
  unsigned probe_reps = 3;  ///< repeats of each stream-pass probe
  /// Pick generator seeds with screened_seed(); the smoke runs skip it.
  bool screen = true;
};

struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  util::json::Value stamp;
  /// Exact counts observed in this run (name → every observation).
  Samples counts;
};

const std::vector<std::string>& workload_names();

/// Runs one workload for cfg.seconds; throws on a harness failure.
RunOutput run_workload(const Config& cfg, Checker& ck, Tracer& tracer);

}  // namespace repobench
