// repobench — the repository benchmark binary. run.py builds and runs it;
// the command line is
//
//   repobench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--perturb CHECK]
//
// stdout ends with three lines: a stamp object (machine, product, counts,
// tail percentile, span self times), a CORAL2-style !!PASSED!! / FAILED
// verdict, and the result object the benchmark contract defines.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "harness.hpp"
#include "util/json.hpp"
#include "util/runmeta.hpp"
#include "workloads.hpp"

using namespace repobench;
using kronotri::util::json::Value;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "repobench: " << why
            << "\nusage: repobench --workload protocol|materialize|distributed|"
               "service --seed N --seconds S --trace 0|1 [--smoke] "
               "[--perturb tau|verdict|comparable|records|replay|counts]\n";
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--perturb") {
      cfg.perturb = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    usage("unknown workload \"" + cfg.workload + "\"");
  }
  return cfg;
}

/// Exact counts must repeat: within this run, and across runs of the same
/// workload, seed and binaries (recorded in run_dir/counts.json).
void check_counts(const Config& cfg, const RunOutput& out, Checker& ck,
                  Value& stamp) {
  const std::string names[] = {"kron.entries", "validate.wedge_checks",
                               "triangle.wedge_checks", "validate.shards",
                               "runner.units"};
  char binaries[17];
  std::snprintf(binaries, sizeof(binaries), "%016llx",
                static_cast<unsigned long long>(file_hash("/proc/self/exe") ^
                                                file_hash(cfg.kronotri)));
  const std::string key = cfg.workload + "/" + std::to_string(cfg.seed) +
                          (cfg.smoke ? "/smoke/" : "/") + binaries;
  const std::string path = cfg.run_dir + "/counts.json";
  Value record = Value::object();
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      if (!buf.str().empty()) record = Value::parse(buf.str());
    } catch (const std::exception&) {
      record = Value::object();  // unreadable record: start a new one
    }
  }
  const Value* before = record.find(key);
  Value now = before != nullptr ? *before : Value::object();
  for (const std::string& name : names) {
    const std::vector<double>& seen = out.counts.all(name);
    if (seen.empty()) continue;
    const auto first = static_cast<std::uint64_t>(seen.front());
    for (const double v : seen) {
      ck.eq("counts", static_cast<std::uint64_t>(v), first, name + " within the run");
    }
    if (const Value* prior = now.find(name)) {
      ck.eq("counts", first, prior->as_uint(), name + " vs an earlier run");
    } else {
      now.set(name, first);
    }
  }
  record.set(key, now);
  stamp.set("counts", now);
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream f(tmp);
    record.dump(f);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = parse_args(argc, argv);
  cfg.threads = std::min(nproc(), 4u);
  // Every process the benchmark launches inherits this team size.
  ::setenv("OMP_NUM_THREADS", std::to_string(cfg.threads).c_str(), 1);
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(cfg.threads));
#endif
  cfg.kronotri = REPOBENCH_KRONOTRI_BIN;
  if (::access(cfg.kronotri.c_str(), X_OK) != 0) {
    std::cerr << "repobench: kronotri CLI not found at " << cfg.kronotri << "\n";
    return 2;
  }
  cfg.run_dir = ".bench_run";
  std::filesystem::create_directories(cfg.run_dir + "/tmp");
  // The runner and the agents put their scratch files under TMPDIR; keep
  // them inside the run directory.
  ::setenv("TMPDIR", std::filesystem::absolute(cfg.run_dir + "/tmp").c_str(), 1);
  if (cfg.smoke) {
    cfg.big_n = 40;
    cfg.small_n = 30;
    cfg.setups = 1;
    cfg.probe_reps = 1;
    cfg.screen = false;
  }

  Checker ck(cfg.perturb);
  Tracer tracer(cfg.trace);
  RunOutput out;
  try {
    out = run_workload(cfg, ck, tracer);
  } catch (const std::exception& e) {
    std::cerr << "repobench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 3;
  }

  Value& stamp = out.stamp;
  const std::uint64_t misses_before_counts = ck.misses();
  check_counts(cfg, out, ck, stamp);
  if (ck.misses() > misses_before_counts) {
    // The counts gate runs after the workload: fold its miss into ok_ratio.
    ++out.failed;
    const double attempted = static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
    for (Metric& m : out.metrics) {
      if (m.name == "ok_ratio") m.value = 1 - static_cast<double>(out.failed) / attempted;
    }
    stamp.set("fail_ratio", static_cast<double>(out.failed) / attempted);
  }
  stamp.set("workload", cfg.workload);
  stamp.set("seed", cfg.seed);
  stamp.set("trace", cfg.trace);
  stamp.set("smoke", cfg.smoke);
  stamp.set("metadata", kronotri::util::run_metadata(8192));
  stamp.set("nproc", nproc());
  stamp.set("omp_threads", cfg.threads);
  stamp.set("llc_bytes", static_cast<std::uint64_t>(llc_bytes()));
  if (cfg.trace) {
    const std::string trace_path = cfg.run_dir + "/trace-" + cfg.workload +
                                   "-seed" + std::to_string(cfg.seed) + ".json";
    if (tracer.write_chrome(trace_path)) stamp.set("trace_file", trace_path);
  }
  Value errors = Value::array();
  for (const std::string& m : ck.messages()) errors.push_back(m);
  stamp.set("check_failures", std::move(errors));

  const bool correct = ck.misses() == 0 && out.failed == 0;
  Value result = Value::object();
  result.set("correct", correct);
  result.set("attempted", std::max<std::uint64_t>(1, out.attempted));
  result.set("failed", out.failed);
  Value metrics = Value::object();
  for (const Metric& m : out.metrics) {
    Value v = Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  result.set("metrics", std::move(metrics));

  Value stamp_line = Value::object();
  stamp_line.set("repobench", stamp);
  std::cout << stamp_line.dump_string(0) << "\n";
  std::cout << (correct ? "!!PASSED!!" : "FAILED: " + std::to_string(ck.misses()) +
                                             " check(s) missed")
            << "\n";
  std::cout << result.dump_string(0) << std::endl;
  return 0;
}
