// Measurement plumbing shared by every workload: clocks and order
// statistics, the benchmark's own span recorder (Chrome trace-event
// output, per-layer self time), child processes for daemons and agents,
// CPU and peak-RSS accounting across processes, and the correctness
// checker whose misses become failed jobs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace repobench {

namespace util = kronotri::util;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- order statistics -------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// The highest percentile of the ladder {50, 90, 99, 99.9} that has at
/// least ten samples above it. With fewer than 20 samples no percentile
/// qualifies and the median is reported (percentile 50).
struct Tail {
  double value = 0;
  double percentile = 50;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_latency(std::vector<double> v);

// ---- spans -------------------------------------------------------------------

/// The benchmark's own span recorder. Spans are kept in memory and written
/// out once as Chrome trace-event JSON. A disabled tracer records nothing;
/// Span still measures its duration, so traced and untraced jobs run the
/// same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a span; returns its id (-1 when disabled). close() ends it.
  std::int64_t open(std::string name, std::uint64_t job, std::int64_t parent,
                    Clock::time_point t0);
  void close(std::int64_t id, Clock::time_point t1);

  /// Self time per span name: each span's duration minus the part of its
  /// interval that its children cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Sum of the durations of `parent`'s direct children.
  [[nodiscard]] double children_seconds(std::int64_t parent) const;

  /// Chrome trace-event JSON ("X" events, one row per job id).
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    std::uint64_t job = 0;
    std::int64_t parent = -1;
    Clock::time_point t0;
    Clock::time_point t1;
  };
  bool enabled_;
  mutable std::mutex mu_;  ///< guards recs_ (service clients record concurrently)
  std::vector<Rec> recs_;
};

/// Times one call into a layer and records it as a span when a tracer is
/// enabled. stop() ends it early and returns the duration.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t job,
       std::int64_t parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }
  double stop();

 private:
  Tracer* tracer_;
  std::int64_t id_ = -1;
  Clock::time_point t0_;
  double seconds_ = -1;
};

// ---- processes ---------------------------------------------------------------

/// A daemon or agent started by the benchmark: stdout is piped back so the
/// benchmark can wait for its ready line. The destructor stops it and
/// waits for it to end.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Next stdout line; throws std::runtime_error on EOF or timeout.
  std::string read_line(double timeout_s);
  /// SIGTERM, then wait_exit(). Idempotent. Returns the exit status as
  /// waitpid reports it.
  int stop();
  /// Drains stdout until the child closes it, SIGKILLs it after
  /// `timeout_s`, and reaps it.
  int wait_exit(double timeout_s);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// utime + stime + cutime + cstime from /proc (0 once stopped).
  [[nodiscard]] double cpu_seconds() const;
  /// VmHWM from /proc (0 once stopped).
  [[nodiscard]] std::size_t hwm_bytes() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  int status_ = 0;
};

/// CPU seconds of this process plus every child it has reaped.
double own_and_reaped_cpu_s();
/// This process's peak RSS (VmHWM).
std::size_t own_hwm_bytes();

// ---- machine -----------------------------------------------------------------

unsigned nproc();
/// Last-level cache size in bytes (0 when the platform does not say).
std::size_t llc_bytes();
/// Content hash of a file (0 when unreadable) — keys the counts record.
std::uint64_t file_hash(const std::string& path);

// ---- correctness ---------------------------------------------------------------

/// Every correctness check goes through here. A perturbation names one
/// check kind ("tau", "verdict", "comparable", "records", "replay",
/// "counts"); checks of that kind then compare against a deliberately
/// wrong expectation, which is how the tests show each gate can trip.
class Checker {
 public:
  explicit Checker(std::string perturb) : perturb_(std::move(perturb)) {}

  bool eq(std::string_view kind, std::uint64_t measured,
          std::uint64_t expected, std::string_view detail = {});
  bool holds(std::string_view kind, bool condition,
             std::string_view detail = {});
  bool same(std::string_view kind, const std::string& measured,
            const std::string& expected, std::string_view detail = {});

  /// Checks that failed so far (thread-safe).
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::vector<std::string> messages() const;
  /// Records a failure that is not a comparison (an exception, a refusal).
  void fail(std::string message);

 private:
  [[nodiscard]] bool perturbed(std::string_view kind) const {
    return !perturb_.empty() && perturb_ == kind;
  }
  std::string perturb_;
  mutable std::mutex mu_;  ///< guards misses_/messages_
  std::uint64_t misses_ = 0;
  std::vector<std::string> messages_;
};

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer samples by metric name; the reported value is their median.
class Samples {
 public:
  void add(const std::string& name, double value) { by_name_[name].push_back(value); }
  [[nodiscard]] bool has(const std::string& name) const {
    return by_name_.count(name) > 0;
  }
  [[nodiscard]] double median_of(const std::string& name) const;
  [[nodiscard]] const std::vector<double>& all(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> by_name_;
};

}  // namespace repobench
