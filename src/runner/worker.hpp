// One worker attempt, from launch to verdict — the code both dispatch
// targets share.
//
// A unit of a distributed RunPlan runs as a fork/exec'd `kronotri
// __worker` process, either as a child of the coordinator
// (runner::execute) or as a child of a remote `kronotri agent`. Both
// sides launch it with launch(), reap it with try_reap() — which turns
// the wait4 status and the CRC-verified fragment file into an
// AttemptResult — and the agent ships that result over the wire with
// AttemptResult::to_json(). The coordinator then settles every attempt,
// local or remote, through one precedence rule: settle_outcome().
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include <sys/types.h>

#include "util/json.hpp"

namespace kronotri::runner {

/// Exit code a worker dies with when its RLIMIT_AS guard (or the `oom`
/// fault) trips std::bad_alloc — the coordinator classifies it "oom".
/// Distinct from 127 (exec failure) and ordinary analysis exit codes.
inline constexpr int kOomExitCode = 86;

/// The kronotri CLI binary to exec workers from: $KRONOTRI_BIN when set,
/// else a `kronotri` sibling of /proc/self/exe (the binary itself, or the
/// build-tree sibling when the caller is a test/bench binary). Empty when
/// nothing resolves — execute() then degrades to in-process.
std::string default_worker_exe();

/// CLOCK_MONOTONIC seconds — attempt walls and deadlines.
double monotonic_s();

/// $TMPDIR, or /tmp when unset — where scratch files live.
std::string tmp_dir();

/// Everything one `__worker` invocation needs.
struct WorkerJob {
  unsigned unit = 0;
  unsigned attempt = 0;
  std::string plan_path;   ///< child plan JSON the worker reads
  std::string out_path;    ///< where the worker writes its fragment frame
  std::string trace_path;  ///< trace dump target; empty = tracing off
  std::string fault;       ///< fault spec forwarded to the worker
  std::size_t mem_limit = 0;  ///< RLIMIT_AS bytes (0 = none)
};

/// fork + exec of `exe __worker …` for `job`. Returns the child pid, or
/// -1 with errno set when fork fails. Exec failure surfaces later as
/// exit code 127.
pid_t launch(const std::string& exe, const WorkerJob& job);

/// What became of one attempt, as its host saw it.
struct AttemptResult {
  /// "ok" | "exit" | "signal" | "oom" | "truncated" | "spawn_failed" |
  /// "cancelled" (an agent dropped the job before it started) |
  /// "disconnect" | "garbled" (the coordinator lost the agent running it).
  std::string outcome;
  int detail = 0;  ///< exit code, signal number or errno
  long pid = 0;
  std::size_t max_rss_bytes = 0;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
  std::string fragment;  ///< CRC-verified fragment payload ("ok" only)
  std::string trace;     ///< the worker's trace document, when it left one

  /// The wire form: the keys of the agent's `result` message other than
  /// type/unit/attempt/wall_s.
  [[nodiscard]] util::json::Value to_json() const;
  static AttemptResult from_json(const util::json::Value& v);
};

/// Non-blocking reap of `pid`. nullopt while it still runs; otherwise its
/// wait status, rusage and fragment classified as signal → oom → exit →
/// ok (one clean CRC64 frame in `out_path`, nothing after it) →
/// truncated. A non-empty `trace_path` is read into `trace`.
std::optional<AttemptResult> try_reap(pid_t pid, const std::string& out_path,
                                      const std::string& trace_path = {});

/// The coordinator's view of an attempt when its result arrives.
struct AttemptState {
  bool aborted = false;    ///< the run is failing
  bool lost = false;       ///< superseded, or its unit was already done
  bool timed_out = false;  ///< past its deadline and stopped
};

/// The outcome recorded for one attempt. Precedence: aborted →
/// speculative_loss (lost) → ok → timeout → cancelled (a loss, never
/// charged) → the reported failure (signal | oom | exit | spawn_failed |
/// truncated | disconnect | garbled). A verified fragment beats the
/// deadline: it is a result, wherever the attempt ran. Unknown outcomes
/// read as "truncated".
[[nodiscard]] std::string settle_outcome(const AttemptState& state,
                                         std::string_view reported);

/// Why a settled outcome charges the unit ("died on signal 9", …), or
/// empty when it charges nothing (ok, aborted, speculative_loss).
[[nodiscard]] std::string failure_reason(std::string_view outcome,
                                         int detail);

}  // namespace kronotri::runner
