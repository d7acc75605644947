#include "runner/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/framing.hpp"
#include "util/journal.hpp"

namespace kronotri::runner {

using util::json::Value;

std::string default_worker_exe() {
  if (const char* env = std::getenv("KRONOTRI_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    if (self.substr(slash + 1) == "kronotri") return self;
    // Test and bench binaries live in the build tree next to (or one
    // level below) the CLI binary.
    for (const std::string& cand : {dir + "/kronotri", dir + "/../kronotri"}) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  if (::access("./kronotri", X_OK) == 0) return "./kronotri";
  return "";
}

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string tmp_dir() {
  const char* dir = std::getenv("TMPDIR");
  return (dir != nullptr && *dir != '\0') ? dir : "/tmp";
}

pid_t launch(const std::string& exe, const WorkerJob& job) {
  std::vector<std::string> args = {exe,
                                   "__worker",
                                   "--plan-file",
                                   job.plan_path,
                                   "--out",
                                   job.out_path,
                                   "--unit",
                                   std::to_string(job.unit),
                                   "--attempt",
                                   std::to_string(job.attempt)};
  if (!job.fault.empty()) {
    args.push_back("--fault");
    args.push_back(job.fault);
  }
  if (job.mem_limit > 0) {
    args.push_back("--mem-limit");
    args.push_back(std::to_string(job.mem_limit));
  }
  if (!job.trace_path.empty()) {
    // Trace context rides the hidden argv: the worker records on the
    // shared CLOCK_MONOTONIC axis and dumps its buffer here.
    args.push_back("--trace-out");
    args.push_back(job.trace_path);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: exec immediately — no OpenMP, no allocation-heavy work
    // between fork and exec (the parent may hold libgomp/locale state a
    // forked child must not touch).
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

Value AttemptResult::to_json() const {
  Value v = Value::object();
  v.set("outcome", outcome);
  v.set("detail", detail);
  v.set("pid", static_cast<std::int64_t>(pid));
  v.set("max_rss_bytes", static_cast<std::uint64_t>(max_rss_bytes));
  v.set("cpu_user_s", cpu_user_s);
  v.set("cpu_sys_s", cpu_sys_s);
  if (outcome == "ok") v.set("fragment", fragment);
  if (!trace.empty()) v.set("trace", trace);
  return v;
}

AttemptResult AttemptResult::from_json(const Value& v) {
  AttemptResult r;
  r.outcome = v.get_string("outcome", "truncated");
  r.detail = static_cast<int>(v.get_uint("detail", 0));
  r.pid = static_cast<long>(v.get_uint("pid", 0));
  r.max_rss_bytes = static_cast<std::size_t>(v.get_uint("max_rss_bytes", 0));
  if (const Value* c = v.find("cpu_user_s"); c && c->is_number()) {
    r.cpu_user_s = c->as_double();
  }
  if (const Value* c = v.find("cpu_sys_s"); c && c->is_number()) {
    r.cpu_sys_s = c->as_double();
  }
  if (const Value* f = v.find("fragment"); f && f->is_string()) {
    r.fragment = f->as_string();
  } else if (r.outcome == "ok") {
    r.outcome = "truncated";  // an ok without its fragment is no result
  }
  if (const Value* t = v.find("trace"); t && t->is_string()) {
    r.trace = t->as_string();
  }
  return r;
}

std::optional<AttemptResult> try_reap(pid_t pid, const std::string& out_path,
                                      const std::string& trace_path) {
  int status = 0;
  rusage ru{};
  // wait4 = waitpid + the child's rusage: per-attempt peak RSS and split
  // user/sys CPU come with the verdict.
  if (::wait4(pid, &status, WNOHANG, &ru) != pid) return std::nullopt;
  AttemptResult r;
  r.pid = pid;
  r.max_rss_bytes = static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB
  r.cpu_user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  r.cpu_sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  if (WIFSIGNALED(status)) {
    r.outcome = "signal";
    r.detail = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kOomExitCode) {
    // The RLIMIT_AS guard (or the oom fault) tripped the worker's
    // std::bad_alloc path — a resource verdict, not a generic "exit".
    r.outcome = "oom";
    r.detail = kOomExitCode;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    r.outcome = "exit";
    r.detail = WEXITSTATUS(status);
  } else if (std::optional<std::string> frag = net::read_frame_file(out_path)) {
    r.outcome = "ok";
    r.fragment = std::move(*frag);
  } else {
    r.outcome = "truncated";
  }
  if (!trace_path.empty()) {
    // A killed worker leaves no (or a torn) trace; the importer copes.
    if (std::optional<std::string> t = util::journal::read_file(trace_path)) {
      r.trace = std::move(*t);
    }
  }
  return r;
}

std::string settle_outcome(const AttemptState& state,
                           std::string_view reported) {
  if (state.aborted) return "aborted";
  if (state.lost) return "speculative_loss";
  if (reported == "ok") return "ok";
  if (state.timed_out) return "timeout";
  if (reported == "cancelled") return "speculative_loss";
  for (const std::string_view failure :
       {"signal", "oom", "exit", "spawn_failed", "truncated", "disconnect",
        "garbled"}) {
    if (reported == failure) return std::string(failure);
  }
  return "truncated";
}

std::string failure_reason(std::string_view outcome, int detail) {
  if (outcome == "timeout") return "timed out";
  if (outcome == "signal") return "died on signal " + std::to_string(detail);
  if (outcome == "oom") return "exceeded its memory guard (RLIMIT_AS)";
  if (outcome == "exit") return "exited with code " + std::to_string(detail);
  if (outcome == "spawn_failed") return "could not be spawned";
  if (outcome == "truncated") return "wrote a truncated result frame";
  if (outcome == "disconnect") return "lost its agent connection";
  if (outcome == "garbled") return "returned a garbled result frame";
  return "";
}

}  // namespace kronotri::runner
