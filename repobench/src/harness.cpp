#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace repobench {

// ---- order statistics -------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_latency(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.value = median(v);
  t.beyond = v.size() / 2;
  for (const double p : {90.0, 99.0, 99.9}) {
    // Nearest-rank percentile: the value at rank ceil(p/100 * n).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank == 0 || v.size() - rank < 10) break;
    t.percentile = p;
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
  }
  return t;
}

// ---- spans -------------------------------------------------------------------

std::int64_t Tracer::open(std::string name, std::uint64_t job,
                          std::int64_t parent, Clock::time_point t0) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back(Rec{std::move(name), job, parent, t0, t0});
  return static_cast<std::int64_t>(recs_.size()) - 1;
}

void Tracer::close(std::int64_t id, Clock::time_point t1) {
  if (id < 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  recs_[static_cast<std::size_t>(id)].t1 = t1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(recs_.size());
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (recs_[i].parent >= 0) {
      children[static_cast<std::size_t>(recs_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    // Union of the children's intervals clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(std::max(recs_[c].t0, r.t0), std::min(recs_[c].t1, r.t1));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point end = r.t0;
    for (const auto& [a, b] : iv) {
      const Clock::time_point lo = std::max(a, end);
      if (b > lo) {
        covered += seconds_between(lo, b);
        end = b;
      }
    }
    out[r.name] += seconds_between(r.t0, r.t1) - covered;
  }
  return out;
}

double Tracer::children_seconds(std::int64_t parent) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Rec& r : recs_) {
    if (parent >= 0 && r.parent == parent) total += seconds_between(r.t0, r.t1);
  }
  return total;
}

bool Tracer::write_chrome(const std::string& path) const {
  using util::json::Value;
  const std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point origin = recs_.empty() ? Clock::now() : recs_.front().t0;
  for (const Rec& r : recs_) origin = std::min(origin, r.t0);
  Value events = Value::array();
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    Value e = Value::object();
    e.set("name", r.name);
    e.set("cat", r.name.substr(0, r.name.find('.')));
    e.set("ph", "X");
    e.set("ts", seconds_between(origin, r.t0) * 1e6);
    e.set("dur", seconds_between(r.t0, r.t1) * 1e6);
    e.set("pid", 1);
    e.set("tid", r.job);
    Value args = Value::object();
    args.set("job", r.job);
    args.set("span", static_cast<std::uint64_t>(i));
    if (r.parent >= 0) args.set("parent", r.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Value doc = Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  doc.dump(out, 0);
  out << "\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t job,
           std::int64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      t0_(Clock::now()) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name), job, parent, t0_);
}

Span::~Span() { stop(); }

double Span::stop() {
  if (seconds_ < 0) {
    const Clock::time_point t1 = Clock::now();
    seconds_ = seconds_between(t0_, t1);
    if (tracer_ != nullptr) tracer_->close(id_, t1);
  }
  return seconds_;
}

// ---- processes ---------------------------------------------------------------

Child::Child(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc =
      ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0]);
  }
  out_fd_ = fds[0];
}

Child::~Child() { stop(); }

std::string Child::read_line(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0 || out_fd_ < 0) {
      throw std::runtime_error("child " + std::to_string(pid_) +
                               " printed no line in time");
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      throw std::runtime_error("child " + std::to_string(pid_) +
                               " closed its output");
    }
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

int Child::stop() {
  if (pid_ < 0) return status_;
  ::kill(pid_, SIGTERM);
  return wait_exit(20);
}

int Child::wait_exit(double timeout_s) {
  if (pid_ < 0) return status_;
  // Drain stdout so a final report larger than the pipe cannot block the
  // child's exit; SIGKILL it if it does not finish in time.
  const Clock::time_point t0 = Clock::now();
  bool killed = false;
  while (out_fd_ >= 0) {
    if (!killed && seconds_between(t0, Clock::now()) > timeout_s) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      char buf[4096];
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) {
        ::close(out_fd_);
        out_fd_ = -1;
      }
    }
  }
  while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status_;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t status_kib(const std::string& status, const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::string_view(key).size(),
                       nullptr, 10);
}

}  // namespace

double Child::cpu_seconds() const {
  if (pid_ < 0) return 0;
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name; utime is field 14.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 17 && in >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::size_t Child::hwm_bytes() const {
  if (pid_ < 0) return 0;
  return status_kib(read_file("/proc/" + std::to_string(pid_) + "/status"),
                    "VmHWM:") *
         1024;
}

double own_and_reaped_cpu_s() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return total;
}

std::size_t own_hwm_bytes() {
  return status_kib(read_file("/proc/self/status"), "VmHWM:") * 1024;
}

// ---- machine -----------------------------------------------------------------

unsigned nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_file(dir + "level");
    const std::string size = read_file(dir + "size");
    if (level.empty() || size.empty()) continue;
    const int lv = std::atoi(level.c_str());
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.find('K') != std::string::npos) bytes <<= 10;
    if (size.find('M') != std::string::npos) bytes <<= 20;
    if (lv >= best_level) {
      best_level = lv;
      best = bytes;
    }
  }
  return best;
}

std::uint64_t file_hash(const std::string& path) {
  const std::string bytes = read_file(path);
  return bytes.empty() ? 0 : util::json::hash64(bytes);
}

// ---- correctness ---------------------------------------------------------------

bool Checker::eq(std::string_view kind, std::uint64_t measured,
                 std::uint64_t expected, std::string_view detail) {
  if (perturbed(kind)) ++expected;
  if (measured == expected) return true;
  fail(std::string(kind) + " " + std::string(detail) + ": measured " +
       std::to_string(measured) + ", expected " + std::to_string(expected));
  return false;
}

bool Checker::holds(std::string_view kind, bool condition,
                    std::string_view detail) {
  if (perturbed(kind)) condition = !condition;
  if (condition) return true;
  fail(std::string(kind) + " " + std::string(detail) + ": does not hold");
  return false;
}

bool Checker::same(std::string_view kind, const std::string& measured,
                   const std::string& expected, std::string_view detail) {
  const bool equal = (measured == expected) != perturbed(kind);
  if (equal) return true;
  fail(std::string(kind) + " " + std::string(detail) + ": " +
       std::to_string(measured.size()) + " bytes differ from the " +
       std::to_string(expected.size()) + "-byte reference");
  return false;
}

void Checker::fail(std::string message) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  if (messages_.size() < 20) messages_.push_back(std::move(message));
}

std::uint64_t Checker::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::vector<std::string> Checker::messages() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

// ---- output --------------------------------------------------------------------

double Samples::median_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : median(it->second);
}

const std::vector<double>& Samples::all(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

}  // namespace repobench
