#include "net/agent.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "runner/worker.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"

namespace kronotri::net {

namespace {

using runner::AttemptResult;
using runner::monotonic_s;
using util::json::Value;

/// One dispatched unit: the worker job (scratch paths included) and the
/// plan text its plan file is written from.
struct Job {
  runner::WorkerJob worker;
  std::string plan_text;
};

/// One running worker process of this connection.
struct Child {
  Job job;
  pid_t pid = -1;
  double start_s = 0;
};

/// Whether `spec` injects `kind` at (unit, attempt). The coordinator
/// validated the spec; an unparsable one here is inert rather than fatal.
bool fault_fires(const std::string& spec, std::string_view kind,
                 unsigned unit, unsigned attempt) {
  if (spec.empty()) return false;
  try {
    return util::fault::Injector(spec).match(kind, unit, attempt) != nullptr;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

unsigned parse_slots(std::string_view text) {
  if (text == "auto") {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  unsigned n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || ptr != text.data() + text.size() || n == 0) {
    throw std::invalid_argument("slots/workers: expected a positive integer "
                                "or \"auto\", got \"" +
                                std::string(text) + "\"");
  }
  return n;
}

Agent::Agent(AgentOptions opt) : opt_(std::move(opt)) {
  opt_.slots = std::max(1u, opt_.slots);
}

Agent::~Agent() { stop(); }

std::string Agent::endpoint() const {
  return opt_.host + ":" + std::to_string(port_);
}

bool Agent::start(std::string* error) {
  if (running()) return true;
  exe_ = opt_.worker_exe.empty() ? runner::default_worker_exe()
                                 : opt_.worker_exe;
  if (exe_.empty() || ::access(exe_.c_str(), X_OK) != 0) {
    if (error != nullptr) {
      *error = "agent: no worker executable (set $KRONOTRI_BIN or run from "
               "the build tree)";
    }
    return false;
  }
  Endpoint ep;
  ep.host = opt_.host;
  ep.port = opt_.port;
  const ListenResult lr = daemon_.start(
      ep, [this](int fd, std::atomic<bool>&) { connection_loop(fd); });
  if (!lr.ok()) {
    if (error != nullptr) {
      *error = "agent: cannot listen on " + opt_.host + ":" +
               std::to_string(opt_.port) + ": " + lr.error;
    }
    return false;
  }
  port_ = lr.port;
  running_.store(true, std::memory_order_release);
  util::log::info("agent", "listening",
                  {{"endpoint", endpoint()},
                   {"slots", opt_.slots}});
  return true;
}

void Agent::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  daemon_.stop_accepting();
  daemon_.close_connections();
}

void Agent::connection_loop(int fd) {
  FrameReader reader;
  std::deque<Job> queue;
  std::vector<Child> children;
  double last_send = monotonic_s();
  const std::string prefix = runner::tmp_dir() + "/kronotri." +
                             std::to_string(::getpid()) + ".agent" +
                             std::to_string(fd) + ".";

  const auto send_raw = [&](std::string_view bytes) -> bool {
    last_send = monotonic_s();
    return write_all(fd, bytes);
  };
  const auto send_msg = [&](const Value& msg) -> bool {
    return send_raw(encode_message(msg));
  };
  // One `result` message: the AttemptResult plus the attempt's
  // coordinates. A garble_frame fault flips one payload byte AFTER
  // framing: the length still parses, the CRC check has to catch it.
  const auto send_result = [&](const runner::WorkerJob& w,
                               const AttemptResult& res,
                               double wall_s) -> bool {
    Value r = res.to_json();
    r.set("type", "result");
    r.set("unit", w.unit);
    r.set("attempt", w.attempt);
    r.set("wall_s", wall_s);
    std::string bytes = encode_message(r);
    if (fault_fires(w.fault, "garble_frame", w.unit, w.attempt)) {
      bytes[util::journal::kFrameOverhead / 2 + bytes.size() / 2] ^= 0x20;
      util::log::info("agent", "garbling result frame (fault injection)",
                      {{"unit", w.unit}, {"attempt", w.attempt}});
    }
    return send_raw(bytes);
  };

  const auto cleanup_child = [&](const Child& c) {
    for (const std::string* path :
         {&c.job.worker.plan_path, &c.job.worker.out_path,
          &c.job.worker.trace_path}) {
      if (!path->empty()) ::unlink(path->c_str());
    }
    busy_.fetch_sub(1, std::memory_order_acq_rel);
  };

  // Kill + reap every child of this connection — run on any exit path so
  // a lost coordinator never races its own re-dispatched attempts.
  const auto kill_children = [&] {
    for (const Child& c : children) ::kill(c.pid, SIGKILL);
    for (const Child& c : children) {
      int status = 0;
      ::waitpid(c.pid, &status, 0);
      cleanup_child(c);
    }
    children.clear();
  };

  const auto spawn = [&](Job&& job) {
    Child c;
    c.job = std::move(job);
    c.start_s = monotonic_s();
    bool written = false;
    {
      std::ofstream out(c.job.worker.plan_path, std::ios::trunc);
      out << c.job.plan_text << "\n";
      out.flush();
      written = static_cast<bool>(out);
    }
    if (written) c.pid = runner::launch(exe_, c.job.worker);
    if (c.pid < 0) {
      AttemptResult res;
      res.outcome = "spawn_failed";
      res.detail = errno;
      (void)send_result(c.job.worker, res, 0.0);
      ::unlink(c.job.worker.plan_path.c_str());
      return;
    }
    busy_.fetch_add(1, std::memory_order_acq_rel);
    children.push_back(std::move(c));
  };

  // Reaps finished children into result messages, classified by the
  // shared runner::try_reap — the same code the coordinator reaps its
  // local children with.
  const auto reap = [&] {
    for (std::size_t i = 0; i < children.size();) {
      Child& c = children[i];
      const std::optional<AttemptResult> res = runner::try_reap(
          c.pid, c.job.worker.out_path, c.job.worker.trace_path);
      if (!res) {
        ++i;
        continue;
      }
      // A failed send means the peer is gone mid-result: the poll loop
      // below sees the EOF and tears the connection down.
      (void)send_result(c.job.worker, *res, monotonic_s() - c.start_s);
      cleanup_child(c);
      children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };

  std::string payload;
  bool open = true;
  // Runs until the coordinator hangs up or stop() shuts the fd down.
  while (open) {
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms =
        std::max(1, static_cast<int>(opt_.poll_interval_s * 1000));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const IoStatus st = reader.read_from(fd);
      if (st == IoStatus::kEof || st == IoStatus::kError) break;
      while (open) {
        const FrameReader::Status fs = reader.next(payload);
        if (fs == FrameReader::Status::kNeedMore) break;
        if (fs == FrameReader::Status::kCorrupt) {
          open = false;  // a coordinator speaking garbage gets hung up on
          break;
        }
        Value msg;
        try {
          msg = Value::parse(payload);
        } catch (const std::exception&) {
          open = false;
          break;
        }
        const std::string type = msg.get_string("type", "");
        if (type == "hello") {
          Value w = Value::object();
          w.set("type", "welcome");
          w.set("proto", kProtoVersion);
          w.set("slots", opt_.slots);
          w.set("pid", static_cast<std::int64_t>(::getpid()));
          if (!send_msg(w)) open = false;
        } else if (type == "dispatch") {
          Job job;
          runner::WorkerJob& w = job.worker;
          w.unit = static_cast<unsigned>(msg.get_uint("unit", 0));
          w.attempt = static_cast<unsigned>(msg.get_uint("attempt", 0));
          w.fault = msg.get_string("fault", "");
          w.mem_limit = static_cast<std::size_t>(msg.get_uint("mem_limit", 0));
          const std::string stem = prefix + "u" + std::to_string(w.unit) +
                                   ".a" + std::to_string(w.attempt);
          w.plan_path = stem + ".plan";
          w.out_path = stem + ".frame";
          if (const Value* t = msg.find("trace"); t && t->as_bool()) {
            w.trace_path = stem + ".trace";
          }
          job.plan_text = msg.get_string("plan", "");
          if (fault_fires(w.fault, "drop_conn", w.unit, w.attempt)) {
            // Injected partition: children die, the socket slams shut,
            // and the coordinator's disconnect path takes it from here.
            util::log::info("agent",
                            "dropping connection (fault injection)",
                            {{"unit", w.unit}, {"attempt", w.attempt}});
            open = false;
            break;
          }
          queue.push_back(std::move(job));
        } else if (type == "cancel") {
          const unsigned unit = static_cast<unsigned>(msg.get_uint("unit", 0));
          const unsigned attempt =
              static_cast<unsigned>(msg.get_uint("attempt", 0));
          const auto queued = std::find_if(
              queue.begin(), queue.end(), [&](const Job& j) {
                return j.worker.unit == unit && j.worker.attempt == attempt;
              });
          if (queued != queue.end()) {
            // Never started: nothing to classify, the job just goes.
            AttemptResult res;
            res.outcome = "cancelled";
            const bool sent = send_result(queued->worker, res, 0.0);
            queue.erase(queued);
            if (!sent) open = false;
          } else {
            // A running child is killed and reaped like any other: its
            // wait status — or the fragment it finished first — is the
            // result; the coordinator decides what that means.
            for (const Child& c : children) {
              if (c.job.worker.unit == unit &&
                  c.job.worker.attempt == attempt) {
                ::kill(c.pid, SIGKILL);
              }
            }
          }
        }
        // Unknown types are ignored: a newer coordinator may speak more.
      }
    } else if (ready < 0 && errno != EINTR) {
      break;
    }

    while (open && !queue.empty() &&
           busy_.load(std::memory_order_acquire) < opt_.slots) {
      Job job = std::move(queue.front());
      queue.pop_front();
      spawn(std::move(job));
    }
    reap();
    if (open && monotonic_s() - last_send > opt_.heartbeat_interval_s) {
      Value hb = Value::object();
      hb.set("type", "heartbeat");
      if (!send_msg(hb)) open = false;
    }
  }
  kill_children();
}

}  // namespace kronotri::net
