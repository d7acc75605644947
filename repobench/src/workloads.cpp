#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "api/registry.hpp"
#include "kron/oracle.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "service/client.hpp"

namespace repobench {

using namespace kronotri;

namespace {

constexpr unsigned kPartitions = 4;    ///< materialize: stream partitions
constexpr unsigned kLocalWorkers = 2;  ///< distributed: fork/exec workers
constexpr unsigned kAgents = 2;        ///< distributed: 1-slot agents
constexpr unsigned kClients = 4;       ///< service: closed-loop clients
/// service: a window reports p90 as its tail only with 100+ requests; a
/// floor above that keeps a slow run from falling back to p50.
constexpr std::size_t kMinWindowRequests = 120;
constexpr double kMiB = 1024.0 * 1024.0;

struct Named {
  const char* name;
  const char* unit;
};

const std::vector<Named> kEndToEnd = {
    {"setup_s", "s"},         {"job_s_p50", "s"},     {"job_s_tail", "s"},
    {"edges_per_s", "1/s"},   {"cpu_s_per_job", "s"}, {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};

const std::vector<Named> kPerLayer = {
    {"gen.factor_build_s", "s"},
    {"kron.stream_s", "s"},
    {"kron.entries", "count"},
    {"kron.oracle_s", "s"},
    {"api.sink.census_s", "s"},
    {"api.sink.degree_s", "s"},
    {"api.sink.collect_s", "s"},
    {"api.sink.write_s", "s"},
    {"api.tee_s", "s"},
    {"api.run_self_s", "s"},
    {"core.from_edges_s", "s"},
    {"core.graph_bytes", "bytes"},
    {"triangle.prepare_s", "s"},
    {"triangle.enumerate_s", "s"},
    {"triangle.reduce_s", "s"},
    {"triangle.wedge_checks", "count"},
    {"triangle.tri_per_s", "1/s"},
    {"truss.decompose_s", "s"},
    {"analysis.clustering_s", "s"},
    {"validate.plan_s", "s"},
    {"validate.shards_s", "s"},
    {"validate.compare_s", "s"},
    {"validate.wedge_checks", "count"},
    {"validate.shards", "count"},
    {"validate.wedges_per_s", "1/s"},
    {"validate.peak_accum_bytes", "bytes"},
    {"validate.scaling_eff_4t", "ratio"},
    {"runner.units", "count"},
    {"runner.attempts", "count"},
    {"runner.failed_attempt_ratio", "ratio"},
    {"runner.unit_wall_s", "s"},
    {"runner.unit_cpu_s", "s"},
    {"runner.cpu_per_unit_wall", "ratio"},
    {"runner.coord_s", "s"},
    {"runner.unit_max_rss_mb", "MB"},
    {"net.remote_attempts", "count"},
    {"net.remote_overhead", "ratio"},
    {"net.disconnects", "count"},
    {"net.garbled", "count"},
    {"net.agent_ready_s", "s"},
    {"service.cold_s_p50", "s"},
    {"service.hit_s_p50", "s"},
    {"service.wait_s_p50", "s"},
    {"service.execute_s_p50", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"service.replay_mismatches", "count"},
    {"obs.bench_trace_overhead", "ratio"},
    {"obs.recorder_overhead", "ratio"},
    {"obs.span_coverage", "ratio"},
};

/// Everything one run shares.
struct Ctx {
  Ctx(const Config& config, Checker& checker, Tracer& t, RunOutput& o)
      : cfg(config), ck(checker), tracer(t), out(o) {}

  const Config& cfg;
  Checker& ck;
  Tracer& tracer;
  RunOutput& out;
  Samples s;  ///< per-layer samples (traced runs)
  Product product;
  api::RunPlan plan;
  std::atomic<std::uint64_t> next_job{1};
  std::atomic<std::uint64_t> next_fresh{0};  ///< service: fresh plan counter
  std::mutex mu;  ///< guards out.attempted/out.failed and working_set
  /// Computed (not measured) working set of each job kind that ran.
  std::map<std::string, std::uint64_t> working_set;

  void note_working_set(const std::string& kind, std::uint64_t bytes) {
    const std::lock_guard<std::mutex> lock(mu);
    working_set[kind] = bytes;
  }
  bool account(bool ok) {
    const std::lock_guard<std::mutex> lock(mu);
    ++out.attempted;
    if (!ok) ++out.failed;
    return ok;
  }
  Trace trace() { return Trace{&tracer, next_job++, -1}; }
  [[nodiscard]] std::string path(const std::string& name) const {
    return cfg.run_dir + "/" + name + "-" + std::to_string(::getpid());
  }
};

// ---- end-to-end measurement ---------------------------------------------------

struct Window {
  std::vector<double> job_s;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t edges = 0;
};

/// One caller submitting jobs back to back for cfg.seconds (at least one).
/// `job(edges)` returns whether the job's checks passed.
Window closed_loop(Ctx& c, const std::function<double()>& cpu_now,
                   const std::function<bool(std::uint64_t&)>& job) {
  Window w;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_now();
  do {
    const Clock::time_point s = Clock::now();
    std::uint64_t edges = 0;
    bool ok = false;
    try {
      ok = job(edges);
    } catch (const std::exception& e) {
      c.ck.fail(std::string("job failed: ") + e.what());
    }
    w.job_s.push_back(seconds_between(s, Clock::now()));
    if (c.account(ok)) w.edges += edges;
  } while (seconds_between(t0, Clock::now()) < c.cfg.seconds);
  w.wall_s = seconds_between(t0, Clock::now());
  w.cpu_s = cpu_now() - cpu0;
  return w;
}

/// cfg.setups set-ups, each timed; `teardown` runs untimed before each.
std::vector<double> timed_setups(Ctx& c, const std::function<void()>& teardown,
                                 const std::function<void()>& setup) {
  std::vector<double> out;
  for (unsigned k = 0; k < c.cfg.setups; ++k) {
    teardown();
    const Clock::time_point t0 = Clock::now();
    setup();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

void emit_e2e(Ctx& c, const Window& w, const std::vector<double>& setup_s,
              std::size_t peak_rss_bytes) {
  const Tail tail = tail_latency(w.job_s);
  const double jobs = static_cast<double>(std::max<std::size_t>(1, w.job_s.size()));
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, c.out.attempted));
  const std::map<std::string, double> v = {
      {"setup_s", median(setup_s)},
      {"job_s_p50", median(w.job_s)},
      {"job_s_tail", tail.value},
      {"edges_per_s", static_cast<double>(w.edges) / w.wall_s},
      {"cpu_s_per_job", w.cpu_s / jobs},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes) / kMiB},
      {"ok_ratio", (attempted - static_cast<double>(c.out.failed)) / attempted},
  };
  for (const Named& m : kEndToEnd) c.out.metrics.push_back({m.name, v.at(m.name), m.unit});
  util::json::Value t = util::json::Value::object();
  t.set("percentile", tail.percentile);
  t.set("samples", static_cast<std::uint64_t>(tail.samples));
  t.set("beyond", static_cast<std::uint64_t>(tail.beyond));
  c.out.stamp.set("job_s_tail", std::move(t));
  c.out.stamp.set("fail_ratio", static_cast<double>(c.out.failed) / attempted);
  c.out.stamp.set("jobs_measured", static_cast<std::uint64_t>(w.job_s.size()));
  util::json::Value job_s = util::json::Value::array();
  for (const double d : w.job_s) job_s.push_back(d);
  c.out.stamp.set("job_s", std::move(job_s));
  c.out.stamp.set("window_s", w.wall_s);
}

/// `untraced` / `traced` name the samples of the workload's own job walls;
/// `coverage` names per-pair ratios of a traced job's layer spans to the
/// wall of the untraced job run next to it.
void emit_per_layer(Ctx& c, const std::string& untraced,
                    const std::string& traced, const std::string& coverage) {
  Samples& s = c.s;
  s.add("api.run_self_s",
        s.median_of("_proto.off_s") - s.median_of("_proto.replica_layers_s"));
  s.add("obs.recorder_overhead", s.median_of("_proto.recorder_ratio"));
  s.add("obs.bench_trace_overhead", s.median_of(traced) / s.median_of(untraced));
  s.add("obs.span_coverage", s.median_of(coverage));
  for (const Named& m : kPerLayer) {
    if (!s.has(m.name)) c.ck.fail(std::string("per-layer metric not measured: ") + m.name);
    c.out.metrics.push_back({m.name, s.median_of(m.name), m.unit});
  }
  util::json::Value self = util::json::Value::object();
  for (const auto& [name, secs] : c.tracer.self_seconds()) self.set(name, secs);
  c.out.stamp.set("span_self_s", std::move(self));
}

const util::json::Value* analysis_data(const api::RunReport& r, const char* name) {
  for (const api::AnalysisReport& a : r.analyses) {
    if (a.name == name) return &a.data;
  }
  return nullptr;
}

/// Computed working set of a protocol job: one degree counter array per
/// stream partition plus the largest validation shard's accumulators.
std::uint64_t protocol_working_set(const api::RunReport& r) {
  const util::json::Value* v = analysis_data(r, "validate");
  return std::uint64_t{r.partitions} * r.num_vertices * sizeof(count_t) +
         (v != nullptr ? v->get_uint("peak_accumulator_bytes", 0) : 0);
}

void note_protocol_counts(Ctx& c, const api::RunReport& r) {
  c.out.counts.add("kron.entries", static_cast<double>(r.stored_entries));
  if (const util::json::Value* v = analysis_data(r, "validate")) {
    c.out.counts.add("validate.wedge_checks",
                     static_cast<double>(v->get_uint("wedge_checks", 0)));
    c.out.counts.add("validate.shards", static_cast<double>(v->get_uint("num_shards", 0)));
  }
  c.note_working_set("protocol", protocol_working_set(r));
}

std::string canonical_comparable(const api::RunReport& r) {
  return runner::comparable(r.to_json()).dump_canonical_string();
}

// ---- protocol ------------------------------------------------------------------

bool protocol_job(Ctx& c, std::uint64_t& edges) {
  const api::RunReport r = api::run(c.plan);
  note_protocol_counts(c, r);
  edges = r.num_undirected_edges;
  return check_protocol_report(r, c.ck);
}

/// api::run with the flight recorder off and on (paired, order alternating)
/// and the traced replica of the same job. Returns the comparable form of
/// the in-process report.
std::string protocol_iteration(Ctx& c, bool off_first) {
  std::string comparable;
  const auto run_once = [&](bool recorder) {
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.set_enabled(recorder);
    const Clock::time_point t0 = Clock::now();
    const api::RunReport r = api::run(c.plan);
    const double d = seconds_between(t0, Clock::now());
    rec.set_enabled(false);
    rec.clear();
    note_protocol_counts(c, r);
    c.account(check_protocol_report(r, c.ck));
    if (!recorder) comparable = canonical_comparable(r);
    return d;
  };
  double off = 0;
  double on = 0;
  if (off_first) {
    off = run_once(false);
    on = run_once(true);
  } else {
    on = run_once(true);
    off = run_once(false);
  }
  c.s.add("_proto.off_s", off);
  c.s.add("_proto.recorder_ratio", on / off);
  const ReplicaResult rr =
      protocol_replica(c.product, c.cfg.threads, c.trace(), c.ck, c.s);
  c.account(rr.ok);
  c.s.add("_proto.replica_s", rr.wall_s);
  c.s.add("_proto.replica_layers_s", rr.layers_s);
  c.s.add("_proto.coverage", rr.layers_s / off);
  return comparable;
}

// ---- materialize ----------------------------------------------------------------

MaterializeResult materialize_once(Ctx& c, const Trace& t, Samples& s) {
  MaterializeResult r = materialize_job(c.product, kPartitions,
                                        c.path("edges"), t, c.ck, s);
  c.out.counts.add("kron.entries", static_cast<double>(r.entries));
  c.out.counts.add("triangle.wedge_checks", static_cast<double>(r.wedge_checks));
  c.note_working_set("materialize", r.working_set_bytes);
  return r;
}

// ---- distributed ----------------------------------------------------------------

struct Agents {
  std::vector<std::unique_ptr<Child>> procs;
  std::vector<std::string> endpoints;

  [[nodiscard]] double cpu() const {
    double total = 0;
    for (const auto& p : procs) total += p->cpu_seconds();
    return total;
  }
  [[nodiscard]] std::size_t hwm() const {
    std::size_t m = 0;
    for (const auto& p : procs) m = std::max(m, p->hwm_bytes());
    return m;
  }
};

std::unique_ptr<Agents> start_agents(Ctx& c) {
  auto agents = std::make_unique<Agents>();
  for (unsigned i = 0; i < kAgents; ++i) {
    const Clock::time_point t0 = Clock::now();
    agents->procs.push_back(std::make_unique<Child>(std::vector<std::string>{
        c.cfg.kronotri, "agent", "--listen", "127.0.0.1:0", "--slots", "1"}));
    // "agent listening on HOST:PORT (slots=1)"
    const std::string line = agents->procs.back()->read_line(30);
    const std::string tag = "listening on ";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) throw std::runtime_error("agent said: " + line);
    const std::size_t from = at + tag.size();
    agents->endpoints.push_back(line.substr(from, line.find(' ', from) - from));
    c.s.add("net.agent_ready_s", seconds_between(t0, Clock::now()));
  }
  return agents;
}

void runner_samples(Ctx& c, const api::RunReport& r, double wall) {
  std::set<unsigned> units;
  std::map<std::string, double> chain;  // busy seconds per dispatch slot
  double unit_wall = 0;
  double unit_cpu = 0;
  double local_wall = 0;
  double remote_wall = 0;
  double local_n = 0;
  double remote_n = 0;
  double failed = 0;
  double disconnects = 0;
  double garbled = 0;
  std::size_t max_rss = 0;
  for (const api::WorkerEvent& e : r.worker_events) {
    units.insert(e.unit);
    unit_wall += e.wall_s;
    unit_cpu += e.cpu_user_s + e.cpu_sys_s;
    if (e.outcome != "ok") ++failed;
    if (e.outcome == "disconnect") ++disconnects;
    if (e.outcome == "garbled") ++garbled;
    max_rss = std::max(max_rss, e.max_rss_bytes);
    if (e.host.empty()) {
      local_wall += e.wall_s;
      ++local_n;
      chain["local"] += e.wall_s / kLocalWorkers;
    } else {
      remote_wall += e.wall_s;
      ++remote_n;
      chain[e.host] += e.wall_s;
    }
  }
  double longest = 0;
  for (const auto& [target, busy] : chain) longest = std::max(longest, busy);
  const double attempts = static_cast<double>(r.worker_events.size());
  c.s.add("runner.units", static_cast<double>(units.size()));
  c.s.add("runner.attempts", attempts);
  c.s.add("runner.failed_attempt_ratio", attempts > 0 ? failed / attempts : 0);
  c.s.add("runner.unit_wall_s", unit_wall);
  c.s.add("runner.unit_cpu_s", unit_cpu);
  c.s.add("runner.cpu_per_unit_wall", unit_wall > 0 ? unit_cpu / unit_wall : 0);
  c.s.add("runner.coord_s", wall - longest);
  c.s.add("runner.unit_max_rss_mb", static_cast<double>(max_rss) / kMiB);
  c.s.add("net.remote_attempts", remote_n);
  if (remote_n > 0 && local_n > 0) {
    c.s.add("net.remote_overhead", (remote_wall / remote_n) / (local_wall / local_n));
  }
  c.s.add("net.disconnects", disconnects);
  c.s.add("net.garbled", garbled);
  c.out.counts.add("runner.units", static_cast<double>(units.size()));
}

struct DistResult {
  bool ok = false;
  std::uint64_t edges = 0;
  double wall_s = 0;
  std::size_t max_worker_rss = 0;
};

DistResult distributed_job(Ctx& c, const Agents& agents,
                           const std::string& reference, const Trace& t) {
  runner::Options opt = runner::options_from(c.plan);
  opt.workers = kLocalWorkers;
  opt.agents = agents.endpoints;
  opt.worker_exe = c.cfg.kronotri;
  DistResult out;
  Span job(t.tracer, "job.distributed", t.job, t.parent);
  Span ex(t.tracer, "runner.execute", t.job, job.id());
  const api::RunReport r = runner::execute(c.plan, opt);
  out.wall_s = ex.stop();
  job.stop();
  runner_samples(c, r, out.wall_s);
  note_protocol_counts(c, r);
  for (const api::WorkerEvent& e : r.worker_events) {
    out.max_worker_rss = std::max(out.max_worker_rss, e.max_rss_bytes);
  }
  out.edges = r.num_undirected_edges;
  out.ok = check_protocol_report(r, c.ck);
  out.ok = c.ck.same("comparable", canonical_comparable(r), reference,
                     "merged report vs in-process report") &&
           out.ok;
  return out;
}

/// The in-process report of the plan, from a separate `kronotri run` so
/// its memory is not charged to the coordinator.
std::string cli_reference(Ctx& c) {
  const std::string plan_path = c.path("plan") + ".json";
  const std::string out_path = c.path("reference") + ".json";
  {
    std::ofstream f(plan_path);
    c.plan.to_json().dump(f);
  }
  Child cli({c.cfg.kronotri, "run", "--plan", plan_path, "--json", out_path});
  cli.wait_exit(150);
  std::ifstream in(out_path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::error_code ec;
  std::filesystem::remove(plan_path, ec);
  std::filesystem::remove(out_path, ec);
  if (buf.str().empty()) throw std::runtime_error("kronotri run wrote no report");
  const api::RunReport r =
      api::RunReport::from_json(util::json::Value::parse(buf.str()));
  c.account(check_protocol_report(r, c.ck));
  return canonical_comparable(r);
}

void runner_probe(Ctx& c, const std::string& reference) {
  const std::unique_ptr<Agents> agents = start_agents(c);
  c.account(distributed_job(c, *agents, reference, c.trace()).ok);
}

// ---- service -------------------------------------------------------------------

struct ServiceLoad {
  std::vector<double> all;
  std::vector<double> hit;
  std::vector<double> cold;
  std::vector<double> wait;
  std::vector<double> exec;
  std::uint64_t edges = 0;
  std::uint64_t mismatches = 0;
  double wall_s = 0;

  void merge(const ServiceLoad& o) {
    const auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(all, o.all);
    append(hit, o.hit);
    append(cold, o.cold);
    append(wait, o.wait);
    append(exec, o.exec);
    edges += o.edges;
    mismatches += o.mismatches;
  }
};

/// A `kronotri serve` daemon with the cached plan executed once (the
/// warm-up) and replayed once.
class ServiceSession {
 public:
  ServiceSession(Ctx& c, unsigned k) : c_(c) {
    socket_ = c.path("svc") + "-" + std::to_string(k) + ".sock";
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
    daemon_ = std::make_unique<Child>(
        std::vector<std::string>{c.cfg.kronotri, "serve", "--socket", socket_});
    while (daemon_->read_line(30).find("serving on") == std::string::npos) {
    }
    cached_ = c.plan;
    service::Client cl(client_options());
    cl.connect(socket_);
    const util::json::Value first = cl.submit(cached_);
    const util::json::Value* report = first.find("report");
    if (report != nullptr) cached_bytes_ = report->dump_string(0);
    c.account(check_miss(first, nullptr));
    c.account(check_hit(cl.submit(cached_), nullptr));
  }
  ~ServiceSession() {
    daemon_->stop();
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
  }
  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// kClients closed-loop clients for `seconds`: each repeats two fresh
  /// plans (misses) and one cached plan (a hit), ending on the misses,
  /// with at least `min_rounds` rounds each and `min_requests` in all.
  /// Two misses per hit put the median request inside the cold mode; with
  /// one each it would sit in the gap between the two modes and jump from
  /// run to run.
  ServiceLoad load(double seconds, unsigned min_rounds, std::size_t min_requests,
                   Tracer* tracer) {
    ServiceLoad total;
    std::mutex mu;
    std::atomic<std::size_t> done{0};
    const Clock::time_point t0 = Clock::now();
    const auto finished = [&] {
      return seconds_between(t0, Clock::now()) >= seconds && done >= min_requests;
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&] {
        ServiceLoad mine;
        try {
          service::Client cl(client_options());
          cl.connect(socket_);
          for (unsigned rounds = 1;; ++rounds) {
            request(cl, true, tracer, mine);
            request(cl, true, tracer, mine);
            done += 2;
            if (rounds >= min_rounds && finished()) break;
            request(cl, false, tracer, mine);
            ++done;
          }
        } catch (const std::exception& e) {
          c_.ck.fail(std::string("service client: ") + e.what());
          c_.account(false);
        }
        const std::lock_guard<std::mutex> lock(mu);
        total.merge(mine);
      });
    }
    for (std::thread& t : threads) t.join();
    total.wall_s = seconds_between(t0, Clock::now());
    return total;
  }

  util::json::Value stats() {
    service::Client cl(client_options());
    cl.connect(socket_);
    const util::json::Value r = cl.stats();
    const util::json::Value* s = r.find("stats");
    return s != nullptr ? *s : util::json::Value::object();
  }

  [[nodiscard]] double cpu() const { return daemon_->cpu_seconds(); }
  [[nodiscard]] std::size_t hwm() const { return daemon_->hwm_bytes(); }

 private:
  static service::ClientOptions client_options() {
    service::ClientOptions o;
    o.connect_attempts = 5;
    o.request_timeout_s = 120;
    return o;
  }

  void request(service::Client& cl, bool miss, Tracer* tracer, ServiceLoad& l) {
    const std::uint64_t id = c_.next_job++;
    api::RunPlan plan = cached_;
    if (miss) {
      // Fresh plans are not screened (that would cost ~50 ms of CPU each);
      // a run's ~100 of them average their work out. Their generator seeds
      // lie above every scan_start() range.
      const std::uint64_t gen_seed = 10'000'000'000'000 +
                                     (c_.cfg.seed % 1'000'000) * 1'000'000 +
                                     c_.next_fresh++;
      plan = protocol_plan(make_product(c_.cfg.small_n, gen_seed), c_.cfg.threads);
    }
    Span job(tracer, "job.service", id);
    Span rq(tracer, miss ? "service.miss" : "service.hit", id, job.id());
    const util::json::Value response = cl.submit(plan);
    const double d = rq.stop();
    job.stop();
    l.all.push_back(d);
    (miss ? l.cold : l.hit).push_back(d);
    c_.account(miss ? check_miss(response, &l) : check_hit(response, &l));
  }

  bool check_miss(const util::json::Value& response, ServiceLoad* l) {
    const util::json::Value* report = response.find("report");
    if (!response.get_bool("ok", false) || report == nullptr) {
      c_.ck.fail("service refused a fresh plan: " + response.dump_string(0));
      return false;
    }
    const api::RunReport r = api::RunReport::from_json(*report);
    if (l != nullptr) {
      l->edges += r.num_undirected_edges;
      if (const util::json::Value* w = response.find("queue_wait_s")) l->wait.push_back(w->as_double());
      if (const util::json::Value* e = response.find("execute_s")) l->exec.push_back(e->as_double());
    }
    if (l == nullptr) {  // the warm-up
      cached_edges_ = r.num_undirected_edges;
      c_.note_working_set("service", protocol_working_set(r));
    }
    return check_protocol_report(r, c_.ck);
  }

  bool check_hit(const util::json::Value& response, ServiceLoad* l) {
    const util::json::Value* report = response.find("report");
    bool ok = report != nullptr;
    if (!ok) c_.ck.fail("service refused the cached plan: " + response.dump_string(0));
    ok = ok &&
         c_.ck.holds("replay", response.get_string("cache", "") == "hit",
                     "cached plan served from the cache") &&
         c_.ck.same("replay", report->dump_string(0), cached_bytes_,
                    "replayed report bytes");
    if (l != nullptr) {
      if (!ok) ++l->mismatches;
      l->edges += cached_edges_;
    }
    return ok;
  }

  Ctx& c_;
  std::string socket_;
  std::unique_ptr<Child> daemon_;
  api::RunPlan cached_;
  std::string cached_bytes_;
  std::uint64_t cached_edges_ = 0;
};

void service_samples(Ctx& c, const ServiceLoad& l, const util::json::Value& stats) {
  c.s.add("service.cold_s_p50", median(l.cold));
  c.s.add("service.hit_s_p50", median(l.hit));
  c.s.add("service.wait_s_p50", median(l.wait));
  c.s.add("service.execute_s_p50", median(l.exec));
  c.s.add("service.replay_mismatches", static_cast<double>(l.mismatches));
  double hit_rate = 0;
  if (const util::json::Value* cache = stats.find("cache")) {
    if (const util::json::Value* h = cache->find("hit_rate")) hit_rate = h->as_double();
  }
  c.s.add("service.cache_hit_ratio", hit_rate);
  double rejected = 0;
  if (const util::json::Value* r = stats.find("rejected")) {
    for (const auto& m : r->members()) rejected += static_cast<double>(m.second.as_uint());
  }
  c.s.add("service.rejected", rejected);
}

void service_probe(Ctx& c) {
  ServiceSession session(c, 99);
  const ServiceLoad l = session.load(0, 2, 0, &c.tracer);
  service_samples(c, l, session.stats());
}

// ---- traced runs ---------------------------------------------------------------

/// One call into every layer the workload's own jobs do not reach, so
/// every traced run reports every per-layer metric. A traced run sweeps
/// first and then runs its own jobs until cfg.seconds have passed.
void sweep(Ctx& c, const std::string& own) {
  const std::string reference = protocol_iteration(c, true);
  // Runner and service probes run before the product-sized allocations
  // below: Linux charges a forked worker the resident pages of its parent,
  // so a large benchmark process would inflate runner.unit_max_rss_mb.
  if (own != "distributed") runner_probe(c, reference);
  if (own != "service") service_probe(c);
  const std::uint64_t misses = c.ck.misses();
  product_probes(c.product, kPartitions, c.cfg.threads, c.path("probe"),
                 c.cfg.probe_reps, c.trace(), c.ck, c.s);
  c.account(c.ck.misses() == misses);
  if (own != "materialize") c.account(materialize_once(c, c.trace(), c.s).ok);
}

/// Pairs of jobs a traced run measures at least, so its ratios are medians.
constexpr unsigned kMinTracedPairs = 3;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Untraced and traced jobs of the workload alternate until `deadline`
/// (at least kMinTracedPairs pairs). `job` returns its wall and the sum of
/// its layer spans.
void traced_loop(Ctx& c, Clock::time_point deadline,
                 const std::function<std::pair<double, double>(const Trace&)>& job) {
  for (unsigned i = 0; i < kMinTracedPairs || Clock::now() < deadline; ++i) {
    const double untraced = job(Trace{}).first;
    const auto [traced, layers] = job(c.trace());
    c.s.add("_own.untraced_s", untraced);
    c.s.add("_own.traced_s", traced);
    c.s.add("_own.coverage", layers / untraced);
  }
}

// ---- workloads -----------------------------------------------------------------

void run_protocol(Ctx& c) {
  const auto job = [&](std::uint64_t& edges) { return protocol_job(c, edges); };
  if (!c.cfg.trace) {
    const std::vector<double> setup = timed_setups(c, [] {}, [&] {
      c.plan = protocol_plan(c.product, c.cfg.threads);
      std::uint64_t edges = 0;
      c.account(job(edges));
    });
    const Window w = closed_loop(c, own_and_reaped_cpu_s, job);
    emit_e2e(c, w, setup, own_hwm_bytes());
    return;
  }
  const Clock::time_point t0 = Clock::now();
  sweep(c, "protocol");
  // The sweep ran the first iteration.
  for (unsigned i = 1;
       i < kMinTracedPairs || seconds_between(t0, Clock::now()) < c.cfg.seconds; ++i) {
    protocol_iteration(c, i % 2 == 0);
  }
  emit_per_layer(c, "_proto.off_s", "_proto.replica_s", "_proto.coverage");
}

void run_materialize(Ctx& c) {
  if (!c.cfg.trace) {
    const auto job = [&](std::uint64_t& edges) {
      Samples ignored;
      const MaterializeResult r = materialize_once(c, Trace{}, ignored);
      edges = r.edges;
      return r.ok;
    };
    const std::vector<double> setup = timed_setups(c, [] {}, [&] {
      std::uint64_t edges = 0;
      c.account(job(edges));
    });
    const Window w = closed_loop(c, own_and_reaped_cpu_s, job);
    emit_e2e(c, w, setup, own_hwm_bytes());
    return;
  }
  const Clock::time_point deadline = Clock::now() + to_duration(c.cfg.seconds);
  sweep(c, "materialize");
  traced_loop(c, deadline, [&](const Trace& t) {
    Samples ignored;
    const MaterializeResult r = materialize_once(c, t, t.tracer ? c.s : ignored);
    c.account(r.ok);
    return std::pair{r.wall_s, r.layers_s};
  });
  emit_per_layer(c, "_own.untraced_s", "_own.traced_s", "_own.coverage");
}

void run_distributed(Ctx& c) {
  const std::string reference = cli_reference(c);
  std::unique_ptr<Agents> agents;
  std::size_t worker_rss = 0;
  const auto job = [&](std::uint64_t& edges) {
    const DistResult r = distributed_job(c, *agents, reference, Trace{});
    edges = r.edges;
    worker_rss = std::max(worker_rss, r.max_worker_rss);
    return r.ok;
  };
  if (!c.cfg.trace) {
    const std::vector<double> setup = timed_setups(
        c, [&] { agents.reset(); },
        [&] {
          agents = start_agents(c);
          std::uint64_t edges = 0;
          c.account(job(edges));
        });
    const Window w = closed_loop(
        c, [&] { return own_and_reaped_cpu_s() + agents->cpu(); }, job);
    const std::size_t peak = std::max({own_hwm_bytes(), agents->hwm(), worker_rss});
    agents.reset();
    emit_e2e(c, w, setup, peak);
    return;
  }
  // The workload's own jobs run first, while this process is small (see
  // sweep()); the sweep then fills the rest of cfg.seconds.
  agents = start_agents(c);
  traced_loop(c, Clock::now(), [&](const Trace& t) {
    const DistResult r = distributed_job(c, *agents, reference, t);
    c.account(r.ok);
    return std::pair{r.wall_s, r.wall_s};  // one layer call: runner::execute
  });
  agents.reset();
  sweep(c, "distributed");
  emit_per_layer(c, "_own.untraced_s", "_own.traced_s", "_own.coverage");
}

void run_service(Ctx& c) {
  std::unique_ptr<ServiceSession> session;
  if (!c.cfg.trace) {
    unsigned k = 0;
    const std::vector<double> setup = timed_setups(
        c, [&] { session.reset(); },
        [&] { session = std::make_unique<ServiceSession>(c, k++); });
    const double cpu0 = own_and_reaped_cpu_s() + session->cpu();
    const ServiceLoad l = session->load(c.cfg.seconds, 1, kMinWindowRequests, nullptr);
    Window w;
    w.job_s = l.all;
    w.wall_s = l.wall_s;
    w.edges = l.edges;
    w.cpu_s = own_and_reaped_cpu_s() + session->cpu() - cpu0;
    const std::size_t peak = std::max(own_hwm_bytes(), session->hwm());
    const util::json::Value stats = session->stats();
    c.out.stamp.set("service_stats", stats);
    session.reset();
    emit_e2e(c, w, setup, peak);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  sweep(c, "service");
  // The rest of cfg.seconds, half untraced and half traced.
  const double half = std::max(0.0, c.cfg.seconds - seconds_between(t0, Clock::now())) / 2;
  session = std::make_unique<ServiceSession>(c, 0);
  ServiceLoad l = session->load(half, 1, 0, nullptr);
  for (const double d : l.all) c.s.add("_own.untraced_s", d);
  const ServiceLoad traced = session->load(half, 1, 0, &c.tracer);
  for (const double d : traced.all) c.s.add("_own.traced_s", d);
  // A request's one layer call is the whole request; requests are not paired.
  c.s.add("_own.coverage", median(traced.all) / median(l.all));
  l.merge(traced);
  service_samples(c, l, session->stats());
  session.reset();
  emit_per_layer(c, "_own.untraced_s", "_own.traced_s", "_own.coverage");
}

util::json::Value describe_product(const Product& p) {
  const api::GeneratorRegistry& reg = api::GeneratorRegistry::builtin();
  const Graph a = reg.build(p.a_spec);
  const Graph b = reg.build(p.b_spec);
  const kron::TriangleOracle oracle(a, b);
  util::json::Value v = util::json::Value::object();
  v.set("spec", p.spec());
  v.set("vertices", oracle.num_vertices());
  v.set("undirected_edges", oracle.num_undirected_edges());
  v.set("stored_entries", a.nnz() * b.nnz());
  v.set("triangles", oracle.total_triangles());
  return v;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"protocol", "materialize",
                                                 "distributed", "service"};
  return names;
}

RunOutput run_workload(const Config& cfg, Checker& ck, Tracer& tracer) {
  RunOutput out;
  out.stamp = util::json::Value::object();
  Ctx c{cfg, ck, tracer, out};
  const unsigned n = cfg.workload == "service" ? cfg.small_n : cfg.big_n;
  const std::uint64_t gen_seed =
      cfg.screen ? screened_seed(n, scan_start(cfg.seed)) : scan_start(cfg.seed);
  c.product = make_product(n, gen_seed);
  c.plan = protocol_plan(c.product, cfg.threads);
  out.stamp.set("generator_seed", gen_seed);
  out.stamp.set("product", describe_product(c.product));

  if (cfg.workload == "protocol") {
    run_protocol(c);
  } else if (cfg.workload == "materialize") {
    run_materialize(c);
  } else if (cfg.workload == "distributed") {
    run_distributed(c);
  } else if (cfg.workload == "service") {
    run_service(c);
  } else {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  util::json::Value ws = util::json::Value::object();
  for (const auto& [kind, bytes] : c.working_set) ws.set(kind, bytes);
  out.stamp.set("working_set_bytes_computed", std::move(ws));
  return out;
}

}  // namespace repobench
