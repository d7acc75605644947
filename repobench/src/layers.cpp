#include "layers.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "analysis/components.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "api/sink.hpp"
#include "kron/oracle.hpp"
#include "triangle/census.hpp"
#include "triangle/clustering.hpp"
#include "truss/decompose.hpp"
#include "validate/report.hpp"
#include "validate/streaming_census.hpp"

namespace repobench {

using namespace kronotri;

Product make_product(unsigned n, std::uint64_t gen_seed) {
  Product p;
  p.n = n;
  p.a_spec = "hk:n=" + std::to_string(n) + ",m=3,p=0.6,seed=" +
             std::to_string(gen_seed);
  p.b_spec = p.a_spec + ",loops=1";
  return p;
}

namespace {

constexpr double kWedgeTolerance = 0.01;
constexpr double kTriangleTolerance = 0.02;
constexpr std::uint64_t kScanLimit = 5000;  // ~1 in 50 seeds qualifies

/// Wedges the streaming census closes in C = A ⊗ (A + I), from A alone:
/// Σ_p C(d_p, 2) with d_(i,j) = d_A(i)·(d_A(j) + 1).
double product_wedges(const Graph& a) {
  double wedges = 0;
  for (vid i = 0; i < a.num_vertices(); ++i) {
    for (vid j = 0; j < a.num_vertices(); ++j) {
      const double d = static_cast<double>(a.nonloop_degree(i)) *
                       static_cast<double>(a.nonloop_degree(j) + 1);
      wedges += d * (d - 1) / 2;
    }
  }
  return wedges;
}

double product_triangles(const Product& p, const Graph& a) {
  const Graph b = api::GeneratorRegistry::builtin().build(p.b_spec);
  return static_cast<double>(kron::TriangleOracle(a, b).total_triangles());
}

}  // namespace

std::uint64_t scan_start(std::uint64_t seed) {
  return 1803 + (seed % 1'000'000'000) * kScanLimit;
}

std::uint64_t screened_seed(unsigned n, std::uint64_t start) {
  const api::GeneratorRegistry& reg = api::GeneratorRegistry::builtin();
  const Product ref = make_product(n, 1803);
  const Graph ref_a = reg.build(ref.a_spec);
  const double wedges = product_wedges(ref_a);
  const double triangles = product_triangles(ref, ref_a);
  for (std::uint64_t g = start; g < start + kScanLimit; ++g) {
    const Product p = make_product(n, g);
    const Graph a = reg.build(p.a_spec);
    if (std::abs(product_wedges(a) / wedges - 1) <= kWedgeTolerance &&
        std::abs(product_triangles(p, a) / triangles - 1) <= kTriangleTolerance) {
      return g;
    }
  }
  throw std::runtime_error("no generator seed in [" + std::to_string(start) +
                           ", +" + std::to_string(kScanLimit) +
                           ") matches the reference product's work");
}

api::RunPlan protocol_plan(const Product& p, unsigned threads) {
  api::RunPlan plan = api::RunPlan::parse(
      p.spec() +
      " census:edges=1 degree:histogram=0,measured=1 components "
      "validate:mem_budget=1M");
  plan.options.threads = threads;
  return plan;
}

namespace {

constexpr std::size_t kValidateBudget = 1u << 20;

const util::json::Value* analysis_data(const api::RunReport& r,
                                       const std::string& name) {
  for (const api::AnalysisReport& a : r.analyses) {
    if (a.name == name) return &a.data;
  }
  return nullptr;
}

/// Sink that only counts — the stream layer's cost with no consumer work.
class CountingSink final : public api::EdgeSink {
 protected:
  void do_consume(std::span<const kron::EdgeRecord>) override {}
};

/// Which sinks one stream pass feeds.
enum SinkSet : unsigned {
  kCount = 0,
  kWrite = 1,
  kCensus = 2,
  kDegree = 4,
  kCollect = 8,
  kAll = kWrite | kCensus | kDegree | kCollect,
};

/// One stream_parallel pass of C into the given sinks, one TeeSink per
/// partition as api::run builds it. Files go to out_path.partN.
struct Pass {
  std::vector<std::unique_ptr<api::EdgeSink>> sinks;
  std::vector<api::CooCollectorSink*> collectors;
  std::uint64_t entries = 0;
  std::uint64_t bytes_written = 0;
};

Pass stream_pass(const Graph& a, const Graph& b,
                 const kron::TriangleOracle& oracle, unsigned partitions,
                 unsigned set, const std::string& out_path) {
  Pass pass;
  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::string> names;
  const vid n = oracle.num_vertices();
  pass.sinks = api::stream_parallel(
      a, b, partitions,
      [&](std::uint64_t part, std::uint64_t) -> std::unique_ptr<api::EdgeSink> {
        if (set == kCount) return std::make_unique<CountingSink>();
        std::vector<std::unique_ptr<api::EdgeSink>> children;
        if ((set & kWrite) != 0) {
          names.push_back(out_path + ".part" + std::to_string(part));
          files.push_back(std::make_unique<std::ofstream>(
              names.back(), std::ios::binary | std::ios::trunc));
          if (!*files.back()) {
            throw std::runtime_error("cannot open " + names.back());
          }
          children.push_back(std::make_unique<api::BinaryEdgeSink>(*files.back()));
        }
        if ((set & kCensus) != 0) {
          children.push_back(std::make_unique<api::TriangleCensusSink>(oracle));
        }
        if ((set & kDegree) != 0) {
          children.push_back(std::make_unique<api::DegreeCensusSink>(n));
        }
        if ((set & kCollect) != 0) {
          auto col = std::make_unique<api::CooCollectorSink>();
          pass.collectors.push_back(col.get());
          children.push_back(std::move(col));
        }
        return std::make_unique<api::TeeSink>(std::move(children));
      });
  for (const auto& s : pass.sinks) pass.entries += s->edges_consumed();
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i]->close();
    std::error_code ec;
    pass.bytes_written += std::filesystem::file_size(names[i], ec);
    std::filesystem::remove(names[i], ec);
  }
  return pass;
}

struct alignas(64) Tally {
  count_t triangles = 0;
};

void build_factors(const Product& p, const Trace& t, Samples& s, Graph& a,
                   Graph& b) {
  Span sp(t.tracer, "gen.factor_build", t.job, t.parent);
  const api::GeneratorRegistry& reg = api::GeneratorRegistry::builtin();
  a = reg.build(p.a_spec);
  b = reg.build(p.b_spec);
  s.add("gen.factor_build_s", sp.stop());
}

void build_oracle(const Graph& a, const Graph& b, const Trace& t, Samples& s,
                  std::optional<kron::TriangleOracle>& oracle) {
  Span sp(t.tracer, "kron.oracle", t.job, t.parent);
  oracle.emplace(a, b);
  s.add("kron.oracle_s", sp.stop());
}

}  // namespace

bool check_protocol_report(const api::RunReport& r, Checker& ck) {
  const util::json::Value* v = analysis_data(r, "validate");
  const util::json::Value* c = analysis_data(r, "census");
  if (v == nullptr || c == nullptr) {
    ck.fail("protocol report lacks its validate or census result: " + r.error);
    return false;
  }
  bool ok = ck.holds("verdict", r.pass && v->get_bool("pass", false),
                     "validate verdict");
  ok = ck.eq("tau", v->get_uint("measured_total", 0),
             c->get_uint("total_triangles", 0),
             "measured triangles vs closed form") &&
       ok;
  return ok;
}

ReplicaResult protocol_replica(const Product& p, unsigned threads,
                               const Trace& t, Checker& ck, Samples& s) {
  ReplicaResult out;
  Span job(t.tracer, "job.protocol", t.job, t.parent);
  const Trace in = t.child(job.id());

  Graph a;
  Graph b;
  build_factors(p, in, s, a, b);
  std::optional<kron::TriangleOracle> oracle;
  build_oracle(a, b, in, s, oracle);
  {
    Span sp(in.tracer, "api.stream_pass", in.job, in.parent);
    const Pass pass = stream_pass(a, b, *oracle, threads, kCensus | kDegree, "");
  }
  {
    Span sp(in.tracer, "analysis.components", in.job, in.parent);
    (void)analysis::kron_component_count(a, b);
  }
  validate::ValidationReport vr;
  {
    Span sp(in.tracer, "validate.product", in.job, in.parent);
    validate::StreamingOptions opt;
    opt.mem_budget_bytes = kValidateBudget;
    vr = validate::validate_product(a, b, opt);
  }
  out.wall_s = job.stop();
  if (in.tracer != nullptr) out.layers_s = in.tracer->children_seconds(job.id());
  out.ok = ck.holds("verdict", vr.pass(), "validate verdict");
  out.ok = ck.eq("tau", vr.measured_total, oracle->total_triangles(),
                 "measured triangles vs closed form") &&
           out.ok;
  return out;
}

MaterializeResult materialize_job(const Product& p, unsigned partitions,
                                  const std::string& out_path, const Trace& t,
                                  Checker& ck, Samples& s) {
  MaterializeResult out;
  Span job(t.tracer, "job.materialize", t.job, t.parent);
  const Trace in = t.child(job.id());

  Graph a;
  Graph b;
  build_factors(p, in, s, a, b);
  std::optional<kron::TriangleOracle> oracle;
  build_oracle(a, b, in, s, oracle);
  const vid n = oracle->num_vertices();

  Pass pass;
  {
    Span sp(in.tracer, "api.tee", in.job, in.parent);
    pass = stream_pass(a, b, *oracle, partitions, kAll, out_path);
  }
  out.entries = pass.entries;
  out.edges = oracle->num_undirected_edges();

  Graph g;
  std::size_t collected_bytes = 0;
  {
    Span sp(in.tracer, "core.from_edges", in.job, in.parent);
    std::vector<std::pair<vid, vid>> edges;
    edges.reserve(pass.entries);
    for (const api::CooCollectorSink* col : pass.collectors) {
      edges.insert(edges.end(), col->edges().begin(), col->edges().end());
    }
    collected_bytes = 2 * edges.size() * sizeof(edges[0]);
    g = Graph::from_edges(n, edges, false);
    s.add("core.from_edges_s", sp.stop());
  }
  const std::size_t graph_bytes =
      (static_cast<std::size_t>(n) + 1) * sizeof(esz) + g.nnz() * sizeof(vid);
  s.add("core.graph_bytes", static_cast<double>(graph_bytes));

  std::optional<triangle::CensusWorkspace> ws;
  {
    Span sp(in.tracer, "triangle.prepare", in.job, in.parent);
    ws.emplace(g);
    s.add("triangle.prepare_s", sp.stop());
  }
  count_t tau = 0;
  {
    Span sp(in.tracer, "triangle.enumerate", in.job, in.parent);
    std::vector<Tally> tls(triangle::census_workers());
    out.wedge_checks = ws->for_each_triangle(
        tls, [](Tally& local, vid, vid, vid, esz, esz, esz) {
          ++local.triangles;
        });
    for (const Tally& l : tls) tau += l.triangles;
    const double d = sp.stop();
    s.add("triangle.enumerate_s", d);
    s.add("triangle.tri_per_s", static_cast<double>(tau) / d);
    s.add("triangle.wedge_checks", static_cast<double>(out.wedge_checks));
  }
  count_t edge_sum = 0;
  {
    Span sp(in.tracer, "triangle.reduce", in.job, in.parent);
    for (const count_t c : ws->edge_census()) edge_sum += c;
    s.add("triangle.reduce_s", sp.stop());
  }
  {
    Span sp(in.tracer, "analysis.clustering", in.job, in.parent);
    (void)triangle::global_clustering(g);
    (void)triangle::average_clustering(g);
    s.add("analysis.clustering_s", sp.stop());
  }
  {
    Span sp(in.tracer, "truss.decompose", in.job, in.parent);
    (void)truss::decompose(g);
    s.add("truss.decompose_s", sp.stop());
  }
  out.wall_s = job.stop();
  if (in.tracer != nullptr) out.layers_s = in.tracer->children_seconds(job.id());
  s.add("kron.entries", static_cast<double>(pass.entries));

  const std::size_t degree_bytes =
      static_cast<std::size_t>(partitions) * n * sizeof(count_t);
  out.working_set_bytes = collected_bytes + graph_bytes + degree_bytes;

  out.ok = ck.eq("tau", tau, oracle->total_triangles(),
                 "materialized census vs oracle total");
  out.ok = ck.eq("tau", edge_sum, 3 * tau, "edge census sum vs 3 tau") && out.ok;
  out.ok = ck.eq("records", pass.bytes_written / (2 * sizeof(vid)),
                 pass.entries, "edge-list records written vs streamed") &&
           out.ok;
  out.ok = ck.eq("records", pass.entries, a.nnz() * b.nnz(),
                 "streamed entries vs nnz(A) nnz(B)") &&
           out.ok;
  return out;
}

void product_probes(const Product& p, unsigned partitions, unsigned threads,
                    const std::string& out_path, unsigned reps,
                    const Trace& t, Checker& ck, Samples& s) {
  Span probe(t.tracer, "probe.product", t.job, t.parent);
  const Trace in = t.child(probe.id());
  Graph a;
  Graph b;
  build_factors(p, in, s, a, b);
  std::optional<kron::TriangleOracle> oracle;
  build_oracle(a, b, in, s, oracle);

  const auto timed_pass = [&](const char* name, unsigned set) {
    Span sp(in.tracer, name, in.job, in.parent);
    const Pass pass = stream_pass(a, b, *oracle, partitions, set, out_path);
    return std::pair<double, std::uint64_t>(sp.stop(), pass.entries);
  };
  for (unsigned rep = 0; rep < reps; ++rep) {
    const auto [stream_s, entries] = timed_pass("kron.stream", kCount);
    s.add("kron.stream_s", stream_s);
    s.add("kron.entries", static_cast<double>(entries));
    s.add("api.sink.census_s", timed_pass("api.sink.census", kCensus).first - stream_s);
    s.add("api.sink.degree_s", timed_pass("api.sink.degree", kDegree).first - stream_s);
    s.add("api.sink.collect_s", timed_pass("api.sink.collect", kCollect).first - stream_s);
    s.add("api.sink.write_s", timed_pass("api.sink.write", kWrite).first - stream_s);
    s.add("api.tee_s", timed_pass("api.tee", kAll).first - stream_s);
  }

  validate::StreamingOptions opt;
  opt.mem_budget_bytes = kValidateBudget;
  std::optional<validate::StreamingCensus> census;
  double plan_s = 0;
  {
    Span sp(in.tracer, "validate.plan", in.job, in.parent);
    census.emplace(a, b, opt);
    plan_s = sp.stop();
  }
  validate::StreamingStats stats;
  double shards_s = 0;
  {
    Span sp(in.tracer, "validate.shards", in.job, in.parent);
    stats = census->run();
    shards_s = sp.stop();
  }
  validate::ValidationReport vr;
  double product_s = 0;
  {
    Span sp(in.tracer, "validate.product", in.job, in.parent);
    vr = validate::validate_product(a, b, opt);
    product_s = sp.stop();
  }
  double one_thread_s = shards_s;
#ifdef _OPENMP
  {
    const int team = omp_get_max_threads();
    omp_set_num_threads(1);
    Span sp(in.tracer, "validate.shards_1t", in.job, in.parent);
    (void)census->run();
    one_thread_s = sp.stop();
    omp_set_num_threads(team);
  }
#endif
  s.add("validate.plan_s", plan_s);
  s.add("validate.shards_s", shards_s);
  s.add("validate.compare_s", product_s - plan_s - shards_s);
  s.add("validate.wedge_checks", static_cast<double>(stats.wedge_checks));
  s.add("validate.shards", static_cast<double>(stats.num_shards));
  s.add("validate.wedges_per_s", static_cast<double>(stats.wedge_checks) / shards_s);
  s.add("validate.peak_accum_bytes",
        static_cast<double>(vr.stats.peak_accumulator_bytes));
  s.add("validate.scaling_eff_4t", one_thread_s / (threads * shards_s));

  ck.holds("verdict", vr.pass(), "validate verdict");
  ck.eq("tau", vr.measured_total, oracle->total_triangles(),
        "measured triangles vs closed form");
  ck.eq("counts", vr.stats.wedge_checks, stats.wedge_checks,
        "wedge checks of validate_product vs StreamingCensus::run");
}

}  // namespace repobench
