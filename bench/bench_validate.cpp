// Streaming-validation benchmark (BENCH_validate.json): the sharded
// src/validate/ census against the materializing path.
//
// Artifact contract (consumed by CI):
//   * every preset's ValidationReport must PASS — the binary exits non-zero
//     otherwise, failing the job;
//   * the "over_budget" preset proves the headline capability: its
//     materialized edge list is larger than the configured memory budget,
//     yet the streaming census completes with peak accumulator bytes within
//     the budget (the allocation counter the acceptance criterion asks
//     for); peak RSS is recorded alongside as the ambient signal;
//   * the "small_parity" preset additionally cross-checks the streaming
//     counts bit-for-bit against triangle::analyze on the materialized
//     product and reports the edges/s of both paths.
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common.hpp"
#include "util/runmeta.hpp"
#include "kron/multi.hpp"
#include "kron/product.hpp"
#include "kron/stream.hpp"
#include "triangle/count.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "validate/report.hpp"
#include "validate/streaming_census.hpp"

namespace {

using namespace kronotri;

long peak_rss_kib() {
#ifdef __unix__
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
#else
  return 0;
#endif
}

struct PresetResult {
  std::string name;
  std::string spec;
  vid n_c = 0;
  esz nnz_c = 0;
  count_t edges = 0;
  std::size_t mem_budget = 0;
  std::size_t num_shards = 0;
  std::size_t peak_accumulator_bytes = 0;
  std::size_t materialized_edge_list_bytes = 0;
  count_t wedge_checks = 0;
  double streaming_s = 0;
  double materialized_s = -1;  // < 0: comparison not run for this preset
  bool bit_identical = true;
  bool report_pass = false;
  long peak_rss_kib = 0;

  [[nodiscard]] bool budget_exceeded_by_materialization() const {
    return materialized_edge_list_bytes > mem_budget;
  }
  [[nodiscard]] bool within_budget() const {
    return peak_accumulator_bytes <= mem_budget;
  }
};

std::vector<Graph> build_factors(const std::string& spec_text) {
  return api::GeneratorRegistry::builtin().build_factors(
      api::GraphSpec::parse(spec_text));
}

PresetResult run_preset(const std::string& name, const std::string& spec_text,
                        std::size_t budget, bool compare_materialized) {
  PresetResult r;
  r.name = name;
  r.spec = spec_text;
  r.mem_budget = budget;
  const auto factors = build_factors(spec_text);

  validate::StreamingOptions opt;
  opt.mem_budget_bytes = budget;
  util::WallTimer stream_timer;
  const validate::ValidationReport report =
      validate::validate_product(factors[0], factors[1], opt);
  r.streaming_s = stream_timer.seconds();
  r.n_c = report.num_vertices;
  r.edges = report.num_edges;
  r.num_shards = report.stats.num_shards;
  r.peak_accumulator_bytes = report.stats.peak_accumulator_bytes;
  r.wedge_checks = report.stats.wedge_checks;
  r.report_pass = report.pass();

  r.nnz_c = kron::KronChain({factors[0], factors[1]}).nnz();
  r.materialized_edge_list_bytes =
      static_cast<std::size_t>(r.nnz_c) * sizeof(kron::EdgeRecord);

  if (compare_materialized) {
    util::WallTimer mat_timer;
    const Graph c = kron::kron_graph(factors[0], factors[1]);
    const auto stats = triangle::analyze(c);
    r.materialized_s = mat_timer.seconds();
    // Bit-identical cross-check of the streaming shards against the PR-2
    // engine on the materialized product.
    validate::StreamingCensus census(factors[0], factors[1], opt);
    esz edges_seen = 0;
    vid next_vertex = 0;
    census.run([&](const validate::StreamingCensus::Shard& shard) {
      const auto vc = shard.vertex_counts();
      for (std::size_t i = 0; i < vc.size(); ++i, ++next_vertex) {
        if (vc[i] != stats.per_vertex[next_vertex]) r.bit_identical = false;
      }
      shard.for_each_owned_edge([&](vid u, vid v, count_t d) {
        ++edges_seen;
        if (!stats.per_edge.contains(u, v) || stats.per_edge.at(u, v) != d) {
          r.bit_identical = false;
        }
      });
    });
    if (next_vertex != c.num_vertices() ||
        edges_seen * 2 != stats.per_edge.nnz()) {
      r.bit_identical = false;
    }
  }
  r.peak_rss_kib = peak_rss_kib();
  return r;
}

std::vector<PresetResult> g_results;
bool g_all_ok = true;

util::json::Value preset_json(const PresetResult& r) {
  util::json::Value j = util::json::Value::object();
  j.set("name", r.name);
  j.set("spec", r.spec);
  j.set("product_vertices", r.n_c);
  j.set("product_nnz", r.nnz_c);
  j.set("product_edges", r.edges);
  j.set("mem_budget_bytes", r.mem_budget);
  j.set("num_shards", r.num_shards);
  j.set("peak_accumulator_bytes", r.peak_accumulator_bytes);
  j.set("materialized_edge_list_bytes", r.materialized_edge_list_bytes);
  j.set("materialization_exceeds_budget",
        r.budget_exceeded_by_materialization());
  j.set("accumulators_within_budget", r.within_budget());
  j.set("wedge_checks", r.wedge_checks);
  j.set("streaming_seconds", r.streaming_s);
  j.set("streaming_eps",
        r.streaming_s > 0 ? static_cast<double>(r.edges) / r.streaming_s : 0.0);
  j.set("materialized_seconds", r.materialized_s);
  j.set("materialized_eps",
        r.materialized_s > 0
            ? static_cast<double>(r.edges) / r.materialized_s
            : 0.0);
  j.set("bit_identical", r.bit_identical);
  j.set("peak_rss_kib", r.peak_rss_kib);
  j.set("validation_pass", r.report_pass);
  return j;
}

void print_artifact() {
  kt_bench::banner("Streaming validation (BENCH_validate.json)",
                   "sharded census of implicit products vs materialization");

  // Small parity preset: cheap enough to materialize, so both paths run
  // and the streaming counts are cross-checked bit-for-bit.
  g_results.push_back(run_preset(
      "small_parity", "kron:(hk:n=150,m=3,p=0.6,seed=5)x(clique:n=4,loops=1)",
      16u << 10, /*compare_materialized=*/true));

  // Over-budget preset: the materialized edge list (nnz_C · 16 B) is ~7×
  // the 1 MiB budget; the streaming census must complete within it.
  g_results.push_back(run_preset(
      "over_budget", "kron:(hk:n=1500,m=4,p=0.6,seed=7)x(clique:n=5)",
      1u << 20, /*compare_materialized=*/false));

  util::Table t({"preset", "edges", "shards", "budget B", "peak acc B",
                 "mat. list B", "stream s", "mat. s", "verdict"});
  for (const auto& r : g_results) {
    const bool preset_ok =
        r.report_pass && r.bit_identical && r.within_budget() &&
        (r.name != "over_budget" || r.budget_exceeded_by_materialization());
    g_all_ok = g_all_ok && preset_ok;
    t.row({r.name, util::commas(r.edges), std::to_string(r.num_shards),
           util::commas(r.mem_budget), util::commas(r.peak_accumulator_bytes),
           util::commas(r.materialized_edge_list_bytes),
           std::to_string(r.streaming_s),
           r.materialized_s < 0 ? "-" : std::to_string(r.materialized_s),
           preset_ok ? "PASS" : "FAIL"});
  }
  t.print(std::cout);

  util::json::Value j = util::json::Value::object();
  util::json::Value specs = util::json::Value::array();
  for (const auto& r : g_results) specs.push_back(preset_json(r));
  j.set("specs", std::move(specs));
  j.set("all_pass", g_all_ok);
  j.set("metadata", util::run_metadata(api::kDefaultBatchSize));
  std::ofstream out("BENCH_validate.json");
  j.dump(out);
  out << "\n";
  std::cout << "\nwrote BENCH_validate.json ("
            << (g_all_ok ? "all presets PASS" : "VALIDATION FAILURE")
            << "; over_budget censused a product whose edge list is "
            << util::commas(g_results.back().materialized_edge_list_bytes)
            << " B under a " << util::commas(g_results.back().mem_budget)
            << " B accumulator budget)\n";
}

void bm_streaming_census(benchmark::State& state) {
  const auto factors =
      build_factors("kron:(hk:n=300,m=3,p=0.6,seed=9)x(clique:n=4)");
  validate::StreamingOptions opt;
  opt.mem_budget_bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto stats =
        validate::StreamingCensus(factors[0], factors[1], opt).run();
    benchmark::DoNotOptimize(stats.total_triangles);
  }
}
BENCHMARK(bm_streaming_census)
    ->Arg(4 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void bm_materialized_census(benchmark::State& state) {
  const auto factors =
      build_factors("kron:(hk:n=300,m=3,p=0.6,seed=9)x(clique:n=4)");
  for (auto _ : state) {
    const Graph c = kron::kron_graph(factors[0], factors[1]);
    const auto stats = triangle::analyze(c);
    benchmark::DoNotOptimize(stats.total);
  }
}
BENCHMARK(bm_materialized_census)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = kt_bench::run(argc, argv, print_artifact);
  if (rc != 0) return rc;
  return g_all_ok ? 0 : 1;  // CI gates on the ValidationReports
}
