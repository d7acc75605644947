// E2 — Fig. 7: egonets of nine product vertices built from three degree-3
// factor vertices with 1, 2 and 3 triangles. Degrees must be uniform (9 for
// A⊗A, 12 for A⊗B) and the measured egonet triangle counts must match
// Thm 1 / Cor 1 exactly — the t_p grids the paper prints are reproduced
// verbatim for A⊗B: {12,14,16 / 24,28,32 / 36,42,48}.
#include <optional>

#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

Graph make_factor() { return gen::holme_kim(5000, 3, 0.6, 7); }

void print_artifact() {
  kt_bench::banner("E2 (Fig. 7)", "egonet validation of per-vertex counts");
  const Graph a = make_factor();
  const Graph b = a.with_all_self_loops();
  const auto t = triangle::participation_vertices(a);

  std::optional<vid> picks[3];
  for (vid v = 0; v < a.num_vertices(); ++v) {
    if (a.nonloop_degree(v) == 3 && t[v] >= 1 && t[v] <= 3 && !picks[t[v] - 1]) {
      picks[t[v] - 1] = v;
    }
  }
  if (!picks[0] || !picks[1] || !picks[2]) {
    std::cout << "factor lacks the needed degree-3 vertices; adjust seed\n";
    return;
  }
  bool all_ok = true;
  for (const auto& [right, name, expected_deg] :
       {std::tuple<const Graph&, const char*, count_t>{a, "A (x) A", 9},
        std::tuple<const Graph&, const char*, count_t>{b, "A (x) B", 12}}) {
    const kron::KronChain c({a, right});
    const kron::TriangleOracle oracle(a, right);
    const kron::KronIndex idx(right.num_vertices());
    std::cout << "\n" << name << " (expected degree " << expected_deg
              << " everywhere):\n";
    util::Table table({"t(i)", "t(k)", "deg(p)", "t_p measured", "t_p formula"});
    for (int ti = 0; ti < 3; ++ti) {
      for (int tk = 0; tk < 3; ++tk) {
        const vid p = idx.compose(*picks[ti], *picks[tk]);
        const auto ego = analysis::extract_egonet(c, p);
        const count_t measured = analysis::center_triangles(ego);
        const count_t formula = oracle.vertex_triangles(p);
        all_ok &= measured == formula &&
                  c.nonloop_degree(p) == expected_deg;
        table.row({std::to_string(ti + 1), std::to_string(tk + 1),
                   std::to_string(c.nonloop_degree(p)),
                   std::to_string(measured), std::to_string(formula)});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\npaper's A (x) B grid: 12,14,16 / 24,28,32 / 36,42,48 — "
            << (all_ok ? "all egonets agree with the formulas"
                       : "MISMATCH DETECTED")
            << "\n";
}

void bm_egonet_extraction(benchmark::State& state) {
  const Graph a = make_factor();
  const Graph b = a.with_all_self_loops();
  const kron::KronChain c({a, b});
  // Sample low-degree vertices (egonet cost is O(deg²)).
  std::vector<vid> sample;
  for (vid p = 1; p < c.num_vertices() && sample.size() < 64;
       p += c.num_vertices() / 97) {
    if (c.nonloop_degree(p) <= 64) sample.push_back(p);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto ego = analysis::extract_egonet(c, sample[i % sample.size()]);
    benchmark::DoNotOptimize(ego.graph.nnz());
    ++i;
  }
}
BENCHMARK(bm_egonet_extraction)->Unit(benchmark::kMicrosecond);

void bm_center_triangles(benchmark::State& state) {
  const Graph a = make_factor();
  const kron::KronChain c({a, a});
  const auto ego = analysis::extract_egonet(c, 12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::center_triangles(ego));
  }
}
BENCHMARK(bm_center_triangles)->Unit(benchmark::kMicrosecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
