// Reproduction of the paper's Fig. 7 protocol: pick three degree-3 vertices
// of the factor A that participate in 1, 2 and 3 triangles; each pairs with
// three B-vertices of known triangle count, yielding nine product vertices
// whose egonets are materialized and compared against Thm 1 / Cor 1.
//
//   ./egonet_validation [--n 5000] [--seed 7]
#include <iostream>
#include <optional>

#include "kronotri.hpp"

int main(int argc, char** argv) {
  using namespace kronotri;
  const util::Cli cli(argc, argv);
  const vid n = cli.get_uint("n", 5000);
  const std::uint64_t seed = cli.get_uint("seed", 7);

  const Graph a = api::GeneratorRegistry::builtin().build(
      "hk:n=" + std::to_string(n) + ",m=3,p=0.6,seed=" + std::to_string(seed));
  const Graph b = a.with_all_self_loops();
  const auto t = triangle::participation_vertices(a);

  // Find degree-3 vertices with exactly 1, 2, 3 triangles (as in Fig. 7).
  std::optional<vid> picks[3];
  for (vid v = 0; v < n; ++v) {
    if (a.nonloop_degree(v) != 3) continue;
    if (t[v] >= 1 && t[v] <= 3 && !picks[t[v] - 1]) picks[t[v] - 1] = v;
  }
  for (int i = 0; i < 3; ++i) {
    if (!picks[i]) {
      std::cerr << "no degree-3 vertex with " << i + 1
                << " triangles found; rerun with another --seed\n";
      return 1;
    }
  }

  bool all_ok = true;
  auto run = [&](const Graph& right, const char* name) {
    const kron::KronChain c({a, right});
    const kron::TriangleOracle oracle(a, right);
    const kron::KronIndex idx(right.num_vertices());
    std::cout << "\nC = A (x) " << name << ":\n";
    util::Table table(
        {"p", "i(p)", "k(p)", "deg(p)", "t_p (egonet)", "t_p (formula)", "ok"});
    for (const auto& vi : picks) {
      for (const auto& vk : picks) {
        const vid p = idx.compose(*vi, *vk);
        const auto ego = analysis::extract_egonet(c, p);
        const count_t measured = analysis::center_triangles(ego);
        const count_t predicted = oracle.vertex_triangles(p);
        all_ok &= measured == predicted;
        table.row({std::to_string(p), std::to_string(*vi), std::to_string(*vk),
                   std::to_string(c.nonloop_degree(p)),
                   std::to_string(measured), std::to_string(predicted),
                   measured == predicted ? "yes" : "NO"});
      }
    }
    table.print(std::cout);
  };

  std::cout << "factor vertices picked (degree 3, triangles 1/2/3): "
            << *picks[0] << " " << *picks[1] << " " << *picks[2] << "\n";
  run(a, "A      (Thm 1: all degrees 9, t_p = 2*tA*tA in {2,4,6,8,12,18})");
  run(b, "(A+I)  (Cor 1: all degrees 12, t_p = tA*diag(B^3))");

  std::cout << (all_ok ? "\nall egonets match the Kronecker formulas\n"
                       : "\nMISMATCH DETECTED\n");
  return all_ok ? 0 : 1;
}
