// Reproduction of the paper's §VI experiment (Table VI) at configurable
// scale: build a scale-free factor A, let B = A + I, and compute the exact
// vertex/edge/triangle counts of the trillion-edge-scale products A⊗A and
// A⊗B from factor statistics alone — never materializing the products.
//
//   ./trillion_scale_census [--n 325729] [--m 3] [--ptriad 0.6]
//                           [--seed 1803] [--spec SPEC] [--graph file.txt]
//
// Each product census is a declarative RunPlan executed by api::run() —
// the same job description `kronotri run --plan` takes, and the unit the
// ROADMAP's distributed scheduling will ship to remote nodes. The factor
// comes from the generator registry (--spec overrides the Holme–Kim
// default assembled from --n/--m/--ptriad/--seed). With --graph, it is
// read through the registry's `file:` family (symmetrized, self loops
// stripped), matching the paper's web-NotreDame preprocessing.
#include <iostream>

#include "kronotri.hpp"

int main(int argc, char** argv) {
  using namespace kronotri;
  const util::Cli cli(argc, argv);

  // The factor spec: a file: spec for real data, a generator spec
  // otherwise. (File paths containing ',' or ')' cannot be spelled in the
  // spec grammar.)
  const std::string factor_spec = [&]() -> std::string {
    if (cli.has("graph")) {
      return "file:path=" + cli.get("graph", "") +
             ",symmetrize=1,drop_loops=1";
    }
    return cli.get("spec",
                   "hk:n=" + std::to_string(cli.get_uint("n", 325729)) +
                       ",m=" + std::to_string(cli.get_uint("m", 3)) +
                       ",p=" + cli.get("ptriad", "0.6") +
                       ",seed=" + std::to_string(cli.get_uint("seed", 1803)));
  }();
  std::cout << "factor: " << factor_spec << " — web-NotreDame stand-in\n\n";

  // Two plans, two products: A ⊗ A and A ⊗ B with B = A + I (the loops=1
  // modifier on the right factor). The census analysis reads everything
  // off the factors — the products are never materialized. (Plans are
  // self-contained by design, so each run regenerates its factors from the
  // spec; with seeded generators that is deterministic, and the cost is
  // factor-sized, not product-sized.)
  api::GraphSpec a_spec = api::GraphSpec::parse(factor_spec);
  api::GraphSpec b_spec = a_spec;
  b_spec.params["loops"] = "1";  // B = A + I, as a universal modifier

  // The A ⊗ B plan also carries the Fig. 7 egonet spot checks: pick a few
  // low-degree product vertices up front (egonet materialization is
  // O(deg²); hubs of C have squared-hub degrees) and append one egonet
  // analysis per vertex — all verified in the same run.
  api::RunPlan ab_plan;
  ab_plan.spec.family = "kron";
  ab_plan.spec.factors = {a_spec, b_spec};
  ab_plan.analyses.push_back({"census", {}});
  {
    const auto factors =
        api::GeneratorRegistry::builtin().build_factors(ab_plan.spec);
    const kron::KronChain cab({factors[0], factors[1]});
    count_t planned = 0;
    for (vid p = 1; p < cab.num_vertices() && planned < 5;
         p += cab.num_vertices() / 23) {
      if (cab.nonloop_degree(p) > 200) continue;
      ab_plan.analyses.push_back({"egonet", {{"vertex", std::to_string(p)}}});
      ++planned;
    }
  }

  api::RunPlan aa_plan;
  aa_plan.spec.family = "kron";
  aa_plan.spec.factors = {a_spec, a_spec};
  aa_plan.analyses.push_back({"census", {}});
  const api::RunReport raa = api::run(aa_plan);
  const api::RunReport rab = api::run(ab_plan);
  // The paper's ~10.5 s is census-only; read the census stages off the
  // reports so factor (re)generation is not billed to the census.
  const double census_s =
      raa.analyses.front().wall_s + rab.analyses.front().wall_s;

  auto row = [](const std::string& name, const util::json::Value& m) {
    const count_t v = m.find("vertices")->as_uint();
    const count_t e = m.find("edges")->as_uint();
    const count_t t = m.find("triangles")->as_uint();
    return std::vector<std::string>{name, util::human(static_cast<double>(v)),
                                    util::human(static_cast<double>(e)),
                                    util::human(static_cast<double>(t)),
                                    util::commas(t)};
  };
  // Matrix rows come straight out of the census reports' data trees.
  const auto& aa = raa.analyses.front().data.find("matrices")->items();
  const auto& ab = rab.analyses.front().data.find("matrices")->items();
  util::Table table({"Matrix", "Vertices", "Edges", "Triangles", "(exact)"});
  table.row(row("A", aa[0]));
  table.row(row("B = A+I", ab[1]));
  table.row(row("A (x) A", aa[2]));
  table.row(row("A (x) B", ab[2]));
  table.print(std::cout);

  std::cout << "\nKronecker triangle census of both products: " << census_s
            << " s (factor-sized work only)\n";
  std::cout << "(paper, web-NotreDame on a laptop: ~10.5 s, 7,734,429 wedge "
               "checks, 111.4T / 141.0T triangles)\n";

  // The egonet spot checks already ran inside the A ⊗ B plan.
  count_t ok = 0, spots = 0;
  for (const auto& ar : rab.analyses) {
    if (ar.name != "egonet") continue;
    ++spots;
    ok += ar.pass ? 1u : 0u;
  }
  std::cout << "egonet spot checks on A (x) B: " << ok << "/" << spots
            << " vertices match the formula\n";
  return rab.pass ? 0 : 1;
}
