// Tests for the kronotri CLI layer (src/cli/commands.cpp): every
// subcommand driven through its library entry point with real files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/registry.hpp"
#include "cli/commands.hpp"
#include "core/io.hpp"
#include "gen/classic.hpp"
#include "kron/oracle.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace kronotri;

class CliTest : public ::testing::Test {
 protected:
  std::string tmp(const std::string& name) {
    const std::string path = ::testing::TempDir() + "kt_cli_" + name;
    created_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }

  static int run_cmd(std::vector<std::string> args, std::string* out_text,
                     std::string* err_text = nullptr) {
    std::vector<char*> argv;
    args.insert(args.begin(), "kronotri");
    argv.reserve(args.size());
    for (auto& a : args) argv.push_back(a.data());
    std::ostringstream out, err;
    const int rc = cli::run(static_cast<int>(argv.size()), argv.data(), out, err);
    if (out_text) *out_text = out.str();
    if (err_text) *err_text = err.str();
    return rc;
  }

  std::vector<std::string> created_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  std::string out, err;
  EXPECT_EQ(run_cmd({"help"}, &out, &err), 0);
  EXPECT_NE(out.find("usage"), std::string::npos);
  EXPECT_EQ(run_cmd({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}


TEST_F(CliTest, RunPlanJsonRoundTripsToReportJson) {
  // Plan JSON in → report JSON out, through the one execution path.
  const std::string plan_path = tmp("plan.json");
  {
    std::ofstream f(plan_path);
    f << R"json({
      "description": "test plan",
      "spec": "kron:(hk:n=40,m=2,p=0.6,seed=5)x(clique:n=3,loops=1)",
      "analyses": [
        {"name": "census", "params": {"edges": 1}},
        "degree",
        {"name": "validate", "params": {"mem_budget": "4K"}}
      ],
      "options": {"threads": 2}
    })json";
  }
  const std::string report_path = tmp("report.json");
  std::string out;
  ASSERT_EQ(run_cmd({"run", "--plan", plan_path, "--json", report_path}, &out),
            0);
  EXPECT_NE(out.find("run:"), std::string::npos);
  EXPECT_NE(out.find("PASS"), std::string::npos);

  std::ifstream jf(report_path);
  std::stringstream buf;
  buf << jf.rdbuf();
  const auto report = util::json::Value::parse(buf.str());
  EXPECT_TRUE(report.find("pass")->as_bool());
  EXPECT_TRUE(report.find("streamed")->as_bool());
  EXPECT_EQ(report.find("partitions")->as_uint(), 2u);
  ASSERT_EQ(report.find("analyses")->size(), 3u);
  const auto& analyses = report.find("analyses")->items();
  EXPECT_EQ(analyses[0].find("name")->as_string(), "census");
  EXPECT_EQ(analyses[2].find("name")->as_string(), "validate");
  EXPECT_TRUE(analyses[2].find("pass")->as_bool());
  // The echoed plan round-trips: spec and description survive.
  const auto* plan = report.find("plan");
  EXPECT_EQ(plan->get_string("description", ""), "test plan");
  EXPECT_NE(plan->get_string("spec", "").find("kron:"), std::string::npos);
  // Metadata makes the artifact self-describing.
  EXPECT_GE(report.find("metadata")->get_uint("hardware_concurrency", 0), 1u);
}

TEST_F(CliTest, RunAcceptsShorthandPlanStrings) {
  std::string out;
  EXPECT_EQ(run_cmd({"run", "--plan",
                     "kron:(clique:n=4)x(clique:n=3) validate truss"},
                    &out),
            0);
  EXPECT_NE(out.find("PASS"), std::string::npos);
  EXPECT_NE(out.find("validate"), std::string::npos);
  EXPECT_NE(out.find("truss"), std::string::npos);
}

TEST_F(CliTest, RunListsRegisteredAnalyses) {
  std::string out;
  ASSERT_EQ(run_cmd({"run", "--list"}, &out), 0);
  for (const char* name : {"census", "degree", "truss", "components",
                           "clustering", "egonet", "labeled-census",
                           "validate"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST_F(CliTest, RunRejectsUnknownAnalysesAndParams) {
  std::string err;
  EXPECT_EQ(run_cmd({"run", "--plan", "hubcycle frobnicate"}, nullptr, &err),
            1);
  EXPECT_NE(err.find("frobnicate"), std::string::npos);
  EXPECT_NE(err.find("census"), std::string::npos);  // lists registered
  // Unknown analysis params are rejected with the accepted list.
  EXPECT_EQ(run_cmd({"run", "--plan", "hubcycle validate:budget=4M"}, nullptr,
                    &err),
            1);
  EXPECT_NE(err.find("budget"), std::string::npos);
  EXPECT_NE(err.find("mem_budget"), std::string::npos);
  // Unknown plan keys too.
  EXPECT_EQ(run_cmd({"run", "--plan", R"json({"sepc": "hubcycle"})json"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("sepc"), std::string::npos);
  // Missing --plan is a usage error.
  EXPECT_EQ(run_cmd({"run"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--plan"), std::string::npos);
}

TEST_F(CliTest, RunExitsNonZeroWhenAnAnalysisFails) {
  // Force a failing egonet check is hard on exact oracles; instead, a
  // failing validate is impossible by construction — so use egonet's
  // out-of-range error path and a bad plan for the nonzero paths, and
  // check the pass path separately above. Here: exit 1 surfaces analysis
  // exceptions.
  std::string err;
  EXPECT_EQ(run_cmd({"run", "--plan", "hubcycle egonet:vertex=99"}, nullptr,
                    &err),
            1);
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesReadableGraph) {
  const std::string path = tmp("gen.txt");
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--type", "hk", "--n", "200", "--m", "2",
                     "--out", path},
                    &out),
            0);
  EXPECT_NE(out.find("200 vertices"), std::string::npos);
  const Graph g = io::read_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 200u);
  EXPECT_TRUE(g.is_undirected());
}

TEST_F(CliTest, GenerateWithPruneSatisfiesThm3) {
  const std::string path = tmp("pruned.txt");
  ASSERT_EQ(run_cmd({"generate", "--type", "hk", "--n", "150", "--out", path,
                     "--prune"},
                    nullptr),
            0);
  const Graph g = io::read_edge_list(path);
  // Δ ≤ 1 by §III.D(a).
  std::string out;
  EXPECT_EQ(run_cmd({"generate", "--type", "hubcycle", "--out", tmp("a.txt")},
                    nullptr),
            0);
  EXPECT_EQ(run_cmd({"truss", "--a", tmp("a.txt"), "--b", path}, &out), 0);
  EXPECT_NE(out.find("Thm 3 oracle"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresOut) {
  std::string err;
  EXPECT_EQ(run_cmd({"generate", "--type", "hk"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsUnknownType) {
  std::string err;
  EXPECT_EQ(run_cmd({"generate", "--type", "nope", "--out", tmp("x.txt")},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("unknown --type"), std::string::npos);
}

TEST_F(CliTest, GenerateListPrintsRegisteredFamilies) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--list"}, &out), 0);
  for (const char* fam : {"clique", "cycle", "path", "star", "bipartite",
                          "hubcycle", "er", "er-m", "ba", "hk", "rmat",
                          "onetri", "kron"}) {
    EXPECT_NE(out.find(fam), std::string::npos) << fam;
  }
}

TEST_F(CliTest, GenerateAcceptsEveryRegistryFamilyAsType) {
  for (const char* type : {"path", "star", "cycle", "er-m", "ba"}) {
    const std::string path = tmp(std::string("fam_") + type + ".txt");
    std::string out;
    ASSERT_EQ(run_cmd({"generate", "--type", type, "--n", "30", "--m", "2",
                       "--out", path},
                      &out),
              0)
        << type;
    const Graph g = io::read_edge_list(path);
    EXPECT_GE(g.num_vertices(), 2u) << type;
  }
}

TEST_F(CliTest, GenerateSpecRoundTripsThroughRegistry) {
  const std::string path = tmp("spec.txt");
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--spec=kron:(hubcycle)x(clique:n=3,loops=1)",
                     "--out", path},
                    &out),
            0);
  const Graph g = io::read_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 15u);  // 5 × 3
  // Same product built directly through the registry.
  const Graph direct = api::GeneratorRegistry::builtin().build(
      "kron:(hubcycle)x(clique:n=3,loops=1)");
  EXPECT_EQ(g, direct);
}

TEST_F(CliTest, GenerateStreamedKronMatchesMaterialized) {
  const std::string mat = tmp("mat.txt");
  const std::string streamed = tmp("streamed.txt");
  const std::string spec = "kron:(hubcycle)x(clique:n=3)";
  ASSERT_EQ(run_cmd({"generate", "--spec", spec, "--out", mat}, nullptr), 0);
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--spec", spec, "--stream", "--out", streamed},
                    &out),
            0);
  EXPECT_NE(out.find("streamed"), std::string::npos);
  const Graph a = io::read_edge_list(mat);
  const Graph b = io::read_edge_list(streamed);
  EXPECT_EQ(a, b);
}

TEST_F(CliTest, GenerateStreamRefusesIneligibleSpecs) {
  std::string err;
  // Non-kron spec: refuse rather than silently materializing.
  EXPECT_EQ(run_cmd({"generate", "--spec", "hk:n=50", "--stream", "--out",
                     tmp("s1.txt")},
                    nullptr, &err),
            2);
  EXPECT_NE(err.find("--stream requires"), std::string::npos);
  // Modifier on the product: also refused.
  EXPECT_EQ(run_cmd({"generate", "--spec",
                     "kron:(hubcycle)x(clique:n=3):loops=1", "--stream",
                     "--out", tmp("s2.txt")},
                    nullptr, &err),
            2);
  EXPECT_NE(err.find("--stream requires"), std::string::npos);
}

TEST_F(CliTest, GenerateTypeKronPointsAtSpec) {
  std::string err;
  EXPECT_EQ(run_cmd({"generate", "--type", "kron", "--out", tmp("k.txt")},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("--spec"), std::string::npos);
}

TEST_F(CliTest, CensusAcceptsSpecArguments) {
  std::string out;
  ASSERT_EQ(run_cmd({"census", "--a", "hubcycle", "--loops-b"}, &out), 0);
  EXPECT_NE(out.find("C = A (x) B"), std::string::npos);
}

TEST_F(CliTest, EgonetAcceptsSpecArguments) {
  std::string out;
  EXPECT_EQ(run_cmd({"egonet", "--a", "hk:n=60,m=2,p=0.5,seed=3", "--loops-b",
                     "--vertex", "17"},
                    &out),
            0);
  EXPECT_NE(out.find("MATCH"), std::string::npos);
}

TEST_F(CliTest, TrussAcceptsSpecArguments) {
  std::string out;
  EXPECT_EQ(run_cmd({"truss", "--a", "er:n=20,p=0.35,seed=2", "--b",
                     "onetri:n=30,seed=4"},
                    &out),
            0);
  EXPECT_NE(out.find("Thm 3 oracle"), std::string::npos);
}

TEST_F(CliTest, CensusPrintsTableAndTruth) {
  const std::string a = tmp("ca.txt");
  io::write_edge_list(gen::hub_cycle(), a);
  const std::string truth = tmp("truth.txt");
  std::string out;
  ASSERT_EQ(run_cmd({"census", "--a", a, "--loops-b", "--truth", truth}, &out),
            0);
  EXPECT_NE(out.find("C = A (x) B"), std::string::npos);
  // Truth file parses and matches the oracle.
  const Graph ga = io::read_edge_list(a);
  const Graph gb = ga.with_all_self_loops();
  const kron::TriangleOracle oracle(ga, gb);
  std::ifstream in(truth);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t p = 0, c = 0;
    ASSERT_TRUE(static_cast<bool>(ls >> p >> c));
    EXPECT_EQ(c, oracle.vertex_triangles(p));
    ++rows;
  }
  EXPECT_EQ(rows, oracle.num_vertices());
}

TEST_F(CliTest, ValidatePassesOnExactClaimsAndFailsOnWrongOnes) {
  const std::string a = tmp("va.txt");
  io::write_edge_list(gen::clique(4), a);
  const Graph ga = io::read_edge_list(a);
  const kron::TriangleOracle oracle(ga, ga);

  const std::string good = tmp("good.txt");
  {
    std::ofstream f(good);
    for (vid p = 0; p < oracle.num_vertices(); ++p) {
      f << p << ' ' << oracle.vertex_triangles(p) << '\n';
    }
  }
  std::string out;
  EXPECT_EQ(run_cmd({"validate", "--a", a, "--claims", good}, &out), 0);
  EXPECT_NE(out.find("PASS"), std::string::npos);

  const std::string bad = tmp("bad.txt");
  {
    std::ofstream f(bad);
    f << 0 << ' ' << oracle.vertex_triangles(0) + 1 << '\n';
  }
  EXPECT_EQ(run_cmd({"validate", "--a", a, "--claims", bad}, &out), 1);
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos);
}

TEST_F(CliTest, ValidateSpecStreamsShardedCensus) {
  std::string out;
  // Tiny budget → many shards; every count must still match the closed
  // forms, and the report echoes the shard count and budget.
  EXPECT_EQ(run_cmd({"validate", "--spec",
                     "kron:(hk:n=60,m=2,p=0.5,seed=3)x(clique:n=3,loops=1)",
                     "--mem-budget", "2K"},
                    &out),
            0);
  EXPECT_NE(out.find("PASS"), std::string::npos);
  EXPECT_NE(out.find("shards"), std::string::npos);
  EXPECT_NE(out.find("2,048"), std::string::npos);

  // 3-factor chains go through the KronChain predictor.
  EXPECT_EQ(run_cmd({"validate", "--spec",
                     "kron:(er:n=12,p=0.3,seed=1)x(clique:n=3)x(path:n=3)",
                     "--shards", "5"},
                    &out),
            0);
  EXPECT_NE(out.find("PASS"), std::string::npos);

  // --json emits the machine-readable report.
  const std::string json = tmp("report.json");
  EXPECT_EQ(run_cmd({"validate", "--spec",
                     "kron:(clique:n=4)x(clique:n=3)", "--json", json},
                    &out),
            0);
  std::ifstream jf(json);
  std::stringstream buf;
  buf << jf.rdbuf();
  EXPECT_NE(buf.str().find("\"pass\": true"), std::string::npos);
  EXPECT_NE(buf.str().find("\"edge_mismatches\": 0"), std::string::npos);
}

TEST_F(CliTest, ValidateSpecRejectsBadBudget) {
  std::string err;
  EXPECT_EQ(run_cmd({"validate", "--spec", "kron:(clique:n=3)x(clique:n=3)",
                     "--mem-budget", "12Q"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("byte suffix"), std::string::npos);
}

TEST_F(CliTest, ValidateRefusesProductPastSixtyFourBits) {
  // 65536^4 = 2^64 vertices: an unchecked size product wraps to 0 and the
  // census of an empty range would PASS.
  std::string out, err;
  EXPECT_NE(run_cmd({"validate", "--spec",
                     "kron:(cycle:n=65536)x(cycle:n=65536)x(cycle:n=65536)x("
                     "cycle:n=65536)"},
                    &out, &err),
            0);
  EXPECT_EQ(out.find("PASS"), std::string::npos) << out;
  EXPECT_NE(err.find("65536 x 65536 x 65536 x 65536"), std::string::npos)
      << err;
}

TEST_F(CliTest, EgonetChecksFormula) {
  const std::string a = tmp("ea.txt");
  io::write_edge_list(gen::hub_cycle(), a);
  std::string out;
  EXPECT_EQ(run_cmd({"egonet", "--a", a, "--vertex", "7"}, &out), 0);
  EXPECT_NE(out.find("MATCH"), std::string::npos);
  std::string err;
  EXPECT_EQ(run_cmd({"egonet", "--a", a, "--vertex", "99"}, nullptr, &err), 2);
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST_F(CliTest, TrussDirectAndOracle) {
  const std::string g = tmp("tg.txt");
  io::write_edge_list(gen::clique(5), g);
  std::string out;
  EXPECT_EQ(run_cmd({"truss", "--graph", g}, &out), 0);
  EXPECT_NE(out.find("max truss 5"), std::string::npos);
  std::string err;
  EXPECT_EQ(run_cmd({"truss"}, nullptr, &err), 2);
}

}  // namespace
