// Multi-factor Kronecker chain tests: the k-factor generalization of
// Thm 1/2 validated against materialized products and the two-factor
// machinery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/multi.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace {

using namespace kronotri;
using kron::KronChain;

TEST(KronChain, RejectsEmptyAndDirected) {
  EXPECT_THROW(KronChain({}), std::invalid_argument);
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(KronChain({gen::clique(3), d}), std::invalid_argument);
}

TEST(KronChain, SingleFactorIsIdentityOperation) {
  const Graph g = kt_test::random_undirected(10, 0.3, 1);
  const KronChain chain({g});
  EXPECT_EQ(chain.num_vertices(), g.num_vertices());
  EXPECT_EQ(chain.nnz(), g.nnz());
  EXPECT_TRUE(chain.materialize() == g);
  const auto t = triangle::participation_vertices(g);
  for (vid p = 0; p < g.num_vertices(); ++p) {
    EXPECT_EQ(chain.vertex_triangles(p), t[p]);
  }
  EXPECT_EQ(chain.total_triangles(), triangle::count_total(g));
}

TEST(KronChain, IndexRoundTrip) {
  const KronChain chain({gen::clique(3), gen::clique(4), gen::clique(5)});
  EXPECT_EQ(chain.num_vertices(), 60u);
  const auto coords = [&](vid p) {
    const KronChain::Coords xs = chain.decompose(p);
    return std::vector<vid>(xs.begin(), xs.begin() + 3);
  };
  for (vid p = 0; p < 60; ++p) {
    EXPECT_EQ(chain.compose(coords(p)), p);
  }
  EXPECT_EQ(coords(0), (std::vector<vid>{0, 0, 0}));
  EXPECT_EQ(coords(59), (std::vector<vid>{2, 3, 4}));
  EXPECT_THROW((void)chain.compose(std::vector<vid>{0, 0}),
               std::invalid_argument);
}

TEST(KronChain, RejectsProductSizesPastSixtyFourBits) {
  // Seven 600-cliques: 600^7 ≈ 2.8e19 vertices, past 2^64 ≈ 1.8e19 — an
  // unchecked product would wrap to a small vertex count.
  const Graph k600 = gen::clique(600);
  try {
    (void)KronChain(std::vector<Graph>(7, k600));
    FAIL() << "a 2.8e19-vertex product was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("600 x 600"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("vertices"), std::string::npos)
        << e.what();
  }
  // Six of them fit the vid space (4.7e16 vertices), but the nonzero count
  // (359400^6) does not: nnz can wrap even when n fits.
  try {
    (void)KronChain(std::vector<Graph>(6, k600));
    FAIL() << "a product with 2.1e33 nonzeros was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("359400 x 359400"), std::string::npos)
        << e.what();
  }
  // A zero factor makes the product empty however large the others are.
  const KronChain empty(
      {k600, k600, k600, k600, k600, k600, Graph::from_edges(1, {})});
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.num_vertices(), 600ull * 600 * 600 * 600 * 600 * 600);
}

TEST(KronChain, RejectsMoreFactorsThanTheCap) {
  const std::vector<Graph> many(KronChain::kMaxFactors + 1, gen::clique(1));
  EXPECT_THROW(KronChain{many}, std::invalid_argument);
  EXPECT_NO_THROW(KronChain(std::vector<Graph>(KronChain::kMaxFactors,
                                               gen::clique(1))));
}

TEST(KronChain, TwoFactorsMatchPairwiseMachinery) {
  const Graph a = kt_test::random_undirected(6, 0.45, 2);
  const Graph b = kt_test::random_undirected(5, 0.5, 3, 0.4);  // loops in B
  const KronChain chain({a, b});
  const auto tvec = kron::vertex_triangles(a, b);
  const auto dmat = kron::edge_triangles(a, b);
  for (vid p = 0; p < chain.num_vertices(); ++p) {
    EXPECT_EQ(chain.vertex_triangles(p), tvec.at(p));
  }
  const Graph c = kron::kron_graph(a, b);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    for (const vid q : c.neighbors(p)) {
      EXPECT_EQ(chain.edge_triangles(p, q), dmat.at(p, q));
    }
  }
  EXPECT_EQ(chain.total_triangles(), kron::total_triangles(a, b));
}

class KronChainSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KronChainSweep, ThreeFactorsMatchMaterialized) {
  const std::uint64_t seed = GetParam();
  const Graph a = kt_test::random_undirected(4, 0.5, seed);
  const Graph b = kt_test::random_undirected(3, 0.6, seed + 1, 0.5);
  const Graph c = kt_test::random_undirected(4, 0.5, seed + 2);
  const KronChain chain({a, b, c});
  const Graph m = chain.materialize();

  EXPECT_EQ(chain.num_vertices(), m.num_vertices());
  EXPECT_EQ(chain.nnz(), m.nnz());
  EXPECT_EQ(chain.num_undirected_edges(), m.num_undirected_edges());

  const auto t = triangle::participation_vertices(m);
  for (vid p = 0; p < m.num_vertices(); ++p) {
    EXPECT_EQ(chain.vertex_triangles(p), t[p]) << "p=" << p;
    EXPECT_EQ(chain.out_degree(p), m.out_degree(p));
    EXPECT_EQ(chain.nonloop_degree(p), m.nonloop_degree(p));
  }
  const auto delta = triangle::edge_support_masked(m);
  for (vid p = 0; p < m.num_vertices(); ++p) {
    for (const vid q : m.neighbors(p)) {
      if (p == q) continue;
      EXPECT_EQ(chain.edge_triangles(p, q), delta.at(p, q));
    }
  }
  EXPECT_EQ(chain.total_triangles(), triangle::count_total(m));
  for (vid p = 0; p < m.num_vertices(); ++p) {
    for (vid q = 0; q < m.num_vertices(); ++q) {
      ASSERT_EQ(chain.has_edge(p, q), m.has_edge(p, q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KronChainSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(KronChain, PowerProductOfCliques) {
  // K₃^{⊗3}: τ = 6²·τ(K₃)³ = 36, every vertex in ½·2³ = 4 triangles.
  const KronChain chain({gen::clique(3), gen::clique(3), gen::clique(3)});
  EXPECT_EQ(chain.num_vertices(), 27u);
  EXPECT_EQ(chain.total_triangles(), 36u);
  for (vid p = 0; p < 27; ++p) {
    EXPECT_EQ(chain.vertex_triangles(p), 4u);
  }
  const Graph m = chain.materialize();
  EXPECT_EQ(triangle::count_total(m), 36u);
}

TEST(KronChain, SelfLoopBoostingAcrossChain) {
  // Loops in all but one factor are allowed; τ grows with each J factor.
  const Graph k = gen::clique(3);
  const Graph j = gen::clique_with_loops(3);
  const count_t plain = KronChain({k, k, k}).total_triangles();
  const count_t one_j = KronChain({k, k, j}).total_triangles();
  const count_t two_j = KronChain({k, j, j}).total_triangles();
  EXPECT_LT(plain, one_j);
  EXPECT_LT(one_j, two_j);
  // Verify the boosted chain against materialization.
  const KronChain boosted({k, j, j});
  EXPECT_EQ(two_j, triangle::count_total(boosted.materialize()));
}

TEST(KronChain, AllLoopedFactorsRejectedForTriangleStats) {
  const Graph j = gen::clique_with_loops(3);
  const KronChain chain({j, j});
  EXPECT_EQ(chain.num_vertices(), 9u);  // structural queries still fine
  EXPECT_THROW((void)chain.total_triangles(), std::invalid_argument);
  EXPECT_THROW((void)chain.vertex_triangles(0), std::invalid_argument);
}

TEST(KronChain, NonEdgeQueryThrows) {
  const KronChain chain({gen::clique(3), gen::clique(3)});
  EXPECT_THROW((void)chain.edge_triangles(0, 0), std::invalid_argument);
}

TEST(KronChain, FourFactorChainTotals) {
  const Graph k3 = gen::clique(3);
  const KronChain chain({k3, k3, k3, k3});
  // τ(K₃^{⊗4}) = 6³·1 = 216; n = 81; every vertex: ½·2⁴ = 8.
  EXPECT_EQ(chain.num_vertices(), 81u);
  EXPECT_EQ(chain.total_triangles(), 216u);
  EXPECT_EQ(chain.vertex_triangles(80), 8u);
}

}  // namespace
