// Regression pins for the implicit product (kron::KronChain, at k = 2 and
// beyond): neighbor enumeration, degrees and membership must agree with
// the materialized product in every edge case — self loops in one or both
// factors (loops × loops), mixed/zero degrees, isolated vertices. The
// streaming census trusts these queries blindly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/multi.hpp"
#include "kron/product.hpp"

namespace {

using namespace kronotri;

void expect_chain_matches_materialized(const Graph& a, const Graph& b,
                                       const char* what) {
  const kron::KronChain chain({a, b});
  const Graph c = kron::kron_graph(a, b);
  ASSERT_EQ(chain.num_vertices(), c.num_vertices()) << what;
  ASSERT_EQ(chain.nnz(), c.nnz()) << what;
  // With nnz equal, equal edge counts pin the self-loop count too.
  EXPECT_EQ(chain.num_undirected_edges(), c.num_undirected_edges()) << what;
  for (vid p = 0; p < c.num_vertices(); ++p) {
    const std::vector<vid> vn = chain.neighbors(p);
    const auto cn = c.neighbors(p);
    ASSERT_EQ(vn.size(), cn.size()) << what << " degree mismatch at " << p;
    EXPECT_TRUE(std::equal(vn.begin(), vn.end(), cn.begin()))
        << what << " neighbor list mismatch at " << p;
    EXPECT_TRUE(std::is_sorted(vn.begin(), vn.end()))
        << what << " unsorted neighbors at " << p;
    EXPECT_EQ(chain.out_degree(p), c.out_degree(p)) << what << " @ " << p;
    EXPECT_EQ(chain.nonloop_degree(p), c.nonloop_degree(p)) << what << " @ "
                                                            << p;
    for (vid q = 0; q < c.num_vertices(); ++q) {
      ASSERT_EQ(chain.has_edge(p, q), c.has_edge(p, q))
          << what << " membership mismatch at (" << p << "," << q << ")";
    }
  }
}

TEST(KronChain, LoopsTimesLoopsAgreesWithMaterialized) {
  const Graph a = kt_test::random_undirected(6, 0.4, 1, 0.5);
  const Graph b = kt_test::random_undirected(5, 0.4, 2, 0.6);
  expect_chain_matches_materialized(a, b, "loops x loops");
  expect_chain_matches_materialized(a.with_all_self_loops(),
                                   b.with_all_self_loops(),
                                   "all-loops x all-loops");
}

TEST(KronChain, MixedDegreeFactorsAgreeWithMaterialized) {
  // A star has one hub and many degree-1 leaves; a path has degree-1 ends —
  // the widest degree spread the small classics offer.
  expect_chain_matches_materialized(gen::star(6), gen::path(5),
                                   "star x path");
  expect_chain_matches_materialized(gen::star(5).with_all_self_loops(),
                                   gen::complete_bipartite(2, 3),
                                   "star+I x bipartite");
}

TEST(KronChain, IsolatedVerticesAgreeWithMaterialized) {
  // Vertex 3 of A and vertex 2 of B have degree 0: whole product rows and
  // columns must come out empty on both paths.
  const Graph a = Graph::from_edges(4, {{{0, 1}, {1, 2}, {0, 0}}}, true);
  const Graph b = Graph::from_edges(3, {{{0, 1}}}, true);
  expect_chain_matches_materialized(a, b, "isolated vertices");
}

TEST(KronChain, NeighborsAgreeWithMaterializedThreeFactors) {
  const Graph f1 = kt_test::random_undirected(4, 0.5, 6, 0.5);
  const Graph f2 = gen::star(3);
  const Graph f3 = kt_test::random_undirected(3, 0.6, 7, 0.4);
  const kron::KronChain chain({f1, f2, f3});
  const Graph c = chain.materialize();
  ASSERT_EQ(chain.num_vertices(), c.num_vertices());
  for (vid p = 0; p < c.num_vertices(); ++p) {
    const std::vector<vid> vn = chain.neighbors(p);
    const auto cn = c.neighbors(p);
    ASSERT_EQ(vn.size(), cn.size()) << "degree mismatch at " << p;
    EXPECT_TRUE(std::equal(vn.begin(), vn.end(), cn.begin()))
        << "neighbor list mismatch at " << p;
    EXPECT_TRUE(std::is_sorted(vn.begin(), vn.end()));
    EXPECT_EQ(chain.out_degree(p), c.out_degree(p));
    EXPECT_EQ(chain.nonloop_degree(p), c.nonloop_degree(p));
    for (vid q = 0; q < c.num_vertices(); ++q) {
      ASSERT_EQ(chain.has_edge(p, q), c.has_edge(p, q))
          << "membership mismatch at (" << p << "," << q << ")";
    }
  }
}

TEST(KronChain, NeighborsHandleIsolatedFactorVertices) {
  const Graph a = Graph::from_edges(3, {{{0, 1}}}, true);  // vertex 2 isolated
  const kron::KronChain chain({a, gen::clique(2)});
  const Graph c = chain.materialize();
  for (vid p = 0; p < c.num_vertices(); ++p) {
    const auto vn = chain.neighbors(p);
    const auto cn = c.neighbors(p);
    ASSERT_EQ(vn.size(), cn.size());
    EXPECT_TRUE(std::equal(vn.begin(), vn.end(), cn.begin()));
  }
}

}  // namespace
