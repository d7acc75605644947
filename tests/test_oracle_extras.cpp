// Tests for the oracle extensions: local clustering queries, factor-side
// triangle-count histograms (contribution (d)), and edge-level egonet
// validation (§VI samples edges as well as vertices).
#include <gtest/gtest.h>

#include <map>

#include "analysis/egonet.hpp"
#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/multi.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "triangle/clustering.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace {

using namespace kronotri;

class OracleExtras : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleExtras, LocalClusteringMatchesMaterialized) {
  const Graph a = kt_test::random_undirected(6, 0.45, GetParam());
  const Graph b = kt_test::random_undirected(5, 0.5, GetParam() + 1, 0.4);
  const kron::TriangleOracle oracle(a, b);
  const Graph c = kron::kron_graph(a, b);
  const auto cc = triangle::local_clustering(c);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_NEAR(oracle.local_clustering(p), cc[p], 1e-12) << "p=" << p;
  }
}

TEST_P(OracleExtras, TriangleHistogramMatchesExpansion) {
  const Graph a = kt_test::random_undirected(7, 0.4, GetParam() + 50);
  const Graph b = kt_test::random_undirected(6, 0.45, GetParam() + 51, 0.5);
  const kron::TriangleOracle oracle(a, b);
  const auto hist = oracle.triangle_histogram();
  std::map<count_t, count_t> direct;
  const Graph c = kron::kron_graph(a, b);
  for (const count_t v : triangle::participation_vertices(c)) ++direct[v];
  EXPECT_EQ(hist, direct);
}

TEST_P(OracleExtras, EdgeEgonetValidation) {
  const Graph a = kt_test::random_undirected(6, 0.45, GetParam() + 100);
  const Graph b = kt_test::random_undirected(5, 0.5, GetParam() + 101);
  const kron::KronChain chain({a, b});
  const kron::TriangleOracle oracle(a, b);
  const Graph c = kron::kron_graph(a, b);
  for (vid p = 0; p < c.num_vertices(); p += 3) {
    const auto ego = analysis::extract_egonet(chain, p);
    for (const vid q : c.neighbors(p)) {
      if (q == p) continue;
      EXPECT_EQ(analysis::center_edge_triangles(ego, q),
                *oracle.edge_triangles(p, q))
          << "edge (" << p << "," << q << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleExtras,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(OracleExtras, HistogramUnavailableInGeneralSelfLoopRegime) {
  const Graph a = kt_test::random_undirected(5, 0.5, 7, 0.5);
  const Graph b = kt_test::random_undirected(5, 0.5, 8, 0.5);
  const kron::TriangleOracle oracle(a, b);
  EXPECT_THROW((void)oracle.triangle_histogram(), std::logic_error);
}

TEST(OracleExtras, HistogramOfCliqueProductIsSingleValue) {
  const Graph a = gen::clique(4), b = gen::clique(5);
  const kron::TriangleOracle oracle(a, b);
  const auto hist = oracle.triangle_histogram();
  ASSERT_EQ(hist.size(), 1u);
  // Ex. 1(a): every vertex in ½(n+1−nA−nB)(n+4−2nA−2nB) = ½·12·6 = 36
  // triangles for (nA,nB) = (4,5).
  EXPECT_EQ(hist.begin()->first, 36u);
  EXPECT_EQ(hist.begin()->second, 20u);
}

TEST(OracleExtras, CenterEdgeTrianglesRejectsNonEdges) {
  const Graph g = gen::star(5);
  const auto ego = analysis::extract_egonet(g, 0);
  EXPECT_THROW((void)analysis::center_edge_triangles(ego, 99),
               std::invalid_argument);
}

TEST(OracleExtras, ClusteringOfLowDegreeVertexIsZero) {
  // A path factor yields degree-1 product corners.
  const Graph a = gen::path(3), b = gen::path(3);
  const kron::TriangleOracle oracle(a, b);
  EXPECT_DOUBLE_EQ(oracle.local_clustering(0), 0.0);
}

}  // namespace
