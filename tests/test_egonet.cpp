// Egonet extraction tests — the Fig. 7 validation instrument.
#include <gtest/gtest.h>

#include "analysis/egonet.hpp"
#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/multi.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"

namespace {

using namespace kronotri;

TEST(Egonet, CliqueCenter) {
  const Graph k5 = gen::clique(5);
  const auto ego = analysis::extract_egonet(k5, 2);
  EXPECT_EQ(ego.center, 2u);
  EXPECT_EQ(ego.vertices.size(), 5u);  // whole clique
  EXPECT_EQ(analysis::center_triangles(ego), 6u);  // C(4,2)
}

TEST(Egonet, StarCenterHasNoTriangles) {
  const Graph s = gen::star(6);
  const auto ego = analysis::extract_egonet(s, 0);
  EXPECT_EQ(ego.vertices.size(), 6u);
  EXPECT_EQ(analysis::center_triangles(ego), 0u);
}

TEST(Egonet, LeafEgonetIsSingleEdge) {
  const Graph s = gen::star(6);
  const auto ego = analysis::extract_egonet(s, 3);
  EXPECT_EQ(ego.vertices.size(), 2u);
  EXPECT_EQ(ego.graph.num_undirected_edges(), 1u);
}

TEST(Egonet, LocalIdsMapBackToGlobalIds) {
  const Graph g = kt_test::random_undirected(20, 0.25, 3);
  const auto ego = analysis::extract_egonet(g, 7);
  EXPECT_EQ(ego.vertices[ego.local_center], 7u);
  for (vid x = 0; x < ego.vertices.size(); ++x) {
    for (const vid y : ego.graph.neighbors(x)) {
      EXPECT_TRUE(g.has_edge(ego.vertices[x], ego.vertices[y]));
    }
  }
}

class EgonetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EgonetProperty, CenterTrianglesEqualGlobalParticipation) {
  const Graph g = kt_test::random_undirected(25, 0.25, GetParam());
  const auto t = triangle::participation_vertices(g);
  for (vid p = 0; p < g.num_vertices(); p += 3) {
    const auto ego = analysis::extract_egonet(g, p);
    EXPECT_EQ(analysis::center_triangles(ego), t[p]) << "p=" << p;
  }
}

TEST_P(EgonetProperty, ImplicitViewMatchesExplicitExtraction) {
  const Graph a = kt_test::random_undirected(6, 0.4, GetParam() + 100);
  const Graph b = kt_test::random_undirected(5, 0.5, GetParam() + 101, 0.4);
  const kron::KronChain chain({a, b});
  const Graph c = kron::kron_graph(a, b);
  for (vid p = 0; p < c.num_vertices(); p += 4) {
    const auto from_view = analysis::extract_egonet(chain, p);
    const auto from_graph = analysis::extract_egonet(c, p);
    EXPECT_EQ(from_view.vertices, from_graph.vertices) << "p=" << p;
    EXPECT_TRUE(from_view.graph == from_graph.graph) << "p=" << p;
  }
}

TEST_P(EgonetProperty, EgonetValidatesOracleLikeFig7) {
  // The Fig. 7 protocol end-to-end at test scale: for sampled product
  // vertices, the egonet's center triangle count equals the Kronecker
  // formula value.
  const Graph a = kt_test::random_undirected(7, 0.4, GetParam() + 200);
  const Graph b = kt_test::random_undirected(6, 0.4, GetParam() + 201);
  const kron::KronChain chain({a, b});
  const kron::TriangleOracle oracle(a, b);
  for (vid p = 0; p < chain.num_vertices(); p += 5) {
    const auto ego = analysis::extract_egonet(chain, p);
    EXPECT_EQ(analysis::center_triangles(ego), oracle.vertex_triangles(p))
        << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EgonetProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
