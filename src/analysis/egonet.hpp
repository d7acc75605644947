// Egonet extraction on implicit Kronecker product graphs (the validation
// instrument of the paper's Fig. 7).
//
// The egonet of p is the subgraph induced by {p} ∪ N(p). On an implicit
// product C = A₁ ⊗ … ⊗ A_k it is built without materializing C: the
// neighbor list comes from the factor rows and each induced edge is k
// factor-matrix membership tests. The number of triangles at p inside its
// egonet equals t_C[p], so comparing the materialized egonet against
// TriangleOracle::vertex_triangles is an end-to-end validation of Thm 1 /
// Cor 1 at that vertex.
#pragma once

#include <vector>

#include "core/graph.hpp"
#include "kron/multi.hpp"

namespace kronotri::analysis {

struct Egonet {
  vid center;                  ///< product-graph id of the ego vertex
  std::vector<vid> vertices;   ///< product-graph ids; vertices[0] == center? no: sorted, includes center
  Graph graph;                 ///< induced subgraph on `vertices` (local ids)
  vid local_center = 0;        ///< index of the center within `vertices`
};

/// Extracts the egonet of product vertex p from the implicit product.
Egonet extract_egonet(const kron::KronChain& c, vid p);

/// Extracts the egonet of vertex p of an explicit graph (reference path).
Egonet extract_egonet(const Graph& g, vid p);

/// Number of triangles incident to the center inside its egonet — equals
/// t[p] of the full graph.
count_t center_triangles(const Egonet& ego);

/// Number of triangles containing edge (center, neighbor) inside the
/// egonet — equals Δ[p, q] of the full graph (the §VI experiment samples
/// edges as well as vertices). `q` is a product/graph id adjacent to the
/// center; throws std::invalid_argument when it is not in the egonet.
count_t center_edge_triangles(const Egonet& ego, vid q);

}  // namespace kronotri::analysis
