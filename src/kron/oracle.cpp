#include "kron/oracle.hpp"

#include "kron/multi.hpp"

namespace kronotri::kron {

TriangleOracle::TriangleOracle(const Graph& a, const Graph& b)
    : a_(&a),
      b_(&b),
      index_(b.num_vertices()),
      tvec_(kronotri::kron::vertex_triangles(a, b)),
      dmat_(kronotri::kron::edge_triangles(a, b)),
      deg_(kronotri::kron::degrees(a, b)) {
  total_ = tvec_.sum() / 3;
  // The chain checks that C's vertex and nonzero counts fit in 64 bits.
  const KronChain c({a, b});
  n_ = c.num_vertices();
  edges_ = c.num_undirected_edges();
}

double TriangleOracle::local_clustering(vid p) const {
  const count_t d = deg_.at(p);
  if (d < 2) return 0.0;
  const double wedges = 0.5 * static_cast<double>(d) *
                        static_cast<double>(d - 1);
  return static_cast<double>(tvec_.at(p)) / wedges;
}

std::optional<count_t> TriangleOracle::edge_triangles(vid p, vid q) const {
  const vid i = index_.a_of(p), j = index_.a_of(q);
  const vid k = index_.b_of(p), l = index_.b_of(q);
  if (!a_->has_edge(i, j) || !b_->has_edge(k, l)) return std::nullopt;
  return dmat_.at(p, q);
}

}  // namespace kronotri::kron
