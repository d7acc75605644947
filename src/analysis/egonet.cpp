#include "analysis/egonet.hpp"

#include <algorithm>

#include "triangle/count.hpp"

namespace kronotri::analysis {

namespace {

template <typename HasEdge>
Egonet build(vid p, std::vector<vid> verts, HasEdge&& has_edge) {
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());

  Egonet ego;
  ego.center = p;
  ego.local_center = static_cast<vid>(
      std::lower_bound(verts.begin(), verts.end(), p) - verts.begin());

  const vid n = verts.size();
  std::vector<std::pair<vid, vid>> edges;
  for (vid x = 0; x < n; ++x) {
    for (vid y = 0; y < n; ++y) {
      if (x != y && has_edge(verts[x], verts[y])) edges.emplace_back(x, y);
    }
  }
  ego.graph = Graph::from_edges(n, edges, /*symmetrize=*/false);
  ego.vertices = std::move(verts);
  return ego;
}

}  // namespace

Egonet extract_egonet(const kron::KronChain& c, vid p) {
  std::vector<vid> verts = c.neighbors(p);
  verts.push_back(p);
  return build(p, std::move(verts),
               [&](vid u, vid v) { return c.has_edge(u, v); });
}

Egonet extract_egonet(const Graph& g, vid p) {
  const auto nb = g.neighbors(p);
  std::vector<vid> verts(nb.begin(), nb.end());
  verts.push_back(p);
  return build(p, std::move(verts),
               [&](vid u, vid v) { return g.has_edge(u, v); });
}

count_t center_triangles(const Egonet& ego) {
  const std::vector<count_t> t =
      triangle::participation_vertices(ego.graph);
  return t[ego.local_center];
}

count_t center_edge_triangles(const Egonet& ego, vid q) {
  const auto it =
      std::lower_bound(ego.vertices.begin(), ego.vertices.end(), q);
  if (it == ego.vertices.end() || *it != q) {
    throw std::invalid_argument("center_edge_triangles: q not in egonet");
  }
  const vid local_q = static_cast<vid>(it - ego.vertices.begin());
  const vid c = ego.local_center;
  if (!ego.graph.has_edge(c, local_q)) {
    throw std::invalid_argument("center_edge_triangles: (center,q) not an edge");
  }
  // Common neighbors of center and q inside the egonet close the triangles.
  count_t acc = 0;
  for (const vid w : ego.graph.neighbors(c)) {
    if (w != c && w != local_q && ego.graph.has_edge(local_q, w)) ++acc;
  }
  return acc;
}

}  // namespace kronotri::analysis
