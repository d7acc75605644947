#include "kron/multi.hpp"

#include <stdexcept>
#include <string>

#include "core/ops.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"

namespace kronotri::kron {

namespace {

/// Π size(f) over the factors, throwing std::invalid_argument that names
/// every factor's size when the product does not fit in 64 bits. A zero
/// factor makes the product zero whatever the others multiply to.
template <typename Size>
std::uint64_t checked_product(const std::vector<Graph>& factors, Size size,
                              const char* what) {
  std::uint64_t prod = 1;
  bool overflow = false;
  for (const Graph& f : factors) {
    const std::uint64_t s = size(f);
    if (s == 0) return 0;
    const auto next = checked_mul(prod, s);
    overflow |= !next;
    if (next) prod = *next;
  }
  if (overflow) {
    std::string sizes;
    for (const Graph& f : factors) {
      sizes += (sizes.empty() ? "" : " x ") + std::to_string(size(f));
    }
    throw std::invalid_argument("Kronecker product of factors with " + sizes +
                                " " + what + " has 2^64 or more " + what);
  }
  return prod;
}

}  // namespace

KronChain::KronChain(std::vector<Graph> factors)
    : factors_(std::move(factors)) {
  if (factors_.empty()) {
    throw std::invalid_argument("KronChain needs at least one factor");
  }
  if (factors_.size() > kMaxFactors) {
    throw std::invalid_argument("KronChain takes at most " +
                                std::to_string(kMaxFactors) + " factors");
  }
  bool any_loop_free = false;
  for (const Graph& f : factors_) {
    if (!f.is_undirected()) {
      throw std::invalid_argument("KronChain factors must be undirected");
    }
    any_loop_free |= !f.has_self_loops();
  }
  product_loop_free_ = any_loop_free;
  n_ = checked_product(
      factors_, [](const Graph& f) { return f.num_vertices(); }, "vertices");
  nnz_ = checked_product(
      factors_, [](const Graph& f) { return f.nnz(); }, "nonzeros");
  weight_.assign(factors_.size(), 1);
  for (std::size_t i = factors_.size() - 1; i-- > 0;) {
    weight_[i] = weight_[i + 1] * factors_[i + 1].num_vertices();
  }
}

count_t KronChain::num_undirected_edges() const {
  count_t loops = 1;
  for (const Graph& f : factors_) loops *= f.num_self_loops();
  return (nnz_ - loops) / 2 + loops;
}

KronChain::Coords KronChain::decompose(vid p) const noexcept {
  Coords xs;
  const std::size_t last = factors_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    xs[i] = p / weight_[i];
    p %= weight_[i];
  }
  xs[last] = p;
  return xs;
}

vid KronChain::compose(std::span<const vid> xs) const {
  if (xs.size() != factors_.size()) {
    throw std::invalid_argument("compose: wrong number of coordinates");
  }
  vid p = 0;
  for (std::size_t i = 0; i < factors_.size(); ++i) p += xs[i] * weight_[i];
  return p;
}

bool KronChain::has_edge(vid p, vid q) const {
  const Coords xs = decompose(p), ys = decompose(q);
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (!factors_[i].has_edge(xs[i], ys[i])) return false;
  }
  return true;
}

esz KronChain::out_degree(vid p) const {
  const Coords xs = decompose(p);
  esz d = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    d *= factors_[i].out_degree(xs[i]);
  }
  return d;
}

esz KronChain::nonloop_degree(vid p) const {
  const Coords xs = decompose(p);
  esz d = 1;
  bool loop = true;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    d *= factors_[i].out_degree(xs[i]);
    loop = loop && factors_[i].has_edge(xs[i], xs[i]);
  }
  return d - (loop ? 1 : 0);
}

std::vector<vid> KronChain::neighbors(vid p) const {
  std::vector<vid> out;
  out.reserve(out_degree(p));
  for_each_neighbor(decompose(p), [&](vid q, const vid*) { out.push_back(q); });
  return out;
}

Graph KronChain::materialize() const {
  BoolCsr acc = factors_.front().matrix();
  for (std::size_t i = 1; i < factors_.size(); ++i) {
    acc = kron_matrix<std::uint8_t>(acc, factors_[i].matrix());
  }
  return Graph(std::move(acc));
}

void KronChain::require_triangle_stats() const {
  if (!product_loop_free_) {
    throw std::invalid_argument(
        "KronChain triangle formulas need at least one loop-free factor "
        "(otherwise the §III.B general expansion applies at every level); "
        "strip loops from one factor or use the two-factor kron::formulas");
  }
  if (stats_ready_) return;
  diag_cube_.reserve(factors_.size());
  support_.reserve(factors_.size());
  for (const Graph& f : factors_) {
    diag_cube_.push_back(ops::diag_cube_symmetric(f.matrix()));
    support_.push_back(ops::masked_product(f.matrix(), f.matrix(), f.matrix()));
  }
  stats_ready_ = true;
}

count_t KronChain::vertex_triangles(vid p) const {
  require_triangle_stats();
  const Coords xs = decompose(p);
  count_t prod = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    prod *= diag_cube_[i][xs[i]];
  }
  return prod / 2;  // ½·diag(C³); the product of even/odd walks is even
}

count_t KronChain::edge_triangles(vid p, vid q) const {
  require_triangle_stats();
  const Coords xs = decompose(p), ys = decompose(q);
  count_t prod = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (!factors_[i].has_edge(xs[i], ys[i])) {
      throw std::invalid_argument("edge_triangles: (p,q) is not an edge of C");
    }
    prod *= support_[i].at(xs[i], ys[i]);
  }
  return prod;
}

count_t KronChain::total_triangles() const {
  require_triangle_stats();
  count_t prod = 1;
  for (const auto& dc : diag_cube_) {
    count_t sum = 0;
    for (const count_t v : dc) sum += v;
    prod *= sum;
  }
  return prod / 6;  // (1/3)·Σt = (1/6)·Σ diag(C³)
}

}  // namespace kronotri::kron
