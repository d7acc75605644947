// The implicit Kronecker product C = A₁ ⊗ A₂ ⊗ … ⊗ A_k, for every k ≥ 1.
//
// This is the "highly compressible" representation the paper's abstract
// highlights: |E_C| = Πᵢ nnz(Aᵢ) edges are kept as the O(|E_C|^½) storage
// of the factors (k = 2 is the paper's C = A ⊗ B) and queried directly —
// degree in O(k), edge membership in O(k log d), neighbor enumeration in
// output-linear time — without ever materializing C. The paper's companion
// work ([3], Kepner et al., "Design, generation, and validation of
// extreme-scale power-law graphs") builds benchmark graphs from MORE than
// two factors; the formulas of §III generalize by associativity of ⊗:
//
//   * mixed-radix index maps p ↔ (x₁, …, x_k), left factor most
//     significant (the k-fold γ/α/β of §II),
//   * implicit edge/degree queries from the factors,
//   * closed triangle formulas whenever the product is loop-free (i.e. at
//     least one factor has no self loops — loops in C need a loop in EVERY
//     factor):
//       diag(C³)  = ⊗ᵢ diag(Aᵢ³)            so  t_C = ½·⊗ᵢ diag(Aᵢ³)
//       Δ_C       = ⊗ᵢ (Aᵢ ∘ Aᵢ²)
//       τ(C)      = (1/6)·Πᵢ Σ diag(Aᵢ³)    (= 6^{k-1}·Πᵢ τ(Aᵢ) when all
//                                              factors are loop-free)
//       d_C       = ⊗ᵢ (Aᵢ·1)
//     For two factors these reduce exactly to Thm 1 / Cor 1 / Thm 2 /
//     Cor 2. The all-factors-looped case (which needs the §III.B general
//     expansion at every level) is rejected with an exception; the
//     two-factor kron::TriangleOracle covers it.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::kron {

/// The implicit product C = A₁ ⊗ … ⊗ A_k for every k ≥ 1 (k = 2 is the
/// paper's C = A ⊗ B): the factors stand in for C, and every query below
/// is answered from them without forming C.
class KronChain {
 public:
  /// A chain of k factors with ≥ 2 vertices each has ≥ 2^k product
  /// vertices, so 64 factors already saturates the vid space — the cap
  /// lets point queries and the odometer keep coordinates on the stack.
  static constexpr std::size_t kMaxFactors = 64;

  /// Per-factor coordinates of one product vertex, left factor first;
  /// entries [0, num_factors()) are meaningful.
  using Coords = std::array<vid, kMaxFactors>;

  /// Takes ownership of copies of the factors (factor graphs are small by
  /// design). Requires 1 ≤ k ≤ kMaxFactors undirected factors whose
  /// product vertex and nonzero counts fit in 64 bits (std::invalid_argument
  /// otherwise); triangle statistics additionally require at least one
  /// loop-free factor.
  explicit KronChain(std::vector<Graph> factors);

  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }
  [[nodiscard]] const Graph& factor(std::size_t i) const {
    return factors_[i];
  }

  [[nodiscard]] vid num_vertices() const noexcept { return n_; }
  [[nodiscard]] esz nnz() const noexcept { return nnz_; }
  [[nodiscard]] count_t num_undirected_edges() const;

  /// Mixed-radix decomposition of a product vertex, left factor most
  /// significant. Allocation-free: k − 1 divisions.
  [[nodiscard]] Coords decompose(vid p) const noexcept;
  /// Inverse of decompose(); xs must hold exactly num_factors() entries.
  [[nodiscard]] vid compose(std::span<const vid> xs) const;

  [[nodiscard]] bool has_edge(vid p, vid q) const;
  [[nodiscard]] esz out_degree(vid p) const;
  [[nodiscard]] esz nonloop_degree(vid p) const;

  /// Sorted out-neighbor list of p (materialized per call; size =
  /// out_degree, includes p itself when every factor has the loop).
  [[nodiscard]] std::vector<vid> neighbors(vid p) const;

  /// The one neighbor odometer: calls visit(q, ys) for every out-neighbor
  /// q of the vertex with coordinates xs, q ascending, where ys[0, k) are
  /// q's factor coordinates (valid during the call only). Includes the
  /// vertex itself when every factor has the loop.
  template <typename Visit>
  void for_each_neighbor(const Coords& xs, Visit&& visit) const;

  /// Materializes the product — small chains only (tests/examples).
  [[nodiscard]] Graph materialize() const;

  // -- exact triangle statistics (require ≥ 1 loop-free factor) ----------

  /// t_C[p] — exact triangle participation at product vertex p.
  [[nodiscard]] count_t vertex_triangles(vid p) const;

  /// Δ_C[p,q]; throws std::invalid_argument when (p,q) is not an edge.
  [[nodiscard]] count_t edge_triangles(vid p, vid q) const;

  /// τ(C).
  [[nodiscard]] count_t total_triangles() const;

 private:
  void require_triangle_stats() const;

  std::vector<Graph> factors_;
  std::vector<vid> weight_;  ///< mixed-radix weights (suffix products)
  vid n_ = 1;
  esz nnz_ = 1;
  bool product_loop_free_ = false;
  // Per-factor precomputed statistics (lazily built on first use).
  mutable std::vector<std::vector<count_t>> diag_cube_;  // diag(Aᵢ³)
  mutable std::vector<CountCsr> support_;                // Aᵢ ∘ Aᵢ²
  mutable bool stats_ready_ = false;
};

template <typename Visit>
void KronChain::for_each_neighbor(const Coords& xs, Visit&& visit) const {
  const std::size_t k = factors_.size();
  std::span<const vid> rows[kMaxFactors];
  for (std::size_t i = 0; i < k; ++i) {
    rows[i] = factors_[i].neighbors(xs[i]);
    if (rows[i].empty()) return;
  }
  // Odometer over the factor rows, left digit most significant; rows are
  // sorted, so composed ids come out ascending. The last digit (weight 1)
  // sweeps its row in the inner loop; value[i] is the partial sum of the
  // first i digits.
  const std::size_t last = k - 1;
  std::size_t idx[kMaxFactors] = {};
  vid ys[kMaxFactors];
  vid value[kMaxFactors];
  value[0] = 0;
  for (std::size_t i = 0; i < last; ++i) {
    ys[i] = rows[i][0];
    value[i + 1] = value[i] + ys[i] * weight_[i];
  }
  for (;;) {
    for (const vid y : rows[last]) {
      ys[last] = y;
      visit(value[last] + y, static_cast<const vid*>(ys));
    }
    std::size_t i = last;
    while (i > 0 && idx[i - 1] + 1 == rows[i - 1].size()) --i;
    if (i == 0) return;
    ++idx[i - 1];
    for (std::size_t j = i; j < last; ++j) idx[j] = 0;
    for (std::size_t j = i - 1; j < last; ++j) {
      ys[j] = rows[j][idx[j]];
      value[j + 1] = value[j] + ys[j] * weight_[j];
    }
  }
}

}  // namespace kronotri::kron
