// Explicit (materialized) Kronecker products.
//
// Materialization is quadratic in the compressed representation and is only
// used for small factors: unit tests validate every closed formula against
// direct computation on a materialized C = A ⊗ B, and the egonet benches
// materialize local neighborhoods. Production-scale use goes through
// the implicit kron::KronChain / kron::EdgeStream instead.
#pragma once

#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"
#include "kron/index.hpp"

namespace kronotri::kron {

/// Dense Kronecker product of vectors: out[i·|b| + k] = a[i]·b[k].
template <typename T>
std::vector<T> kron_vector(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out;
  out.reserve(a.size() * b.size());
  for (const T& x : a) {
    for (const T& y : b) out.push_back(static_cast<T>(x * y));
  }
  return out;
}

/// Sparse Kronecker product of matrices (Def. 1). Row p = i·rows(B)+k of the
/// result is the outer combination of row i of A and row k of B, which keeps
/// rows sorted without any extra sorting.
template <typename TOut, typename TA, typename TB>
CsrMatrix<TOut> kron_matrix(const CsrMatrix<TA>& a, const CsrMatrix<TB>& b) {
  const vid rows = a.rows() * b.rows();
  const vid cols = a.cols() * b.cols();
  std::vector<esz> rp(rows + 1, 0);
  std::vector<vid> ci;
  std::vector<TOut> vals;
  ci.reserve(a.nnz() * b.nnz());
  vals.reserve(a.nnz() * b.nnz());
  for (vid i = 0; i < a.rows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    for (vid k = 0; k < b.rows(); ++k) {
      const auto bc = b.row_cols(k);
      const auto bv = b.row_vals(k);
      for (std::size_t x = 0; x < ac.size(); ++x) {
        for (std::size_t y = 0; y < bc.size(); ++y) {
          ci.push_back(ac[x] * b.cols() + bc[y]);
          vals.push_back(static_cast<TOut>(static_cast<TOut>(av[x]) *
                                           static_cast<TOut>(bv[y])));
        }
      }
      rp[i * b.rows() + k + 1] = ci.size();
    }
  }
  return CsrMatrix<TOut>::from_parts(rows, cols, std::move(rp), std::move(ci),
                                     std::move(vals));
}

/// Materialized product graph G_C with C = A ⊗ B.
Graph kron_graph(const Graph& a, const Graph& b);

}  // namespace kronotri::kron
