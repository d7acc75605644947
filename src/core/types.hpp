// Fundamental index and count types.
//
// Product graphs C = A ⊗ B reach 10^11+ vertices and 10^14+ triangles in the
// paper's experiments, so vertex ids and counts are 64-bit everywhere — the
// factors are small, but any quantity describing C must not overflow.
#pragma once

#include <cstdint>
#include <optional>

namespace kronotri {

/// Vertex identifier (0-based everywhere; the paper is 1-based).
using vid = std::uint64_t;

/// Nonzero / edge index into CSR storage.
using esz = std::uint64_t;

/// Triangle / degree counts. τ(C) = 6·τ(A)·τ(B) reaches ~1.4e14 in the
/// paper's Table VI; uint64 gives headroom to ~1.8e19.
using count_t = std::uint64_t;

/// a·b, or std::nullopt when the product does not fit in 64 bits — for
/// sizes of C, which outgrow the vid space long before the factors do.
[[nodiscard]] constexpr std::optional<std::uint64_t> checked_mul(
    std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

}  // namespace kronotri
