#include "validate/streaming_census.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kronotri::validate {

using kron::KronChain;

StreamingCensus::StreamingCensus(const Graph& a, const Graph& b,
                                 StreamingOptions opt)
    : owned_(std::make_unique<const KronChain>(std::vector<Graph>{a, b})),
      chain_(owned_.get()),
      opt_(opt) {
  plan_shards();
}

StreamingCensus::StreamingCensus(const KronChain& chain, StreamingOptions opt)
    : chain_(&chain), opt_(opt) {
  plan_shards();
}

esz StreamingCensus::upper_degree(vid p) const {
  const KronChain& c = *chain_;
  const std::size_t k = c.num_factors();
  const KronChain::Coords coords = c.decompose(p);
  // suffix[f] = Π_{i ≥ f} d_i(x_i): the free choices once factor f−1 fixed
  // the comparison.
  esz suffix[KronChain::kMaxFactors + 1];
  suffix[k] = 1;
  for (std::size_t i = k; i-- > 0;) {
    suffix[i] = suffix[i + 1] * c.factor(i).out_degree(coords[i]);
  }
  // A neighbor tuple composes to an id > p exactly when its first differing
  // coordinate exceeds p's; a tuple can only agree on the prefix 0..f−1 if
  // every prefix factor has a self loop at its coordinate.
  esz total = 0;
  for (std::size_t f = 0; f < k; ++f) {
    const auto row = c.factor(f).neighbors(coords[f]);
    const esz greater = static_cast<esz>(
        row.end() - std::upper_bound(row.begin(), row.end(), coords[f]));
    total += greater * suffix[f + 1];
    if (!c.factor(f).has_edge(coords[f], coords[f])) return total;
  }
  return total;  // all-equal tuple is p itself, not > p
}

void StreamingCensus::plan_shards() {
  shards_.clear();
  const vid n = num_vertices();
  if (n == 0) return;
  if (opt_.force_shards > 0) {
    const std::uint64_t s = std::min<std::uint64_t>(opt_.force_shards, n);
    for (std::uint64_t i = 0; i < s; ++i) {
      const vid lo = static_cast<vid>(n / s * i + std::min<vid>(i, n % s));
      const vid hi =
          static_cast<vid>(n / s * (i + 1) + std::min<vid>(i + 1, n % s));
      if (lo < hi) shards_.push_back({lo, hi});
    }
    return;
  }
  const std::size_t budget = std::max<std::size_t>(opt_.mem_budget_bytes, 1);
  // Chunked planning keeps the cost scan O(chunk) in memory: per-vertex
  // accumulator cost is one vertex counter, one offset slot, and one edge
  // counter per owned edge (upper_degree is analytic — no enumeration).
  constexpr vid kChunk = 1u << 15;
  std::vector<std::size_t> cost;
  vid lo = 0;
  std::size_t used = sizeof(esz);  // the offsets array's sentinel entry
  for (vid base = 0; base < n; base += kChunk) {
    const vid end = std::min<vid>(n, base + kChunk);
    cost.assign(static_cast<std::size_t>(end - base), 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(end - base);
         ++uu) {
      cost[static_cast<std::size_t>(uu)] =
          sizeof(count_t) + sizeof(esz) +
          sizeof(count_t) *
              static_cast<std::size_t>(upper_degree(base + static_cast<vid>(uu)));
    }
    for (vid u = base; u < end; ++u) {
      const std::size_t c = cost[static_cast<std::size_t>(u - base)];
      if (u > lo && used + c > budget) {
        shards_.push_back({lo, u});
        lo = u;
        used = sizeof(esz);
      }
      used += c;
    }
  }
  shards_.push_back({lo, n});
}

void StreamingCensus::process_shard(ShardRange range,
                                    std::vector<count_t>& vertex,
                                    std::vector<count_t>& edge,
                                    std::vector<esz>& offsets,
                                    count_t& wedge_checks) const {
  const vid lo = range.lo;
  const std::int64_t len = static_cast<std::int64_t>(range.hi - range.lo);
  const std::size_t k = chain_->num_factors();
  const Graph* const factors = &chain_->factor(0);  // contiguous, k of them

  offsets.assign(static_cast<std::size_t>(len) + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t uu = 0; uu < len; ++uu) {
    offsets[static_cast<std::size_t>(uu) + 1] =
        upper_degree(lo + static_cast<vid>(uu));
  }
  for (std::int64_t uu = 0; uu < len; ++uu) {
    offsets[static_cast<std::size_t>(uu) + 1] +=
        offsets[static_cast<std::size_t>(uu)];
  }
  vertex.assign(static_cast<std::size_t>(len), 0);
  edge.assign(offsets[static_cast<std::size_t>(len)], 0);

  // Per-thread factor-row bitsets, one per factor over its vertex ids:
  // words [base[f], base[f+1]) hold row cur[f] of factor f. Σ_f ⌈n_f/64⌉
  // words a thread, outside the accumulator budget.
  std::size_t base[KronChain::kMaxFactors + 1];
  base[0] = 0;
  for (std::size_t f = 0; f < k; ++f) {
    base[f + 1] = base[f] + (factors[f].num_vertices() + 63) / 64;
  }
  const std::size_t last = k - 1;
  constexpr vid kNoRow = ~vid{0};

  count_t checks = 0;
#pragma omp parallel reduction(+ : checks)
  {
    std::vector<std::uint64_t> bits(base[k], 0);
    vid cur[KronChain::kMaxFactors];
    std::fill(cur, cur + k, kNoRow);
    // Makes factor f's bitset row x, clearing the previous row by walking it.
    const auto load_row = [&](std::size_t f, vid x) {
      if (cur[f] == x) return;
      std::uint64_t* const w = bits.data() + base[f];
      if (cur[f] != kNoRow) {
        for (const vid y : factors[f].neighbors(cur[f])) w[y >> 6] = 0;
      }
      for (const vid y : factors[f].neighbors(x)) w[y >> 6] |= 1ull << (y & 63);
      cur[f] = x;
    };
    const auto has_bit = [&](std::size_t f, vid y) -> count_t {
      return (bits[base[f] + (y >> 6)] >> (y & 63)) & 1u;
    };
    // N(u) as odometer blocks: neighbors sharing the prefix coordinates
    // 0..k−2 are contiguous. tail[i] is neighbor i's last coordinate, block
    // b spans [start[b], start[b+1]) with prefix coordinates
    // prefix[b*(k−1) ..).
    std::vector<vid> tail, prefix;
    std::vector<std::size_t> start, closing;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t uu = 0; uu < len; ++uu) {
      const vid u = lo + static_cast<vid>(uu);
      // The self loop is dropped — the census runs on C − I∘C — which can
      // leave a hole in the middle of u's own block.
      tail.clear();
      prefix.clear();
      start.clear();
      std::size_t split = 0;  // neighbors < u come first (ids ascend)
      vid block_id = kNoRow;
      chain_->for_each_neighbor(
          chain_->decompose(u), [&](vid v, const vid* ys) {
            if (v == u) return;
            split += v < u;
            if (v - ys[last] != block_id) {
              block_id = v - ys[last];
              start.push_back(tail.size());
              prefix.insert(prefix.end(), ys, ys + last);
            }
            tail.push_back(ys[last]);
          });
      const std::size_t deg = tail.size();
      const std::size_t blocks = start.size();
      start.push_back(deg);
      assert(deg - split == offsets[static_cast<std::size_t>(uu) + 1] -
                                offsets[static_cast<std::size_t>(uu)]);
      checks += deg * (deg - 1) / 2;  // every pair is examined
      // Every counter below is owned by this u alone: vertex[uu] and the
      // owned-edge slice [offsets[uu], offsets[uu+1]) — single-writer, so
      // no atomics, no thread-local copies, no reduction. Each examined
      // pair {i, j} adds its closure bit (0 or 1) to them.
      count_t t = 0;
      count_t* const eb = edge.data() + offsets[static_cast<std::size_t>(uu)];
      for (std::size_t bi = 0; bi < blocks; ++bi) {
        // Arms of block bi share their prefix rows; one prefix test per
        // later block keeps only the blocks those rows close.
        const vid* const pi = prefix.data() + bi * last;
        for (std::size_t f = 0; f < last; ++f) load_row(f, pi[f]);
        closing.clear();
        for (std::size_t b = bi; b < blocks; ++b) {
          const vid* const pb = prefix.data() + b * last;
          std::size_t f = 0;
          while (f < last && has_bit(f, pb[f])) ++f;
          if (f == last) closing.push_back(b);
        }
        if (closing.empty()) continue;
        for (std::size_t i = start[bi]; i < start[bi + 1]; ++i) {
          load_row(last, tail[i]);
          count_t arm = 0;
          for (const std::size_t b : closing) {
            const std::size_t jlo = std::max(start[b], i + 1);
            const std::size_t jhi = start[b + 1];
            if (jlo >= jhi) continue;
            const std::size_t jmid = std::clamp(split, jlo, jhi);
            for (std::size_t j = jlo; j < jmid; ++j) {
              arm += has_bit(last, tail[j]);
            }
            for (std::size_t j = jmid; j < jhi; ++j) {
              const count_t closed = has_bit(last, tail[j]);
              arm += closed;
              eb[j - split] += closed;
            }
          }
          t += arm;
          if (i >= split) eb[i - split] += arm;
        }
      }
      vertex[static_cast<std::size_t>(uu)] = t;
    }
  }
  wedge_checks = checks;
}

StreamingStats StreamingCensus::run(const ShardConsumer& consumer) const {
  return run_shards(0, shards_.size(), consumer);
}

StreamingStats StreamingCensus::run_shards(std::size_t begin, std::size_t end,
                                           const ShardConsumer& consumer)
    const {
  if (begin > end || end > shards_.size()) {
    throw std::out_of_range("StreamingCensus::run_shards: bad range");
  }
  StreamingStats st;
  st.num_shards = end - begin;
  std::vector<count_t> vertex, edge;
  std::vector<esz> offsets;
  for (std::size_t s = begin; s < end; ++s) {
    obs::Span span("validate:shard");
    span.arg("shard", s);
    const ShardRange range = shards_[s];
    count_t checks = 0;
    process_shard(range, vertex, edge, offsets, checks);
    st.wedge_checks += checks;
    span.arg("wedge_checks", checks);
    obs::counter("validate.shards_executed").add();
    obs::counter("validate.wedge_checks").add(checks);
    st.peak_accumulator_bytes =
        std::max(st.peak_accumulator_bytes,
                 vertex.size() * sizeof(count_t) +
                     edge.size() * sizeof(count_t) + offsets.size() * sizeof(esz));
    count_t vsum = 0, esum = 0;
#pragma omp parallel for schedule(static) reduction(+ : vsum)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(vertex.size());
         ++i) {
      vsum += vertex[static_cast<std::size_t>(i)];
    }
#pragma omp parallel for schedule(static) reduction(+ : esum)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(edge.size()); ++i) {
      esum += edge[static_cast<std::size_t>(i)];
    }
    st.vertex_count_sum += vsum;
    st.edge_count_sum += esum;
    st.num_edges += edge.size();
    if (consumer) consumer(Shard(*this, range, vertex, edge, offsets));
  }
  if (begin == 0 && end == shards_.size()) {
    assert(st.vertex_count_sum % 3 == 0);
    st.total_triangles = st.vertex_count_sum / 3;
  }
  return st;
}

}  // namespace kronotri::validate
