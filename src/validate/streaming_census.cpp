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

  count_t checks = 0;
#pragma omp parallel reduction(+ : checks)
  {
    std::vector<vid> ids, coords;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t uu = 0; uu < len; ++uu) {
      const vid u = lo + static_cast<vid>(uu);
      // N(u) with each neighbor's factor coordinates kept alongside:
      // coords[i*k .. i*k+k) belongs to ids[i]. The self loop is dropped —
      // the census runs on C − I∘C.
      ids.clear();
      coords.clear();
      chain_->for_each_neighbor(
          chain_->decompose(u), [&](vid v, const vid* vc) {
            if (v == u) return;
            ids.push_back(v);
            coords.insert(coords.end(), vc, vc + k);
          });
      const std::size_t deg = ids.size();
      const std::size_t split = static_cast<std::size_t>(
          std::upper_bound(ids.begin(), ids.end(), u) - ids.begin());
      assert(deg - split == offsets[static_cast<std::size_t>(uu) + 1] -
                                offsets[static_cast<std::size_t>(uu)]);
      // Every counter below is owned by this u alone: vertex[uu] and the
      // owned-edge slice [offsets[uu], offsets[uu+1]) — single-writer, so
      // no atomics, no thread-local copies, no reduction.
      count_t t = 0;
      count_t* const eb = edge.data() + offsets[static_cast<std::size_t>(uu)];
      for (std::size_t i = 0; i + 1 < deg; ++i) {
        const vid* const ci = coords.data() + i * k;
        for (std::size_t j = i + 1; j < deg; ++j) {
          const vid* const cj = coords.data() + j * k;
          ++checks;
          bool closed = true;
          for (std::size_t f = 0; f < k; ++f) {
            if (!factors[f].has_edge(ci[f], cj[f])) {
              closed = false;
              break;
            }
          }
          if (!closed) continue;
          ++t;
          if (i >= split) ++eb[i - split];
          if (j >= split) ++eb[j - split];
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

void StreamingCensus::Shard::for_each_owned_edge(
    const std::function<void(vid, vid, count_t)>& fn) const {
  const KronChain& chain = *engine_->chain_;
  for (vid u = range_.lo; u < range_.hi; ++u) {
    const count_t* counts =
        edge_.data() + offsets_[static_cast<std::size_t>(u - range_.lo)];
    chain.for_each_neighbor(chain.decompose(u), [&](vid v, const vid*) {
      if (v > u) fn(u, v, *counts++);
    });
  }
}

}  // namespace kronotri::validate
