#include "validate/report.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "kron/multi.hpp"
#include "kron/oracle.hpp"
#include "util/table.hpp"

namespace kronotri::validate {

namespace {

count_t abs_diff(count_t a, count_t b) { return a > b ? a - b : b - a; }

/// Folds one measured vertex count and its prediction into `r`.
void check_vertex(ValidationReport& r, count_t measured, count_t predicted) {
  ++r.vertices_checked;
  ++r.vertex_histogram[measured];
  if (measured != predicted) {
    ++r.vertex_mismatches;
    r.vertex_max_abs_err =
        std::max(r.vertex_max_abs_err, abs_diff(measured, predicted));
  }
}

/// Folds one measured edge count and its prediction into `r`.
void check_edge(ValidationReport& r, count_t measured,
                std::optional<count_t> predicted) {
  ++r.edges_checked;
  ++r.edge_histogram[measured];
  if (!predicted) {
    // The streamed pair is an edge of C by construction; a predictor
    // refusing it is itself a mismatch.
    ++r.edge_mismatches;
    r.edge_max_abs_err = std::max(r.edge_max_abs_err, measured);
  } else if (*predicted != measured) {
    ++r.edge_mismatches;
    r.edge_max_abs_err =
        std::max(r.edge_max_abs_err, abs_diff(measured, *predicted));
  }
}

/// Shared report builder: runs the engine once, folding every shard's
/// measured counts against the supplied point predictors inside the OpenMP
/// team. The predictors are called from several threads at once, so any
/// lazily built oracle state must exist before this is called.
template <typename VertexPred, typename EdgePred>
ValidationReport build_report(const StreamingCensus& census,
                              const VertexPred& vertex_pred,
                              const EdgePred& edge_pred,
                              count_t predicted_total,
                              const StreamingOptions& opt) {
  ValidationReport r;
  r.num_vertices = census.num_vertices();
  r.num_factors = census.num_factors();
  r.mem_budget_bytes = opt.mem_budget_bytes;
  r.predicted_total = predicted_total;

  // Work-unit restriction: the full shard plan is deterministic, so every
  // process derives the same boundaries and takes its own disjoint index
  // slice — the fragments merge() back into the single-process report.
  std::size_t begin = 0, end = census.shards().size();
  if (opt.units > 0) {
    std::tie(begin, end) = unit_index_range(end, opt.unit, opt.units);
    r.partial = true;
  }

  const auto fold = [&](const StreamingCensus::Shard& shard) {
    constexpr vid kChunk = 256;
    const vid lo = shard.lo();
    const auto vc = shard.vertex_counts();
    const std::int64_t chunks =
        static_cast<std::int64_t>((shard.hi() - lo + kChunk - 1) / kChunk);
    std::exception_ptr error;  // a throwing predictor, rethrown below
#pragma omp parallel
    {
      // This thread's share of the comparison. merge() sums the counts and
      // histograms and takes the maxima, so the order the threads fold in
      // does not change the report.
      ValidationReport tally;
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t c = 0; c < chunks; ++c) {
        const vid first = lo + static_cast<vid>(c) * kChunk;
        const vid last = std::min<vid>(shard.hi(), first + kChunk);
        try {
          for (vid p = first; p < last; ++p) {
            check_vertex(tally, vc[static_cast<std::size_t>(p - lo)],
                         vertex_pred(p));
          }
          shard.for_each_owned_edge(first, last,
                                    [&](vid u, vid v, count_t measured) {
                                      check_edge(tally, measured,
                                                 edge_pred(u, v));
                                    });
        } catch (...) {
#pragma omp critical(kronotri_validate_fold)
          if (!error) error = std::current_exception();
        }
      }
#pragma omp critical(kronotri_validate_fold)
      r.merge(tally);
    }
    if (error) std::rethrow_exception(error);
  };
  r.stats = census.run_shards(begin, end, fold);
  r.measured_total = r.stats.total_triangles;
  r.num_edges = r.stats.num_edges;
  return r;
}

std::map<count_t, count_t> histogram_from_json(const util::json::Value* v) {
  std::map<count_t, count_t> h;
  if (v == nullptr) return h;
  for (const auto& [key, freq] : v->members()) {
    h[static_cast<count_t>(std::stoull(key))] = freq.as_uint();
  }
  return h;
}

}  // namespace

void ValidationReport::print(std::ostream& os) const {
  os << "streaming validation of " << (spec.empty() ? "product" : spec) << "\n";
  util::Table t({"", "value"});
  t.row({"product vertices", util::commas(num_vertices)});
  t.row({"product edges", util::commas(num_edges)});
  t.row({"factors", std::to_string(num_factors)});
  t.row({"shards", std::to_string(stats.num_shards)});
  t.row({"memory budget (B)", util::commas(mem_budget_bytes)});
  t.row({"peak accumulator (B)", util::commas(stats.peak_accumulator_bytes)});
  t.row({"wedge checks", util::commas(stats.wedge_checks)});
  t.row({"measured triangles", util::commas(measured_total)});
  t.row({"predicted triangles", util::commas(predicted_total)});
  t.row({"vertex mismatches", util::commas(vertex_mismatches) + " / " +
                                  util::commas(vertices_checked)});
  t.row({"edge mismatches",
         util::commas(edge_mismatches) + " / " + util::commas(edges_checked)});
  t.row({"max abs error (V/E)", util::commas(vertex_max_abs_err) + " / " +
                                    util::commas(edge_max_abs_err)});
  if (partial) t.row({"coverage", "PARTIAL (shard-subset fragment)"});
  if (histogram_checked && !partial) {
    t.row({"vertex histogram",
           vertex_histogram == predicted_vertex_histogram
               ? "matches closed form"
               : "DIFFERS from closed form"});
  }
  t.print(os);
  os << (pass() ? "PASS" : "FAIL") << "\n";
}

util::json::Value ValidationReport::to_json() const {
  util::json::Value out = util::json::Value::object();
  out.set("spec", spec);
  out.set("num_vertices", num_vertices);
  out.set("num_edges", num_edges);
  out.set("num_factors", num_factors);
  out.set("mem_budget_bytes", mem_budget_bytes);
  out.set("num_shards", stats.num_shards);
  out.set("peak_accumulator_bytes", stats.peak_accumulator_bytes);
  out.set("wedge_checks", stats.wedge_checks);
  out.set("vertex_count_sum", stats.vertex_count_sum);
  out.set("edge_count_sum", stats.edge_count_sum);
  out.set("measured_total", measured_total);
  out.set("predicted_total", predicted_total);
  out.set("partial", partial);
  out.set("vertices_checked", vertices_checked);
  out.set("vertex_mismatches", vertex_mismatches);
  out.set("vertex_max_abs_err", vertex_max_abs_err);
  out.set("edges_checked", edges_checked);
  out.set("edge_mismatches", edge_mismatches);
  out.set("edge_max_abs_err", edge_max_abs_err);
  out.set("histogram_checked", histogram_checked);
  out.set("vertex_histogram", util::json::histogram(vertex_histogram));
  out.set("edge_histogram", util::json::histogram(edge_histogram));
  out.set("predicted_vertex_histogram",
          util::json::histogram(predicted_vertex_histogram));
  out.set("pass", pass());
  return out;
}

ValidationReport ValidationReport::from_json(const util::json::Value& v) {
  ValidationReport r;
  r.spec = v.get_string("spec", "");
  r.num_vertices = v.get_uint("num_vertices", 0);
  r.num_edges = v.get_uint("num_edges", 0);
  r.num_factors = v.get_uint("num_factors", 0);
  r.mem_budget_bytes = v.get_uint("mem_budget_bytes", 0);
  r.stats.num_shards = v.get_uint("num_shards", 0);
  r.stats.peak_accumulator_bytes = v.get_uint("peak_accumulator_bytes", 0);
  r.stats.wedge_checks = v.get_uint("wedge_checks", 0);
  r.stats.vertex_count_sum = v.get_uint("vertex_count_sum", 0);
  r.stats.edge_count_sum = v.get_uint("edge_count_sum", 0);
  r.stats.num_edges = r.num_edges;
  r.measured_total = v.get_uint("measured_total", 0);
  r.stats.total_triangles = r.measured_total;
  r.predicted_total = v.get_uint("predicted_total", 0);
  r.partial = v.get_bool("partial", false);
  r.vertices_checked = v.get_uint("vertices_checked", 0);
  r.vertex_mismatches = v.get_uint("vertex_mismatches", 0);
  r.vertex_max_abs_err = v.get_uint("vertex_max_abs_err", 0);
  r.edges_checked = v.get_uint("edges_checked", 0);
  r.edge_mismatches = v.get_uint("edge_mismatches", 0);
  r.edge_max_abs_err = v.get_uint("edge_max_abs_err", 0);
  r.histogram_checked = v.get_bool("histogram_checked", false);
  r.vertex_histogram = histogram_from_json(v.find("vertex_histogram"));
  r.edge_histogram = histogram_from_json(v.find("edge_histogram"));
  r.predicted_vertex_histogram =
      histogram_from_json(v.find("predicted_vertex_histogram"));
  return r;
}

void ValidationReport::merge(const ValidationReport& other) {
  num_edges += other.num_edges;
  stats.num_shards += other.stats.num_shards;
  stats.num_edges += other.stats.num_edges;
  stats.wedge_checks += other.stats.wedge_checks;
  stats.vertex_count_sum += other.stats.vertex_count_sum;
  stats.edge_count_sum += other.stats.edge_count_sum;
  stats.peak_accumulator_bytes =
      std::max(stats.peak_accumulator_bytes, other.stats.peak_accumulator_bytes);
  vertices_checked += other.vertices_checked;
  vertex_mismatches += other.vertex_mismatches;
  vertex_max_abs_err = std::max(vertex_max_abs_err, other.vertex_max_abs_err);
  edges_checked += other.edges_checked;
  edge_mismatches += other.edge_mismatches;
  edge_max_abs_err = std::max(edge_max_abs_err, other.edge_max_abs_err);
  for (const auto& [count, freq] : other.vertex_histogram) {
    vertex_histogram[count] += freq;
  }
  for (const auto& [count, freq] : other.edge_histogram) {
    edge_histogram[count] += freq;
  }
  histogram_checked = histogram_checked || other.histogram_checked;
  if (predicted_vertex_histogram.empty()) {
    predicted_vertex_histogram = other.predicted_vertex_histogram;
  }
}

void ValidationReport::finalize_merged() {
  partial = false;
  measured_total = stats.vertex_count_sum / 3;
  stats.total_triangles = measured_total;
}

void ValidationReport::write_json(std::ostream& os) const {
  to_json().dump(os);
}

std::uint64_t ValidationReport::fingerprint() const {
  return util::json::hash64(to_json().dump_canonical_string());
}

ValidationReport validate_product(const Graph& a, const Graph& b,
                                  const StreamingOptions& opt) {
  const kron::TriangleOracle oracle(a, b);
  const StreamingCensus census(a, b, opt);
  ValidationReport r = build_report(
      census, [&](vid p) { return oracle.vertex_triangles(p); },
      [&](vid p, vid q) { return oracle.edge_triangles(p, q); },
      oracle.total_triangles(), opt);
  try {
    r.predicted_vertex_histogram = oracle.triangle_histogram();
    r.histogram_checked = true;
  } catch (const std::logic_error&) {
    // Multi-term regime (both factors have loops): no closed-form
    // histogram, the pointwise comparison above still covers every vertex.
  }
  return r;
}

ValidationReport validate_chain(const kron::KronChain& chain,
                                const StreamingOptions& opt) {
  // Surface the ≥-one-loop-free-factor precondition before streaming; this
  // also builds the chain's lazy factor statistics before the fold's team
  // reads them.
  (void)chain.total_triangles();
  const StreamingCensus census(chain, opt);
  return build_report(
      census, [&](vid p) { return chain.vertex_triangles(p); },
      [&](vid p, vid q) -> std::optional<count_t> {
        if (!chain.has_edge(p, q)) return std::nullopt;
        return chain.edge_triangles(p, q);
      },
      chain.total_triangles(), opt);
}

}  // namespace kronotri::validate
