// The product-level layers, called one public function at a time:
// gen (GeneratorRegistry::build), kron (stream_parallel, TriangleOracle),
// api (the stream sinks and the TeeSink), core (Graph::from_edges),
// triangle (CensusWorkspace), truss, analysis and validate.
//
// The same functions serve untraced and traced jobs: a Span always
// measures, and records only when the tracer is on.
#pragma once

#include <cstdint>
#include <string>

#include "api/plan.hpp"
#include "harness.hpp"

namespace repobench {

namespace api = kronotri::api;

/// C = A ⊗ B with A = hk:n=N,m=3,p=0.6 and B = A + I — the Table VI shape.
/// The workload seed picks the generator seed; seed 0 gives
/// examples/plans/paper_table6.json's product.
struct Product {
  std::string a_spec;
  std::string b_spec;
  unsigned n = 0;
  [[nodiscard]] std::string spec() const {
    return "kron:(" + a_spec + ")x(" + b_spec + ")";
  }
};
Product make_product(unsigned n, std::uint64_t generator_seed);

/// Generator seed whose product does the reference product's work: the
/// first seed at or after `start` whose C has, within 1%, the wedge count
/// the streaming census closes and, within 2%, the triangle count of C at
/// generator seed 1803 (paper_table6.json's). Holme–Kim degree sequences
/// vary from seed to seed, and job times with them by ±20%; screening
/// keeps the work of a job fixed while the inputs vary.
std::uint64_t screened_seed(unsigned n, std::uint64_t start);
/// Start of the scan for workload seed `seed` (1803 at seed 0).
std::uint64_t scan_start(std::uint64_t seed);

/// The §VI protocol plan over `p`: streamed census + measured degree
/// census, components, streaming validation under a 1M accumulator budget.
api::RunPlan protocol_plan(const Product& p, unsigned threads);

/// Who records a job's layer calls: the tracer (may be disabled), the
/// job id every span of the job shares, and the parent span.
struct Trace {
  Tracer* tracer = nullptr;
  std::uint64_t job = 0;
  std::int64_t parent = -1;
  [[nodiscard]] Trace child(std::int64_t id) const { return {tracer, job, id}; }
};

/// Checks a protocol report: PASS, and measured τ equals the closed form.
bool check_protocol_report(const api::RunReport& r, Checker& ck);

/// The protocol job spelled as the layer calls api::run makes for it —
/// the traced stand-in for api::run, whose insides the benchmark cannot
/// see. Adds gen/kron/api/analysis/validate span samples.
struct ReplicaResult {
  double wall_s = 0;
  double layers_s = 0;  ///< sum of the layer calls' spans (traced jobs)
  bool ok = false;
};
ReplicaResult protocol_replica(const Product& p, unsigned threads,
                               const Trace& t, Checker& ck, Samples& s);

/// The materialize job: stream C into the binary writer, the census and
/// degree sinks and the collector; build the graph; run the materialized
/// census, clustering and truss.
struct MaterializeResult {
  double wall_s = 0;
  double layers_s = 0;  ///< sum of the layer calls' spans (traced jobs)
  std::uint64_t edges = 0;    ///< undirected edges of C
  std::uint64_t entries = 0;  ///< stored entries streamed
  std::uint64_t wedge_checks = 0;
  std::size_t working_set_bytes = 0;  ///< computed, not measured
  bool ok = false;
};
MaterializeResult materialize_job(const Product& p, unsigned partitions,
                                  const std::string& out_path, const Trace& t,
                                  Checker& ck, Samples& s);

/// One call to each product-level layer the jobs above do not split:
/// a counting stream, each sink alone, the oracle, and validate's plan /
/// shards / compare at the run's thread count and at one thread.
void product_probes(const Product& p, unsigned partitions, unsigned threads,
                    const std::string& out_path, unsigned reps,
                    const Trace& t, Checker& ck, Samples& s);

}  // namespace repobench
