// E12 — communication-free generation (§I, [3]): edge-emission throughput
// of the partitioned stream over the pipeline facade. Compares the
// per-edge optional pull against the batched pull and the multi-threaded
// stream_parallel fan-out on a scale-20-equivalent product (≈2^20 product
// vertices), and writes the headline numbers to BENCH_generation.json so
// the perf trajectory is machine-readable across PRs.
#include <ctime>
#include <fstream>
#include <thread>

#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

/// Degree census that also records its worker thread's CPU seconds between
/// the first batch and do_finish(). Wall-clock eps on an oversubscribed box
/// measures the scheduler; CPU seconds per edge — windowed to the worker's
/// own consume loop, excluding flatten/spawn/join — measures what the
/// fan-out actually controls: per-item cost with no cross-worker
/// synchronization. This is the ROADMAP's parallel_scaling_efficiency
/// signal (>= 1.0 means no parallelization tax).
class TimedDegreeSink : public api::DegreeCensusSink {
 public:
  using api::DegreeCensusSink::DegreeCensusSink;

  [[nodiscard]] double cpu_seconds() const noexcept { return cpu_seconds_; }

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override {
    if (!started_) {
      start_ns_ = cpu_now_ns();
      started_ = true;
    }
    DegreeCensusSink::do_consume(batch);
  }
  void do_finish() override {
    if (started_) {
      cpu_seconds_ = static_cast<double>(cpu_now_ns() - start_ns_) * 1e-9;
    }
  }

 private:
  static std::uint64_t cpu_now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  bool started_ = false;
  std::uint64_t start_ns_ = 0;
  double cpu_seconds_ = 0;
};

struct GenerationNumbers {
  esz edges = 0;
  double per_edge_eps = 0;
  double batched_eps = 0;
  double batched_census_eps = 0;
  double parallel_eps = 0;
  double parallel_cpu_eps = 0;
  double run_plan_eps = 0;
  unsigned threads = 0;
  unsigned hardware_threads = 0;
  vid product_vertices = 0;
};

void write_json(const GenerationNumbers& n) {
  util::json::Value j = util::json::Value::object();
  j.set("bench", "generation");
  j.set("hardware_threads", std::thread::hardware_concurrency());
  j.set("product_vertices", n.product_vertices);
  j.set("stored_entries", n.edges);
  j.set("per_edge_eps", n.per_edge_eps);
  j.set("batched_eps", n.batched_eps);
  j.set("batched_speedup", n.batched_eps / n.per_edge_eps);
  j.set("batched_census_eps", n.batched_census_eps);
  j.set("parallel_eps", n.parallel_eps);
  j.set("parallel_threads", n.threads);
  j.set("parallel_vs_batched_census", n.parallel_eps / n.batched_census_eps);
  j.set("parallel_cpu_eps", n.parallel_cpu_eps);
  j.set("parallel_scaling_efficiency",
        n.parallel_cpu_eps / n.batched_census_eps);
  j.set("run_plan_stream_eps", n.run_plan_eps);
  j.set("metadata", util::run_metadata(api::kDefaultBatchSize));
  std::ofstream json("BENCH_generation.json");
  j.dump(json);
  json << "\n";
  std::cout << "\nwrote BENCH_generation.json (batched speedup "
            << util::human(n.batched_eps / n.per_edge_eps, 3)
            << "x; parallel vs 1-thread census "
            << util::human(n.parallel_eps / n.batched_census_eps, 3)
            << "x wall, " << util::human(
                   n.parallel_cpu_eps / n.batched_census_eps, 3)
            << "x per CPU-second";
  if (n.hardware_threads < n.threads) {
    std::cout << " — " << n.threads << " partitions share "
              << n.hardware_threads
              << " hardware thread(s), so wall eps is scheduler-bound";
  }
  std::cout << ")\n";
}

void print_artifact() {
  kt_bench::banner("E12 (generation contract)",
                   "per-edge vs batched vs parallel edge streaming");
  // Scale-20-equivalent product: a 1024-vertex scale-free factor squared
  // gives 2^20 product vertices and tens of millions of stored entries.
  const Graph a =
      api::GeneratorRegistry::builtin().build("hk:n=1024,m=3,p=0.6,seed=73");
  const Graph b = a;
  const kron::KronChain c({a, b});

  const double factor_bytes =
      static_cast<double>((a.nnz() + b.nnz()) * sizeof(vid) * 2);
  const double product_bytes = static_cast<double>(c.nnz()) *
                               static_cast<double>(sizeof(vid) * 2);
  std::cout << "C: " << util::human(static_cast<double>(c.num_vertices()))
            << " vertices, " << util::human(static_cast<double>(c.nnz()))
            << " stored entries; factored representation "
            << util::human(factor_bytes) << "B vs materialized "
            << util::human(product_bytes) << "B ("
            << util::human(product_bytes / factor_bytes) << "x compression)\n\n";

  GenerationNumbers numbers;
  numbers.product_vertices = c.num_vertices();
  numbers.threads = 4;
  numbers.hardware_threads = std::thread::hardware_concurrency();

  util::Table t({"mode", "partitions", "edges emitted", "time (s)",
                 "edges/s"});
  const auto record = [&](const char* name, std::uint64_t nparts, esz total,
                          double secs) {
    t.row({name, std::to_string(nparts), util::commas(total),
           std::to_string(secs),
           util::human(static_cast<double>(total) / secs)});
    return static_cast<double>(total) / secs;
  };

  // Flattened once, shared by every stream below — the fan-out no longer
  // re-flattens both factors per worker.
  const kron::FlatEdges fa(a), fb(b);

  {
    util::WallTimer timer;
    kron::EdgeStream stream(fa, fb);
    esz total = 0;
    vid acc = 0;
    while (auto e = stream.next()) {
      acc ^= e->u;
      ++total;
    }
    benchmark::DoNotOptimize(acc);
    numbers.edges = total;
    numbers.per_edge_eps = record("per-edge optional pull", 1, total,
                                  timer.seconds());
  }
  {
    util::WallTimer timer;
    kron::EdgeStream stream(fa, fb);
    std::vector<kron::EdgeRecord> batch(api::kDefaultBatchSize);
    esz total = 0;
    vid acc = 0;
    while (const std::size_t got = stream.next_batch(batch)) {
      for (std::size_t i = 0; i < got; ++i) acc ^= batch[i].u;
      total += got;
    }
    benchmark::DoNotOptimize(acc);
    numbers.batched_eps = record("batched pull", 1, total, timer.seconds());
  }
  {
    // Work-equal single-thread baseline for the fan-out: the same degree
    // census through the same sink machinery, one partition.
    util::WallTimer timer;
    api::DegreeCensusSink sink(c.num_vertices());
    const esz total = api::stream_into(fa, fb, sink);
    benchmark::DoNotOptimize(sink.degrees().data());
    numbers.batched_census_eps =
        record("batched pull + degree census", 1, total, timer.seconds());
  }
  {
    // Degree-census sinks: real per-edge work on every worker, merged
    // after. CPU seconds are windowed per worker (first batch → finish),
    // so parallel_cpu_eps excludes flatten/spawn/join and preserves the
    // >= 1.0 scaling-efficiency invariant.
    util::WallTimer timer;
    auto sinks = api::stream_parallel(
        fa, fb, numbers.threads, [&](std::uint64_t, std::uint64_t) {
          return std::make_unique<TimedDegreeSink>(c.num_vertices());
        });
    const double secs = timer.seconds();
    double cpu_secs = 0;
    for (const auto& s : sinks) {
      cpu_secs += static_cast<const TimedDegreeSink&>(*s).cpu_seconds();
    }
    auto& merged = static_cast<api::DegreeCensusSink&>(*sinks[0]);
    for (std::size_t i = 1; i < sinks.size(); ++i) {
      merged.merge(static_cast<const api::DegreeCensusSink&>(*sinks[i]));
    }
    benchmark::DoNotOptimize(merged.degrees().data());
    numbers.parallel_eps =
        record("stream_parallel + degree census", numbers.threads,
               merged.edges_consumed(), secs);
    numbers.parallel_cpu_eps =
        static_cast<double>(merged.edges_consumed()) / cpu_secs;
    t.row({"  (per CPU-second across workers)", std::to_string(numbers.threads),
           "", std::to_string(cpu_secs),
           util::human(numbers.parallel_cpu_eps)});
  }
  {
    // The same fan-out driven through the declarative job engine: ONE plan
    // whose degree analysis rides the tee'd stream pass. Wall time comes
    // from the report's stream stage; the TeeSink hop and per-partition
    // sink creation are part of what this row measures.
    api::RunPlan plan;
    plan.spec = api::GraphSpec::parse(
        "kron:(hk:n=1024,m=3,p=0.6,seed=73)x(hk:n=1024,m=3,p=0.6,seed=73)");
    plan.analyses.push_back(
        {"degree", {{"histogram", "0"}, {"measured", "1"}}});
    plan.options.threads = numbers.threads;
    const api::RunReport report = api::run(plan);
    double stream_wall = 0;
    for (const auto& st : report.stages) {
      if (st.name == "stream") stream_wall = st.wall_s;
    }
    numbers.run_plan_eps =
        record("run-plan stream + degree census", report.partitions,
               report.stored_entries, stream_wall);
  }
  t.print(std::cout);
  std::cout << "\npartitions only need the two factors — the distributed "
               "generation of [3] with ground truth attached.\n";
  write_json(numbers);
}

void bm_stream_per_edge(benchmark::State& state) {
  const Graph a = gen::holme_kim(1000, 3, 0.6, 79);
  const Graph b = a.with_all_self_loops();
  for (auto _ : state) {
    kron::EdgeStream stream(a, b);
    esz n = 0;
    while (stream.next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz() * b.nnz()));
}
BENCHMARK(bm_stream_per_edge)->Unit(benchmark::kMillisecond);

void bm_stream_batched(benchmark::State& state) {
  const Graph a = gen::holme_kim(1000, 3, 0.6, 79);
  const Graph b = a.with_all_self_loops();
  std::vector<kron::EdgeRecord> batch(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    kron::EdgeStream stream(a, b);
    esz n = 0;
    while (const std::size_t got = stream.next_batch(batch)) n += got;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz() * b.nnz()));
}
BENCHMARK(bm_stream_batched)->Arg(256)->Arg(8192)->Unit(benchmark::kMillisecond);

void bm_stream_annotated(benchmark::State& state) {
  const Graph a = gen::holme_kim(1000, 3, 0.6, 79);
  const Graph b = a.with_all_self_loops();
  const kron::TriangleOracle oracle(a, b);
  for (auto _ : state) {
    api::TriangleCensusSink sink(oracle);
    api::stream_into(a, b, sink);
    benchmark::DoNotOptimize(sink.triangle_sum());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz() * b.nnz()));
}
BENCHMARK(bm_stream_annotated)->Unit(benchmark::kMillisecond);

void bm_neighbor_expansion(benchmark::State& state) {
  const Graph a = gen::holme_kim(10000, 3, 0.6, 83);
  const kron::KronChain c({a, a});
  vid p = 1;
  for (auto _ : state) {
    const auto nb = c.neighbors(p % c.num_vertices());
    benchmark::DoNotOptimize(nb.size());
    p = p * 2654435761u + 11;
  }
}
BENCHMARK(bm_neighbor_expansion)->Unit(benchmark::kMicrosecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
