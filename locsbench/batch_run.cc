// batch_kcore: the paper's own methodology (§6.1.3) on dblp-sim through
// the exec layer's BatchRunner, in process.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/local_cst.h"
#include "exec/batch_runner.h"
#include "graph/io.h"
#include "graph/ordering.h"
#include "runs.h"
#include "serve/registry.h"
#include "trace.h"

namespace locsbench {

namespace {

constexpr int kSetupReps = 5;
constexpr unsigned kWorkers = 4;
constexpr size_t kBatchSize = 256;
constexpr size_t kPerClass = 1024;
/// Fixed single-query replay length of the traced run.
constexpr size_t kTracedQueries = 600;

/// What set-up builds: the graph and everything BatchRunner serves from.
struct Prepared {
  locs::Graph graph;
  locs::GraphFacts facts;
  locs::OrderedAdjacency ordered;
  locs::BatchRunner runner;

  explicit Prepared(locs::Graph loaded)
      : graph(std::move(loaded)),
        facts(locs::GraphFacts::Compute(graph)),
        ordered(graph),
        runner(graph, &ordered, &facts) {}
};

/// One query of the batch stream.
struct Item {
  uint32_t v;
  uint32_t k;  ///< 0 for CSM
  bool csm;
};

/// The four classes interleaved, so any prefix mixes them evenly.
std::vector<Item> Interleave(const BatchPlan& plan) {
  std::vector<Item> items;
  for (size_t i = 0; i < kPerClass; ++i) {
    for (int c = 0; c < 3; ++c) {
      if (i < plan.cst[c].size()) items.push_back({plan.cst[c][i], plan.ks[c], false});
    }
    if (i < plan.csm.size()) items.push_back({plan.csm[i], 0, true});
  }
  return items;
}

bool Contains(const locs::SearchResult& result, uint32_t v) {
  const auto& members = result.Best().members;
  return std::find(members.begin(), members.end(), v) != members.end();
}

void Check(const OracleGraph& graph, const Item& item,
           const locs::SearchResult& result, Report* report) {
  ++report->attempted;
  const std::string problem = CheckBatchAnswer(
      graph, item.v, item.k, item.csm,
      result.status == locs::Termination::kFound, result.Best().min_degree,
      Contains(result, item.v));
  if (!problem.empty()) report->Fail(problem);
}

/// One query through BatchRunner on a single worker.
locs::SearchResult RunOne(locs::BatchRunner& runner, const Item& item) {
  locs::BatchLimits limits;
  limits.num_threads = 1;
  if (item.csm) return runner.RunCsm({item.v}, {}, limits).results[0];
  return runner.RunCst({item.v}, item.k, {}, limits).results[0];
}

/// Batches of kBatchSize at kWorkers workers, cycling through the
/// classes, for `seconds`. Returns queries completed and summed wall.
void RunBatches(const OracleGraph& graph, const BatchPlan& plan,
                locs::BatchRunner& runner, double seconds, size_t min_batches,
                uint64_t* completed, double* wall_s,
                std::vector<double>* batch_ms, Report* report) {
  locs::BatchLimits limits;
  limits.num_threads = kWorkers;
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  size_t offset = 0;
  for (size_t b = 0; b < min_batches || NowNs() < end; ++b) {
    const int c = static_cast<int>(b % 4);
    const std::vector<uint32_t>& pool = c < 3 ? plan.cst[c] : plan.csm;
    if (pool.empty()) continue;
    std::vector<locs::VertexId> queries;
    for (size_t i = 0; i < kBatchSize; ++i) {
      queries.push_back(pool[(offset + i) % pool.size()]);
    }
    if (c == 3) offset += kBatchSize;
    const uint64_t t0 = NowNs();
    std::vector<locs::SearchResult> results =
        c < 3 ? runner.RunCst(queries, plan.ks[c], {}, limits).results
              : runner.RunCsm(queries, {}, limits).results;
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    batch_ms->push_back(ms);
    *wall_s += ms / 1e3;
    *completed += results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      Check(graph, {queries[i], c < 3 ? plan.ks[c] : 0, c == 3}, results[i],
            report);
    }
  }
}

/// Untraced then traced single-query replay of the stream's first
/// kTracedQueries; sets the core/exec per-layer metrics.
void TracedReplay(const RunArgs& args, const OracleGraph& graph,
                  const BatchPlan& plan, const std::vector<Item>& items,
                  Prepared* prepared,
                  Report* report) {
  const size_t n = std::min(kTracedQueries, items.size());
  // Untraced passes before and after the traced one, so drift in the
  // machine's speed does not read as tracing overhead.
  auto plain_pass = [&] {
    std::vector<double> us;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t t0 = NowNs();
      const locs::SearchResult result = RunOne(prepared->runner, items[i]);
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      Check(graph, items[i], result, report);
    }
    return Median(us);
  };
  const double plain_before = plain_pass();

  CaptureRecorder capture;
  prepared->runner.set_recorder(&capture);
  SpanLedger ledger;
  CoreCounters counters;
  std::vector<double> traced_us;
  for (uint64_t i = 0; i < n; ++i) {
    const Item& item = items[i];
    const int root = ledger.Begin("request", i);
    const int run = ledger.Begin("exec.run", i);
    const locs::SearchResult result = RunOne(prepared->runner, item);
    ledger.End(run);
    // The solver ran inside exec.run on a worker; obs gives its phase
    // durations, laid under a solver span starting with the call.
    const uint64_t start = ledger.spans()[static_cast<size_t>(run)].start_ns;
    for (const locs::obs::QueryTelemetry& t : capture.Take()) {
      counters.Add(t);
      const int solver =
          ledger.AddClosed(item.csm ? "local_csm" : "local_cst", start,
                           start + t.TotalDurationNs(), i, run);
      AddPhaseSpans(&ledger, t, start, i, solver);
    }
    ledger.End(root);
    const SpanLedger::Span& span = ledger.spans()[static_cast<size_t>(root)];
    traced_us.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                        1e3);
    Check(graph, item, result, report);
  }

  // Parallel batches, one per class: exec wall and how busy the workers
  // were (solver time over workers x wall).
  uint64_t completed = 0;
  double wall_s = 0.0;
  std::vector<double> batch_ms;
  RunBatches(graph, plan, prepared->runner, 0.0, 4, &completed, &wall_s,
             &batch_ms, report);
  double solver_ns = 0.0;
  for (const locs::obs::QueryTelemetry& t : capture.Take()) {
    solver_ns += static_cast<double>(t.TotalDurationNs());
  }
  prepared->runner.set_recorder(nullptr);
  const double plain_p50 = (plain_before + plain_pass()) / 2;

  const std::string spans_path = args.work_dir + "/spans.jsonl";
  if (!ledger.WriteJsonl(spans_path)) report->Fail("cannot write " + spans_path);
  PrintSelfTimes(ledger, "request");
  report->Set("local_cst.solve_us_p50",
              Percentile(ledger.DurationsUs("local_cst"), 0.5), "us");
  report->Set("local_cst.solve_us_p99",
              Percentile(ledger.DurationsUs("local_cst"), 0.99), "us");
  report->Set("local_csm.solve_us_p50",
              Percentile(ledger.DurationsUs("local_csm"), 0.5), "us");
  report->Set("local_csm.solve_us_p99",
              Percentile(ledger.DurationsUs("local_csm"), 0.99), "us");
  counters.SetMetrics(report);
  report->Set("exec.batch_wall_ms", Median(batch_ms), "ms");
  report->Set("exec.busy_frac",
              wall_s > 0.0 ? solver_ns / 1e9 / (kWorkers * wall_s) : 0.0,
              "ratio");
  report->Set("trace.unattributed_frac", ledger.UnattributedFrac("request"),
              "ratio");
  report->Set("trace.overhead_frac",
              plain_p50 > 0.0 ? (Median(traced_us) - plain_p50) / plain_p50
                              : 0.0,
              "ratio");
}

}  // namespace

void RunBatch(const RunArgs& args, const OracleGraph& graph,
              Report* report) {
  const std::string edge_path = EdgeListPath(args);
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> prepared;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepared.reset();
    const uint64_t t0 = NowNs();
    locs::IoError error;
    std::optional<locs::Graph> loaded = locs::LoadEdgeList(edge_path, &error);
    if (!loaded.has_value()) {
      report->Fail("cannot load " + edge_path + ": " + error.message);
      return;
    }
    prepared = std::make_unique<Prepared>(std::move(*loaded));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (prepared->graph.NumVertices() != graph.n() ||
      prepared->graph.NumEdges() != graph.m()) {
    report->Fail("loaded graph disagrees with the oracle's parse");
    return;
  }
  const BatchPlan plan = MakeBatchPlan(graph, args.seed, kPerClass);
  const std::vector<Item> items = Interleave(plan);
  std::printf("dblp-sim: %u vertices, %llu edges, degeneracy %u, s=%u, "
              "k={%u,%u,%u}\n",
              graph.n(), static_cast<unsigned long long>(graph.m()),
              graph.Degeneracy(), plan.s, plan.ks[0], plan.ks[1], plan.ks[2]);

  if (args.trace) {
    SeedPerLayerMetrics(report);
    if (!RunSetupLedger(edge_path, args.work_dir + "/ledger.limg", report)) {
      return;
    }
    locs::serve::GraphRegistry registry;
    locs::IoError io;
    bool full = false;
    const auto entry = registry.Load(kGraphName, edge_path, &io, &full);
    if (entry == nullptr) {
      report->Fail("registry load failed: " + io.message);
      return;
    }
    report->Set("registry.load_ms", entry->load_ms + entry->build_ms, "ms");
    TracedReplay(args, graph, plan, items, prepared.get(), report);
    return;
  }

  // Latency: one query at a time through the batch engine.
  std::vector<double> latency_ms;
  const uint64_t latency_end =
      NowNs() + static_cast<uint64_t>(0.6 * args.seconds * 1e9);
  for (size_t i = 0; latency_ms.size() < kTailBlock ||
                     NowNs() < latency_end;
       ++i) {
    const Item& item = items[i % items.size()];
    const uint64_t t0 = NowNs();
    const locs::SearchResult result = RunOne(prepared->runner, item);
    latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    Check(graph, item, result, report);
  }
  // Throughput: full batches at kWorkers workers.
  uint64_t completed = 0;
  double wall_s = 0.0;
  std::vector<double> batch_ms;
  RunBatches(graph, plan, prepared->runner, 0.4 * args.seconds, 8,
             &completed, &wall_s, &batch_ms, report);
  const double peak_qps =
      wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  const double rss_mb = PeakRssMb(0);

  const size_t beyond =
      latency_ms.size() - static_cast<size_t>(0.99 * latency_ms.size());
  size_t p99_blocks = 0;
  const double p99_ms = BlockedPercentile(latency_ms, 0.99, &p99_blocks);
  std::printf("%-10s %12.6f s      median of %d set-ups\n", "setup_s",
              Median(setup_s), kSetupReps);
  std::printf("%-10s %12.6f ms     n=%zu single queries, 1 worker\n",
              "p50_ms", Percentile(latency_ms, 0.5), latency_ms.size());
  std::printf("%-10s %12.6f ms     n=%zu, %zu at or beyond; median of %zu "
              "blocks' p99\n",
              "p99_ms", p99_ms, latency_ms.size(), beyond, p99_blocks);
  std::printf("%-10s %12.3f q/s    n=%llu in %zu batches of %zu, %u "
              "workers\n",
              "peak_qps", peak_qps, static_cast<unsigned long long>(completed),
              batch_ms.size(), kBatchSize, kWorkers);
  std::printf("%-10s %12.3f MiB    harness VmHWM\n", "rss_mb", rss_mb);
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("p50_ms", Percentile(latency_ms, 0.5), "ms");
  report->Set("p99_ms", p99_ms, "ms");
  report->Set("peak_qps", peak_qps, "req/s");
  report->Set("rss_mb", rss_mb, "MiB");
}

}  // namespace locsbench
