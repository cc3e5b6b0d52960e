// Closed-loop micro-benchmark of the serving layer's stdio transport:
// in-process sessions over pipe pairs, exactly the locsd --stdio data
// path (FdTransport -> wire parse -> registry -> bound solvers), minus
// process startup. Each client thread issues CST queries in lockstep
// (write one request, block for the reply) against a cached LFR dataset,
// so the measured quantity is serving throughput and round-trip latency,
// not load time.
//
// The sweep runs 1 vs N concurrent sessions (sessions are the serving
// layer's unit of concurrency; the shared registry is read-only, so
// throughput should scale until the machine runs out of cores). Results
// go to stdout as a table and to BENCH_serve.json via the standard
// reporting schema.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "exec/executor.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/result_cache.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs::bench {
namespace {

constexpr uint32_t kQueryK = 6;

/// Dataset cache tag of the served graph. The cache stores it as a graph
/// image, so LOAD maps CachePath(kGraphTag) instead of rebuilding the
/// index.
constexpr char kGraphTag[] = "micro_serve_20k";

/// The served graph: a 20k-vertex LFR component, generated on first use.
Graph MicroServeGraph() {
  gen::LfrParams params;
  params.n = 20000;
  params.min_degree = 5;
  params.max_degree = 80;
  params.min_community = 20;
  params.max_community = 150;
  params.mu = 0.1;
  params.seed = 808;
  return CachedLfrComponent(params, kGraphTag);
}

/// Queries per session; LOCS_BENCH_SCALE multiplies it.
size_t QueriesPerSession() {
  size_t queries = 2000;
  if (const char* scale = std::getenv("LOCS_BENCH_SCALE")) {
    const double factor = std::atof(scale);
    if (factor > 0) {
      queries = static_cast<size_t>(static_cast<double>(queries) * factor);
    }
  }
  return queries;
}

struct SweepPoint {
  unsigned sessions = 0;
  size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Server-side per-query latency p50 from the metrics histogram: on
  /// the cache-hit path this is the lookup cost alone (no solver run),
  /// which the histogram reports as 0 (sub-microsecond bucket).
  uint64_t server_p50_us = 0;
};

/// One closed-loop client driving one session; returns per-query
/// round-trip latencies in microseconds. `pool` < n restricts queries
/// to the first `pool` vertex ids — the repeat-heavy workload whose
/// working set a result cache absorbs (0 = sample the whole graph).
std::vector<double> RunClient(serve::Transport& transport, uint32_t n,
                              size_t queries, uint64_t seed,
                              uint32_t pool) {
  const uint32_t range = pool == 0 ? n : std::min(pool, n);
  std::vector<double> latencies;
  latencies.reserve(queries);
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  std::string reply;
  for (size_t q = 0; q < queries; ++q) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t vertex = static_cast<uint32_t>((state >> 33) % range);
    const std::string request =
        "CST g " + std::to_string(vertex) + " " + std::to_string(kQueryK) +
        " limit=1";
    WallTimer timer;
    if (!transport.WriteLine(request) ||
        transport.ReadLine(&reply) != serve::Transport::ReadStatus::kLine) {
      std::fprintf(stderr, "client: session died mid-loop\n");
      std::exit(1);
    }
    latencies.push_back(timer.Micros());
  }
  transport.WriteLine("QUIT");
  transport.ReadLine(&reply);
  return latencies;
}

SweepPoint RunSweepPoint(serve::GraphRegistry& registry, Executor& executor,
                         unsigned sessions, uint32_t n, size_t queries,
                         serve::ResultCache* cache = nullptr,
                         uint32_t pool = 0) {
  serve::AdmissionController::Options admit;
  admit.max_inflight = sessions;  // admission off the critical path
  serve::AdmissionController admission(admit);
  serve::ServerMetrics metrics;
  serve::SessionOptions options;
  options.cache = cache;

  struct Wiring {
    int to_server[2];
    int to_client[2];
  };
  std::vector<Wiring> wires(sessions);
  for (Wiring& w : wires) {
    if (::pipe(w.to_server) != 0 || ::pipe(w.to_client) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
  }
  // Server half: one detached session task per pipe pair, the locsd
  // shape. The transports own their fds and close them on session end.
  for (unsigned s = 0; s < sessions; ++s) {
    const int read_fd = wires[s].to_server[0];
    const int write_fd = wires[s].to_client[1];
    const bool submitted = executor.Submit([&, read_fd, write_fd] {
      serve::FdTransport transport(read_fd, write_fd, /*owns_fds=*/true);
      serve::Session session(transport, registry, admission, metrics,
                             options);
      session.Run();
    });
    if (!submitted) {
      std::fprintf(stderr, "executor rejected session task\n");
      std::exit(1);
    }
  }

  // Client half: closed loops, one thread per session.
  std::vector<std::vector<double>> latencies(sessions);
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      serve::FdTransport transport(wires[s].to_client[0],
                                   wires[s].to_server[1],
                                   /*owns_fds=*/true);
      latencies[s] = RunClient(transport, n, queries, s + 1, pool);
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = wall.Millis();
  while (executor.active_tasks() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<double> all;
  all.reserve(sessions * queries);
  for (const auto& per_session : latencies) {
    all.insert(all.end(), per_session.begin(), per_session.end());
  }
  std::sort(all.begin(), all.end());
  double sum = 0.0;
  for (const double us : all) sum += us;

  SweepPoint point;
  point.sessions = sessions;
  point.queries = all.size();
  point.wall_ms = wall_ms;
  point.qps = static_cast<double>(all.size()) / (wall_ms / 1000.0);
  point.mean_us = sum / static_cast<double>(all.size());
  point.p50_us = all[all.size() / 2];
  point.p95_us = all[(all.size() * 95) / 100];
  const serve::MetricsSnapshot snap = metrics.Snapshot();
  point.cache_hits = snap.cache_hits;
  point.cache_misses = snap.cache_misses;
  point.server_p50_us = snap.LatencyPercentileUs(0.50);
  return point;
}

/// --port mode: the same closed loops, but against an external locsd
/// over TCP through the self-healing RetryClient. Each client thread
/// owns one RetryClient with a generous retry budget, so the run
/// survives a daemon kill+restart mid-loop — the recovery stats in the
/// output show what it cost. Exit is nonzero only when a request
/// ultimately failed after exhausting its attempts.
int TcpMain(uint16_t port, unsigned sessions, size_t queries) {
  const uint32_t n = MicroServeGraph().NumVertices();
  const std::string path = CachePath(kGraphTag);

  const auto make_options = [port](uint64_t seed) {
    serve::RetryClientOptions options;
    options.port = port;
    options.max_attempts = 64;
    options.request_deadline_ms = 30000;
    options.backoff_base_ms = 10;
    options.backoff_cap_ms = 1000;
    options.breaker_threshold = 4;
    options.breaker_cooldown_ms = 200;
    options.jitter_seed = seed;
    return options;
  };
  // Register the dataset over the wire (idempotent across runs and
  // across a daemon restart mid-run: any thread's retry re-LOADs only
  // if its own request path needs the connection re-established, and a
  // LOAD of an already-registered name refreshes it).
  {
    serve::RetryClient loader(make_options(0));
    std::string reply;
    if (!loader.Request("LOAD g " + path, &reply) ||
        reply.compare(0, 2, "OK") != 0) {
      std::fprintf(stderr, "LOAD failed: %s\n", reply.c_str());
      return 1;
    }
  }

  struct ThreadOutcome {
    size_t ok = 0;
    size_t failed = 0;
    serve::RetryClient::Stats stats;
  };
  std::vector<ThreadOutcome> outcomes(sessions);
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      serve::RetryClient client(make_options(s + 1));
      uint64_t state = (s + 1) * 0x9e3779b97f4a7c15ULL + 1;
      std::string reply;
      for (size_t q = 0; q < queries; ++q) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t vertex = static_cast<uint32_t>((state >> 33) % n);
        const std::string request = "CST g " + std::to_string(vertex) +
                                    " " + std::to_string(kQueryK) +
                                    " limit=1";
        if (client.Request(request, &reply) &&
            reply.compare(0, 2, "OK") == 0) {
          ++outcomes[s].ok;
        } else {
          ++outcomes[s].failed;
        }
      }
      outcomes[s].stats = client.stats();
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = wall.Millis();

  ThreadOutcome total;
  for (const ThreadOutcome& o : outcomes) {
    total.ok += o.ok;
    total.failed += o.failed;
    total.stats.connects += o.stats.connects;
    total.stats.retries += o.stats.retries;
    total.stats.busy_honored += o.stats.busy_honored;
    total.stats.breaker_opens += o.stats.breaker_opens;
    total.stats.probes += o.stats.probes;
  }
  TableWriter table({"sessions", "ok", "failed", "wall ms", "qps",
                     "connects", "retries", "busy", "breaker", "probes"});
  table.Row()
      .Num(uint64_t{sessions})
      .Num(uint64_t{total.ok})
      .Num(uint64_t{total.failed})
      .Num(wall_ms, 1)
      .Num(static_cast<double>(total.ok + total.failed) /
               (wall_ms / 1000.0),
           0)
      .Num(total.stats.connects)
      .Num(total.stats.retries)
      .Num(total.stats.busy_honored)
      .Num(total.stats.breaker_opens)
      .Num(total.stats.probes);
  table.Print();
  if (total.failed != 0) {
    std::fprintf(stderr, "%zu requests failed after retries\n",
                 total.failed);
    return 1;
  }
  return 0;
}

int Main() {
  PrintBanner(
      "micro_serve: closed-loop stdio-transport serving throughput",
      "not in the paper — service-layer economics of PR 4 (locsd)",
      "qps grows with sessions until cores saturate; p95 stays bounded");

  const uint32_t n = MicroServeGraph().NumVertices();
  const std::string path = CachePath(kGraphTag);

  serve::GraphRegistry registry;
  IoError io_error;
  bool full = false;
  if (registry.Load("g", path, &io_error, &full) == nullptr) {
    std::fprintf(stderr, "registry load failed: %s\n",
                 io_error.message.c_str());
    return 1;
  }

  const size_t queries = QueriesPerSession();
  const std::vector<unsigned> session_counts = {1, 2, 4};
  const unsigned max_sessions =
      *std::max_element(session_counts.begin(), session_counts.end());
  Executor executor(max_sessions + 1);

  JsonReport report("serve_stdio_closed_loop");
  report.Meta("graph", "lfr_micro_serve_20k");
  report.Meta("vertices", std::to_string(n));
  report.Meta("k", std::to_string(kQueryK));
  report.Meta("queries_per_session", std::to_string(queries));

  TableWriter table({"sessions", "queries", "wall ms", "qps", "mean us",
                     "p50 us", "p95 us"});
  for (const unsigned sessions : session_counts) {
    const SweepPoint p =
        RunSweepPoint(registry, executor, sessions, n, queries);
    table.Row()
        .Num(uint64_t{p.sessions})
        .Num(uint64_t{p.queries})
        .Num(p.wall_ms, 1)
        .Num(p.qps, 0)
        .Num(p.mean_us, 1)
        .Num(p.p50_us, 1)
        .Num(p.p95_us, 1);
    report.AddRow()
        .Num("sessions", p.sessions)
        .Num("queries", static_cast<double>(p.queries))
        .Num("wall_ms", p.wall_ms)
        .Num("qps", p.qps)
        .Num("mean_us", p.mean_us)
        .Num("p50_us", p.p50_us)
        .Num("p95_us", p.p95_us);
  }
  table.Print();

  // Cache-hit path: the same closed loops over a 64-vertex hot set with
  // the server-wide result cache enabled. After the first lap over the
  // pool every query is a hit — no solver run, no admission ticket —
  // so round-trip collapses to pipe transit + LRU lookup and the
  // server-side per-query latency p50 drops into the sub-microsecond
  // histogram bucket (reported as 0).
  constexpr uint32_t kHotPool = 64;
  std::printf("\nrepeat-heavy hot set (%u vertices), result cache on\n",
              kHotPool);
  report.Meta("hot_pool", std::to_string(kHotPool));
  TableWriter cached_table({"sessions", "queries", "qps", "mean us",
                            "p50 us", "hit rate", "server p50 us"});
  for (const unsigned sessions : session_counts) {
    serve::ResultCache cache(1024);
    const SweepPoint p = RunSweepPoint(registry, executor, sessions, n,
                                       queries, &cache, kHotPool);
    const double hit_rate =
        static_cast<double>(p.cache_hits) /
        static_cast<double>(std::max<uint64_t>(
            p.cache_hits + p.cache_misses, 1));
    cached_table.Row()
        .Num(uint64_t{p.sessions})
        .Num(uint64_t{p.queries})
        .Num(p.qps, 0)
        .Num(p.mean_us, 1)
        .Num(p.p50_us, 1)
        .Num(hit_rate, 3)
        .Num(p.server_p50_us);
    report.AddRow()
        .Str("row", "cached")
        .Num("sessions", p.sessions)
        .Num("queries", static_cast<double>(p.queries))
        .Num("wall_ms", p.wall_ms)
        .Num("qps", p.qps)
        .Num("mean_us", p.mean_us)
        .Num("p50_us", p.p50_us)
        .Num("p95_us", p.p95_us)
        .Num("cache_hits", static_cast<double>(p.cache_hits))
        .Num("cache_misses", static_cast<double>(p.cache_misses))
        .Num("cache_hit_rate", hit_rate)
        .Num("server_p50_us", static_cast<double>(p.server_p50_us));
  }
  cached_table.Print();

  const std::string out = "BENCH_serve.json";
  if (!report.Write(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) {
  const locs::CommandLine cli(argc, argv);
  const int64_t port = cli.GetInt("port", -1);
  if (port > 0 && port <= 65535) {
    // External-daemon mode: closed loops over TCP via the RetryClient,
    // built to ride through a daemon kill+restart mid-run.
    return locs::bench::TcpMain(
        static_cast<uint16_t>(port),
        static_cast<unsigned>(cli.GetInt("sessions", 4)),
        static_cast<size_t>(cli.GetInt("queries", 2000)));
  }
  return locs::bench::Main();
}
