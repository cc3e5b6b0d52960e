// Serving workloads: a real locsd over loopback TCP, driven by a single
// load-generator thread multiplexing its connections with ppoll.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>

#include "daemon.h"
#include "runs.h"
#include "trace.h"

namespace locsbench {

namespace {

constexpr int kSetupReps = 5;
/// Paced-phase floor: at least ten samples beyond the reported p99.
constexpr size_t kMinPacedSamples = kTailBlock;
/// Replies compared byte for byte between locsd and the in-process replay.
constexpr size_t kCompareReplies = 32;
/// The generator sleeps until this long before its next expected event,
/// then spins: a wake-up on a virtual machine costs hundreds of
/// microseconds, which matters at hot_cached's rate, while spinning
/// through cst_uniform's and mixed_reload's longer gaps would only take a
/// core from the daemon.
constexpr uint64_t kSpinNs = 1'000'000;
/// Requests each closed-loop connection keeps outstanding. With two, the
/// daemon's session always has the next request queued when it finishes
/// one, so throughput does not depend on how fast the generator wakes up
/// to a reply, and the generator can block instead of spinning.
constexpr size_t kClosedDepth = 2;
/// Closed-loop completions are counted per window of this length and the
/// median window is reported: on a shared machine a burst of outside load
/// can halve throughput for seconds, and the median keeps it to the
/// windows it hit.
constexpr uint64_t kWindowNs = 500'000'000ull;
/// The measured part of an untraced run alternates this many times
/// between a paced and a closed-loop segment, so that both phases sample
/// the machine across the whole run rather than one stretch of it each:
/// outside load on a shared machine drifts over tens of seconds.
constexpr size_t kSegments = 5;
/// Give up on a phase when no reply arrived for this long.
constexpr uint64_t kStallNs = 30'000'000'000ull;

/// Fixed replay lengths: the traced counts must not depend on timing.
size_t ReplayLength(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCstUniform:
      return 500;
    case WorkloadKind::kHotCached:
      return 3000;
    case WorkloadKind::kMixedReload:
      return 480;
    case WorkloadKind::kBatchKcore:
      break;
  }
  return 0;
}

struct InFlight {
  const Query* query;
  uint64_t due_ns;
};

struct Lane {
  Connection* conn = nullptr;
  std::deque<InFlight> fifo;
};

/// One load-generator thread driving up to two query connections and an
/// optional reload connection.
class LoadGenerator {
 public:
  /// `reload_conn` (optional) carries `reload`: every `reload_every`
  /// requests of the paced schedule, and every kReloadPeriodS of the
  /// closed loop.
  LoadGenerator(const OracleGraph& graph, Report* report, Connection* q0,
                Connection* q1, Connection* reload_conn,
                const Query* reload, size_t reload_every)
      : graph_(graph),
        report_(report),
        reload_query_(reload),
        reload_every_(reload_every) {
    lanes_[0].conn = q0;
    lanes_[1].conn = q1;
    reload_.conn = reload_conn;
  }

  /// Open loop over requests [begin, end) of `stream`: request i is due
  /// due[i] - due[begin - 1] after the phase starts, on lane i % 2.
  /// Latency is measured from the due instant.
  bool Paced(const std::vector<Query>& stream,
             const std::vector<uint64_t>& due, size_t begin, size_t end,
             std::vector<double>* latency_ms, std::vector<double>* late_ms) {
    const uint64_t start =
        NowNs() + 1'000'000 - (begin > 0 ? due[begin - 1] : 0);
    auto due_at = [&](size_t i) { return start + due[i]; };
    size_t next = begin;
    while (next < end || Outstanding()) {
      uint64_t now = NowNs();
      while (next < end && due_at(next) <= now) {
        // Reloads are part of the schedule: one per reload period's worth
        // of requests, so the cache is emptied at the same points of the
        // stream on every run (and in the in-process replay).
        if (reload_.conn != nullptr && next > 0 &&
            next % reload_every_ == 0 && reload_.fifo.empty() &&
            !Send(&reload_, reload_query_, due_at(next))) {
          return false;
        }
        Lane& lane = lanes_[next % 2];
        if (!Send(&lane, &stream[next], due_at(next))) return false;
        late_ms->push_back(static_cast<double>(now - due_at(next)) / 1e6);
        ++next;
        now = NowNs();
      }
      const uint64_t wake = next < end ? due_at(next) : now + 10'000'000;
      if (!Wait(wake, [&](const InFlight& f, uint64_t t) {
            latency_ms->push_back(static_cast<double>(t - f.due_ns) / 1e6);
          })) {
        return false;
      }
    }
    return true;
  }

  /// Closed loop: each lane keeps kClosedDepth requests (cycling through
  /// `pool`) outstanding, sending the next when a reply arrives, for
  /// `seconds`. Appends the completions of each kWindowNs window.
  bool Closed(const std::vector<Query>& pool, double seconds,
              std::vector<double>* per_window) {
    const uint64_t start = NowNs();
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(seconds * 1e9 / static_cast<double>(kWindowNs)));
    const uint64_t end = start + windows * kWindowNs;
    const size_t first_window = per_window->size();
    next_reload_ = start + static_cast<uint64_t>(kReloadPeriodS * 1e9);
    per_window->resize(first_window + windows, 0.0);
    size_t& next = pool_next_;
    while (true) {
      const uint64_t now = NowNs();
      uint64_t wake = end;
      if (now < end) {
        for (Lane& lane : lanes_) {
          while (lane.fifo.size() < kClosedDepth) {
            if (!Send(&lane, &pool[next % pool.size()], now)) return false;
            ++next;
          }
        }
        if (!MaybeReload(now)) return false;
        if (reload_.conn != nullptr) wake = std::min(wake, next_reload_);
      } else if (!Outstanding()) {
        break;
      } else {
        wake = now + 10'000'000;  // draining: block until replies land
      }
      if (!Wait(wake, [&](const InFlight&, uint64_t t) {
            if (t < end) {
              (*per_window)[first_window + (t - start) / kWindowNs] += 1.0;
            }
          })) {
        return false;
      }
    }
    return true;
  }

  uint64_t queries_sent() const { return queries_sent_; }

 private:
  template <typename OnReply>
  bool Wait(uint64_t wake_ns, OnReply on_reply) {
    pollfd fds[3];
    Lane* owners[3];
    nfds_t n = 0;
    for (Lane* lane : {&lanes_[0], &lanes_[1], &reload_}) {
      if (lane->conn != nullptr && !lane->fifo.empty()) {
        fds[n] = {lane->conn->fd(), POLLIN, 0};
        owners[n++] = lane;
      }
    }
    const uint64_t now = NowNs();
    const uint64_t wait_ns = wake_ns > now ? wake_ns - now : 0;
    const uint64_t sleep_ns = wait_ns > kSpinNs ? wait_ns - kSpinNs : 0;
    const timespec ts{static_cast<time_t>(sleep_ns / 1000000000ull),
                      static_cast<long>(sleep_ns % 1000000000ull)};
    const int ready = ppoll(fds, n, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      report_->Fail("load generator: ppoll failed");
      return false;
    }
    const uint64_t t = NowNs();
    if (ready <= 0) {
      if (n > 0 && t - last_progress_ > kStallNs) {
        for (nfds_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < owners[i]->fifo.size(); ++j) {
            report_->Fail("no reply to '" + owners[i]->fifo[j].query->line +
                          "' within 30 s");
          }
        }
        return false;
      }
      return true;
    }
    last_progress_ = t;
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Lane* lane = owners[i];
      const bool alive = lane->conn->Pull();
      std::string line;
      while (lane->conn->PopLine(&line)) {
        if (lane->fifo.empty()) {
          report_->Fail("unsolicited reply '" + line.substr(0, 80) + "'");
          return false;
        }
        const InFlight f = lane->fifo.front();
        lane->fifo.pop_front();
        const std::string problem = CheckReply(graph_, *f.query, line);
        if (!problem.empty()) report_->Fail(problem);
        if (lane != &reload_) on_reply(f, t);
      }
      if (!alive) {
        for (const InFlight& f : lane->fifo) {
          report_->Fail("connection closed before replying to '" +
                        f.query->line + "'");
        }
        return false;
      }
    }
    return true;
  }

  bool Send(Lane* lane, const Query* query, uint64_t due_ns) {
    ++report_->attempted;
    if (query->verb != QueryVerb::kLoadImg) ++queries_sent_;
    if (lane->fifo.empty()) last_progress_ = NowNs();
    if (!lane->conn->Send(query->line)) {
      report_->Fail("send failed for '" + query->line + "'");
      return false;
    }
    lane->fifo.push_back({query, due_ns});
    return true;
  }

  bool MaybeReload(uint64_t now) {
    if (reload_.conn == nullptr || now < next_reload_) return true;
    next_reload_ += static_cast<uint64_t>(kReloadPeriodS * 1e9);
    if (!reload_.fifo.empty()) return true;  // previous reload still busy
    return Send(&reload_, reload_query_, now);
  }

  bool Outstanding() const {
    return !lanes_[0].fifo.empty() || !lanes_[1].fifo.empty() ||
           !reload_.fifo.empty();
  }

  const OracleGraph& graph_;
  Report* report_;
  const Query* reload_query_;
  const size_t reload_every_;
  Lane lanes_[2];
  Lane reload_;
  uint64_t next_reload_ = 0;
  size_t pool_next_ = 0;
  uint64_t last_progress_ = 0;
  uint64_t queries_sent_ = 0;
};

/// The in-process replay of a workload: its warm-up plus a fixed-length
/// prefix of the paced stream, with mixed_reload's reloads every
/// paced_rate * kReloadPeriodS queries.
ReplayPlan MakeReplayPlan(const RunArgs& args, const OracleGraph& graph,
                          const std::string& image_path) {
  const WorkloadSpec& spec = *args.workload;
  ReplayPlan plan;
  plan.stream = WarmupStream(spec, graph, args.seed);
  const std::vector<Query> tail = MeasuredStream(
      spec, graph, args.seed, 1, ReplayLength(spec.kind));
  plan.stream.insert(plan.stream.end(), tail.begin(), tail.end());
  plan.reload_every = spec.kind == WorkloadKind::kMixedReload
                          ? static_cast<size_t>(spec.paced_rate *
                                                kReloadPeriodS)
                          : 0;
  plan.image_path = image_path;
  plan.edge_path = EdgeListPath(args);
  plan.cache_entries = spec.cache_entries;
  plan.keep_replies = kCompareReplies;
  return plan;
}

double Stat(const std::map<std::string, double>& stats, const char* key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0.0 : it->second;
}

}  // namespace

void RunServing(const RunArgs& args, const OracleGraph& graph,
                Report* report) {
  const WorkloadSpec& spec = *args.workload;
  const bool reloads = spec.kind == WorkloadKind::kMixedReload;
  const std::string edge_path = EdgeListPath(args);
  const std::string image_path = args.work_dir + "/serve.limg";
  const std::vector<std::string> flags = {
      "--cache-entries=" + std::to_string(spec.cache_entries)};
  // Tight timer slack, so the paced schedule is kept to the microsecond.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // Set-up, several times: spawn -> first LOAD reply (mixed_reload also
  // compiles the image first). The last daemon serves the workload.
  Daemon daemon;
  Connection c0, c1, c2;
  std::vector<double> setup_s;
  std::string load_reply;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    c0.Close();
    daemon.Stop();
    const uint64_t t0 = NowNs();
    if (reloads &&
        RunProcess({args.locs_cli, "compile", edge_path, image_path},
                   args.work_dir + "/compile.log") != 0) {
      report->Fail("locs_cli compile failed (see compile.log)");
      return;
    }
    if (!daemon.Start(args.locsd, args.work_dir, flags, &error) ||
        !c0.Connect(daemon.port(), &error)) {
      report->Fail("locsd set-up: " + error);
      return;
    }
    load_reply = c0.Request(std::string("LOAD ") + kGraphName + " " +
                            edge_path);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (load_reply.rfind("OK graph=", 0) != 0) {
      report->Fail("LOAD failed: '" + load_reply + "'");
      return;
    }
  }
  if (!c1.Connect(daemon.port(), &error) ||
      (reloads && !c2.Connect(daemon.port(), &error))) {
    report->Fail("connect: " + error);
    return;
  }
  std::printf("load reply: %s\n", load_reply.c_str());

  // Warm-up, one request at a time.
  uint64_t queries_sent = 0;
  for (const Query& q : WarmupStream(spec, graph, args.seed)) {
    ++report->attempted;
    ++queries_sent;
    const std::string problem = CheckReply(graph, q, c0.Request(q.line));
    if (!problem.empty()) report->Fail(problem);
  }
  const auto warm = ParseStats(c0.Request("STATS"));

  const double paced_s = args.seconds * (args.trace ? 0.25 : 0.5);
  const double closed_s = args.seconds * (args.trace ? 0.15 : 0.5);
  const size_t paced_n = std::max(
      static_cast<size_t>(spec.paced_rate * paced_s),
      args.trace ? size_t{100} : kMinPacedSamples);
  const std::vector<Query> paced =
      MeasuredStream(spec, graph, args.seed, 1, paced_n);
  const std::vector<uint64_t> due =
      PoissonSchedule(spec.paced_rate, paced_n, args.seed);
  const std::vector<Query> pool =
      MeasuredStream(spec, graph, args.seed, 2, 8192);
  const Query reload = ReloadQuery(image_path);

  LoadGenerator generator(
      graph, report, &c0, &c1, reloads ? &c2 : nullptr, &reload,
      static_cast<size_t>(spec.paced_rate * kReloadPeriodS));
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> per_window;
  const size_t segments = args.trace ? 1 : kSegments;
  const double cpu0 = daemon.CpuMicros();
  bool ran = true;
  for (size_t seg = 0; ran && seg < segments; ++seg) {
    ran = generator.Paced(paced, due, paced_n * seg / segments,
                          paced_n * (seg + 1) / segments, &latency_ms,
                          &late_ms) &&
          generator.Closed(pool, closed_s / static_cast<double>(segments),
                           &per_window);
  }
  const double cpu1 = daemon.CpuMicros();
  queries_sent += generator.queries_sent();
  const auto end = ParseStats(c0.Request("STATS"));
  const double rss_mb = PeakRssMb(daemon.pid());

  // Ledger: locsd's conservation identity, and its count against ours.
  const double attempted = Stat(end, "q_attempted");
  if (attempted != Stat(end, "q_completed") + Stat(end, "q_failed") +
                       Stat(end, "q_shed")) {
    report->ledger_ok = false;
    report->problems.push_back("STATS ledger: q_attempted != completed + "
                               "failed + shed");
  }
  if (ran && attempted != static_cast<double>(queries_sent)) {
    report->ledger_ok = false;
    report->problems.push_back(
        "STATS ledger: q_attempted=" + std::to_string(attempted) +
        " but the load generator sent " + std::to_string(queries_sent));
  }
  const double hits = Stat(end, "cache_hits") - Stat(warm, "cache_hits");
  const double lookups =
      hits + Stat(end, "cache_misses") - Stat(warm, "cache_misses");
  const double hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  if (spec.kind == WorkloadKind::kHotCached && hit_ratio < 0.99) {
    report->ledger_ok = false;
    report->problems.push_back("hot_cached post-warm-up hit ratio " +
                               std::to_string(hit_ratio) + " < 0.99");
  }

  // The in-process replay's first replies must equal locsd's.
  const std::string ledger_image = args.work_dir + "/ledger.limg";
  const ReplayPlan plan = MakeReplayPlan(args, graph, ledger_image);
  std::vector<std::string> locsd_replies;
  if (args.trace) {
    for (size_t i = 0; i < kCompareReplies && i < plan.stream.size(); ++i) {
      locsd_replies.push_back(c0.Request(plan.stream[i].line));
    }
  }
  c0.Close();
  c1.Close();
  c2.Close();
  const int status = daemon.Stop();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report->Fail("locsd did not drain cleanly on SIGTERM (status " +
                 std::to_string(status) + ")");
  }

  const double late_p99 = Percentile(late_ms, 0.99);
  size_t p99_blocks = 0;
  const double p99_ms = BlockedPercentile(latency_ms, 0.99, &p99_blocks);
  double closed_done = 0.0;
  for (const double count : per_window) closed_done += count;
  std::printf("closed-loop windows:");
  for (const double count : per_window) std::printf(" %.0f", count);
  std::printf("\n");
  const double peak_qps = Median(per_window) * 1e9 / kWindowNs;
  std::printf("paced phase: %zu requests at %.0f req/s over 2 connections "
              "(open loop, exponential arrivals) in %zu segments; generator "
              "late p99 %.3f ms\n",
              latency_ms.size(), spec.paced_rate, segments, late_p99);
  std::printf("closed phase: %.0f completions in %zu windows of %.1f s "
              "over 2 connections, %zu requests outstanding on each, in %zu "
              "segments\n",
              closed_done, per_window.size(), kWindowNs / 1e9, kClosedDepth,
              segments);
  std::printf("latency limit: p99 <= %.0f ms: %s (p99 %.3f ms)\n",
              spec.p99_limit_ms, p99_ms <= spec.p99_limit_ms ? "met" : "MISSED",
              p99_ms);
  std::printf("STATS: q_attempted=%.0f generator_sent=%llu cache hit ratio "
              "after warm-up %.4f (%.0f lookups) rejected=%.0f\n",
              attempted, static_cast<unsigned long long>(queries_sent),
              hit_ratio, lookups, Stat(end, "rejected"));

  if (!args.trace) {
    const size_t beyond = latency_ms.size() -
                          static_cast<size_t>(0.99 * latency_ms.size());
    std::printf("%-10s %12.6f s      median of %d set-ups\n", "setup_s",
                Median(setup_s), kSetupReps);
    std::printf("%-10s %12.6f ms     n=%zu paced\n", "p50_ms",
                Percentile(latency_ms, 0.5), latency_ms.size());
    std::printf("%-10s %12.6f ms     n=%zu paced, %zu at or beyond; median "
                "of %zu blocks' p99\n",
                "p99_ms", p99_ms, latency_ms.size(), beyond, p99_blocks);
    std::printf("%-10s %12.3f req/s  median of %zu windows, n=%.0f closed "
                "loop\n",
                "peak_qps", peak_qps, per_window.size(), closed_done);
    std::printf("%-10s %12.3f MiB    locsd VmHWM\n", "rss_mb", rss_mb);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("p50_ms", Percentile(latency_ms, 0.5), "ms");
    report->Set("p99_ms", p99_ms, "ms");
    report->Set("peak_qps", peak_qps, "req/s");
    report->Set("rss_mb", rss_mb, "MiB");
    return;
  }

  SeedPerLayerMetrics(report);
  report->Set("result_cache.hit_ratio", hit_ratio, "ratio");
  report->Set("result_cache.evictions",
              Stat(end, "cache_evictions") - Stat(warm, "cache_evictions"),
              "count");
  report->Set("admission.busy", Stat(end, "rejected"), "count");
  report->Set("server.solve_p50_us", Stat(end, "p50_us"), "us");
  report->Set("server.solve_p95_us", Stat(end, "p95_us"), "us");
  const double served = static_cast<double>(generator.queries_sent());
  report->Set("server.cpu_us_per_req",
              served > 0.0 ? (cpu1 - cpu0) / served : 0.0, "us");
  report->Set("driver.late_p99_ms", late_p99, "ms");

  if (!RunSetupLedger(edge_path, ledger_image, report)) return;
  std::vector<std::string> replayed;
  if (!RunServingReplay(args, graph, plan, &replayed, report)) return;
  for (size_t i = 0; i < locsd_replies.size() && i < replayed.size(); ++i) {
    if (locsd_replies[i] != replayed[i]) {
      report->Fail("replay reply " + std::to_string(i) +
                   " differs from locsd's: '" +
                   locsd_replies[i].substr(0, 80) + "' vs '" +
                   replayed[i].substr(0, 80) + "'");
    }
  }
}

void RunCounts(const RunArgs& args, const OracleGraph& graph,
               Report* report) {
  if (args.workload->kind == WorkloadKind::kBatchKcore) {
    RunArgs traced = args;
    traced.trace = true;
    RunBatch(traced, graph, report);
    return;
  }
  SeedPerLayerMetrics(report);
  const std::string image = args.work_dir + "/ledger.limg";
  if (!RunSetupLedger(EdgeListPath(args), image, report)) return;
  std::vector<std::string> replayed;
  RunServingReplay(args, graph, MakeReplayPlan(args, graph, image),
                   &replayed, report);
}

}  // namespace locsbench
