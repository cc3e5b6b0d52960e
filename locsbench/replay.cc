// In-process replay of a serving stream through the layers' public entry
// points, in the order locsd's Session calls them: FdTransport read,
// ParseRequest, GraphRegistry::Get + ResultCache::Lookup, admission,
// solver (with obs phases), ResultCache::Insert, FdTransport write. The
// session glue between those calls (cache-key build, reply render,
// solver rebind bookkeeping) is re-stated here and stays unattributed.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/multi.h"
#include "core/result.h"
#include "obs/recorder.h"
#include "runs.h"
#include "serve/admission.h"
#include "serve/registry.h"
#include "serve/result_cache.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "trace.h"

namespace locsbench {

namespace {

using locs::serve::AdmissionController;
using locs::serve::AdmissionTicket;
using locs::serve::GraphRegistry;
using locs::serve::Request;
using locs::serve::ServedGraph;
using locs::serve::Verb;

void AppendKv(std::string* out, const char* key, uint64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %s=%" PRIu64, key, value);
  *out += buffer;
}

/// locsd's query reply grammar (no trace= breakdown: the streams never
/// ask for one).
std::string RenderReply(const locs::SearchResult& result,
                        uint64_t member_limit) {
  const locs::Community& community = result.Best();
  std::string reply = "OK status=";
  reply += locs::TerminationName(result.status);
  AppendKv(&reply, "n", community.members.size());
  AppendKv(&reply, "delta", community.min_degree);
  AppendKv(&reply, "visited", result.telemetry.TotalVisited());
  reply += " members=";
  const size_t shown =
      member_limit == 0
          ? community.members.size()
          : std::min<size_t>(member_limit, community.members.size());
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) reply += ',';
    reply += std::to_string(community.members[i]);
  }
  if (shown < community.members.size()) {
    AppendKv(&reply, "truncated", community.members.size() - shown);
  }
  return reply;
}

/// locsd's result-cache key: epoch + verb + every option the rendered
/// reply depends on + the query vertices.
std::string CacheKey(uint64_t epoch, const Request& request) {
  std::string key = std::to_string(epoch);
  key += '|';
  key += locs::serve::VerbName(request.verb);
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "|%" PRIu32 "|%d|%.17g|%.17g|%" PRIu64 "|%" PRIu64 "|%d",
                request.k, request.multi_max ? 1 : 0, request.gamma,
                request.limits.deadline_ms, request.limits.work_budget,
                request.member_limit, request.trace ? 1 : 0);
  key += buffer;
  for (const locs::VertexId v : request.vertices) {
    key += '|';
    key += std::to_string(v);
  }
  return key;
}

/// Solvers bound to one registry snapshot, as a locsd session holds them.
struct Bound {
  std::shared_ptr<const ServedGraph> entry;
  locs::LocalCstSolver cst;
  locs::LocalCsmSolver csm;
  locs::LocalMultiSolver multi;

  Bound(std::shared_ptr<const ServedGraph> bound, locs::obs::Recorder* rec)
      : entry(std::move(bound)),
        cst(entry->graph, &entry->ordered, &entry->facts),
        csm(entry->graph, &entry->ordered, &entry->facts),
        multi(entry->graph, &entry->ordered, &entry->facts) {
    cst.set_recorder(rec);
    csm.set_recorder(rec);
    multi.set_recorder(rec);
  }
};

/// One pass of the replay: its own registry, cache, admission and
/// solvers, so both passes start from the same state.
class Pass {
 public:
  Pass(int cache_entries, bool traced)
      : cache_(cache_entries > 0 ? std::make_unique<locs::serve::ResultCache>(
                                       static_cast<size_t>(cache_entries))
                                 : nullptr),
        ledger_(traced ? std::make_unique<SpanLedger>() : nullptr) {
    recorder_ = traced ? static_cast<locs::obs::Recorder*>(&capture_)
                       : &aggregate_;
  }

  bool Load(const std::string& edge_path, double* load_ms,
            std::string* error) {
    locs::IoError io;
    bool full = false;
    const auto entry = registry_.Load(kGraphName, edge_path, &io, &full);
    if (entry == nullptr) {
      *error = "registry load failed: " + io.message;
      return false;
    }
    *load_ms = entry->load_ms + entry->build_ms;
    return true;
  }

  /// Everything between the server's read and its write of one request.
  std::string Handle(const std::string& line, uint64_t id, bool* is_query) {
    SpanLedger* l = ledger_.get();
    locs::serve::ParseResult parsed;
    {
      ScopedSpan span(l, "wire.parse", id);
      parsed = locs::serve::ParseRequest(line);
    }
    if (!parsed.ok()) {
      return locs::serve::FormatError(parsed.error, parsed.detail);
    }
    const Request& request = parsed.request;
    *is_query = request.verb == Verb::kCst || request.verb == Verb::kCsm ||
                request.verb == Verb::kMulti;
    if (request.verb == Verb::kLoadImg) return Reload(request, id);
    if (!*is_query) return "ERR unknown-verb replay handles queries only";

    if (cache_ != nullptr) {
      std::shared_ptr<const ServedGraph> entry;
      {
        ScopedSpan span(l, "registry.get", id);
        entry = registry_.Get(request.graph);
      }
      std::string reply;
      const std::string key = CacheKey(entry->epoch, request);
      bool hit = false;
      {
        ScopedSpan span(l, "result_cache.lookup", id);
        hit = cache_->Lookup(key, &reply);
      }
      if (hit) return reply;
    }
    std::optional<AdmissionTicket> ticket;
    {
      ScopedSpan span(l, "admission", id);
      ticket.emplace(admission_,
                     cache_ != nullptr
                         ? AdmissionController::WorkClass::kRetryable
                         : AdmissionController::WorkClass::kCritical);
    }
    if (!ticket->admitted()) {
      ++busy_;
      return locs::serve::FormatBusy(0, 0, ticket->retry_after_ms());
    }
    std::shared_ptr<const ServedGraph> entry;
    {
      ScopedSpan span(l, "registry.get", id);
      entry = registry_.Get(request.graph);
    }
    if (bound_ == nullptr || bound_->entry != entry) {
      ScopedSpan span(l, "core.bind", id);
      bound_ = std::make_unique<Bound>(std::move(entry), recorder_);
    }
    const locs::SearchResult result = Solve(request, id);
    std::string reply = RenderReply(result, request.member_limit);
    if (cache_ != nullptr && !result.Interrupted()) {
      const std::string key = CacheKey(bound_->entry->epoch, request);
      ScopedSpan span(l, "result_cache.insert", id);
      cache_->Insert(key, reply);
    }
    return reply;
  }

  SpanLedger* ledger() { return ledger_.get(); }
  const CoreCounters& counters() const { return counters_; }
  uint64_t busy() const { return busy_; }

 private:
  std::string Reload(const Request& request, uint64_t id) {
    locs::IoError io;
    bool full = false;
    std::shared_ptr<const ServedGraph> entry;
    {
      ScopedSpan span(ledger_.get(), "registry.load", id);
      entry = registry_.Load(request.graph, request.path, &io, &full,
                             GraphRegistry::LoadSource::kImage);
    }
    if (entry == nullptr) return "ERR io " + io.message;
    std::string reply = "OK graph=" + entry->name;
    AppendKv(&reply, "vertices", entry->graph.NumVertices());
    AppendKv(&reply, "edges", entry->graph.NumEdges());
    AppendKv(&reply, "degeneracy", entry->index.Degeneracy());
    reply += entry->from_image ? " source=image" : " source=text";
    AppendKv(&reply, "load_ms", static_cast<uint64_t>(entry->load_ms));
    AppendKv(&reply, "build_ms", static_cast<uint64_t>(entry->build_ms));
    return reply;
  }

  /// The solver dispatch of locsd's ExecQuery, including its CoreIndex
  /// non-existence shortcut.
  locs::SearchResult Solve(const Request& request, uint64_t id) {
    SpanLedger* l = ledger_.get();
    const locs::CoreIndex& index = bound_->entry->index;
    locs::QueryGuard guard(request.limits);
    bool possible = true;
    if (request.verb != Verb::kCsm) {
      ScopedSpan span(l, "core_index.has_cst", id);
      for (const locs::VertexId v : request.vertices) {
        if (!index.HasCst(v, request.k)) {
          possible = false;
          break;
        }
      }
    }
    if (!possible) return locs::SearchResult::MakeNotExists();
    const char* name = request.verb == Verb::kCst   ? "local_cst"
                       : request.verb == Verb::kCsm ? "local_csm"
                                                    : "multi";
    const int span = l != nullptr ? l->Begin(name, id) : -1;
    locs::SearchResult result;
    switch (request.verb) {
      case Verb::kCst:
        result = bound_->cst.Solve(request.vertices[0], request.k, {},
                                   nullptr, &guard);
        break;
      case Verb::kCsm: {
        locs::CsmOptions options;
        options.gamma = request.gamma;
        result = bound_->csm.Solve(request.vertices[0], options, nullptr,
                                   &guard);
        break;
      }
      default:
        result = bound_->multi.CstMulti(request.vertices, request.k,
                                        nullptr, &guard);
        break;
    }
    if (l != nullptr) {
      const uint64_t start = l->spans()[static_cast<size_t>(span)].start_ns;
      for (const locs::obs::QueryTelemetry& t : capture_.Take()) {
        counters_.Add(t);
        AddPhaseSpans(l, t, start, id);
      }
      l->End(span);
    }
    return result;
  }

  GraphRegistry registry_;
  AdmissionController admission_;
  std::unique_ptr<locs::serve::ResultCache> cache_;
  std::unique_ptr<SpanLedger> ledger_;
  CaptureRecorder capture_;
  locs::obs::AggregateRecorder aggregate_;
  locs::obs::Recorder* recorder_ = nullptr;
  std::unique_ptr<Bound> bound_;
  CoreCounters counters_;
  uint64_t busy_ = 0;
};

/// A pipe pair standing in for the socket: requests one way, replies
/// the other. Sized so the largest reply fits without a reader.
struct Pipes {
  int request[2] = {-1, -1};
  int reply[2] = {-1, -1};

  bool Open() {
    if (pipe2(request, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
      return false;
    }
    fcntl(request[1], F_SETPIPE_SZ, 1 << 20);
    return fcntl(reply[1], F_SETPIPE_SZ, 1 << 20) >= (1 << 20);
  }
  ~Pipes() {
    for (const int fd : {request[0], request[1], reply[0], reply[1]}) {
      if (fd >= 0) close(fd);
    }
  }
};

/// The client end of the reply pipe. FdTransport caps lines at the
/// request limit (64 KiB), which full member lists exceed, so replies are
/// read with a plain buffered reader, as a socket client would.
class ReplyReader {
 public:
  explicit ReplyReader(int fd) : fd_(fd) {}

  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[65536];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

struct PassResult {
  std::vector<double> round_trip_us;
  std::vector<std::string> first_replies;
  double reply_bytes = 0.0;
  uint64_t query_replies = 0;
  double load_ms = 0.0;
};

bool RunPass(const OracleGraph& graph, const ReplayPlan& plan, Pass* pass,
             PassResult* out, Report* report) {
  std::string error;
  if (!pass->Load(plan.edge_path, &out->load_ms, &error)) {
    report->Fail("replay: " + error);
    return false;
  }
  Pipes pipes;
  if (!pipes.Open()) {
    report->Fail("replay: cannot open 1 MiB pipes");
    return false;
  }
  locs::serve::FdTransport client(-1, pipes.request[1]);
  ReplyReader replies(pipes.reply[0]);
  locs::serve::FdTransport server(pipes.request[0], pipes.reply[1]);
  SpanLedger* l = pass->ledger();
  const Query reload = ReloadQuery(plan.image_path);
  std::vector<const Query*> sequence;
  for (size_t i = 0; i < plan.stream.size(); ++i) {
    if (plan.reload_every != 0 && i > 0 && i % plan.reload_every == 0) {
      sequence.push_back(&reload);
    }
    sequence.push_back(&plan.stream[i]);
  }
  for (uint64_t id = 0; id < sequence.size(); ++id) {
    const Query& query = *sequence[id];
    const bool is_reload = &query == &reload;
    const uint64_t t0 = NowNs();
    const int root = l != nullptr ? l->Begin("request", id) : -1;
    std::string line;
    std::string got;
    bool is_query = false;
    bool ok = true;
    {
      ScopedSpan span(l, "transport.send_request", id);
      ok = client.WriteLine(query.line);
    }
    {
      ScopedSpan span(l, "transport.read_request", id);
      ok = ok && server.ReadLine(&line) ==
                     locs::serve::Transport::ReadStatus::kLine;
    }
    const std::string reply = ok ? pass->Handle(line, id, &is_query) : "";
    {
      ScopedSpan span(l, "transport.write_reply", id);
      ok = ok && server.WriteLine(reply);
    }
    {
      ScopedSpan span(l, "transport.read_reply", id);
      ok = ok && replies.ReadLine(&got);
    }
    if (l != nullptr) l->End(root);
    out->round_trip_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++report->attempted;
    if (!ok) {
      report->Fail("replay: transport failed on '" + query.line + "'");
      return false;
    }
    const std::string problem = CheckReply(graph, query, got);
    if (!problem.empty()) report->Fail("replay: " + problem);
    if (is_query) {
      out->reply_bytes += static_cast<double>(got.size() + 1);
      ++out->query_replies;
    }
    if (out->first_replies.size() < plan.keep_replies && !is_reload) {
      out->first_replies.push_back(got);
    }
  }
  return true;
}

}  // namespace

bool RunServingReplay(const RunArgs& args, const OracleGraph& graph,
                      const ReplayPlan& plan,
                      std::vector<std::string>* first_replies,
                      Report* report) {
  // Untraced passes before and after the traced one, so drift in the
  // machine's speed does not read as tracing overhead.
  PassResult plain[2];
  PassResult traced;
  {
    Pass pass(plan.cache_entries, /*traced=*/false);
    if (!RunPass(graph, plan, &pass, &plain[0], report)) return false;
  }
  Pass pass(plan.cache_entries, /*traced=*/true);
  if (!RunPass(graph, plan, &pass, &traced, report)) return false;
  {
    Pass again(plan.cache_entries, /*traced=*/false);
    if (!RunPass(graph, plan, &again, &plain[1], report)) return false;
  }
  *first_replies = traced.first_replies;

  const SpanLedger& l = *pass.ledger();
  const std::string spans_path = args.work_dir + "/spans.jsonl";
  if (!l.WriteJsonl(spans_path)) report->Fail("cannot write " + spans_path);
  PrintSelfTimes(l, "request");
  report->Set("transport.write_us", Median(l.DurationsUs("transport.write_reply")),
              "us");
  report->Set("transport.reply_bytes",
              traced.query_replies == 0
                  ? 0.0
                  : traced.reply_bytes /
                        static_cast<double>(traced.query_replies),
              "bytes");
  report->Set("wire.parse_us", Median(l.DurationsUs("wire.parse")), "us");
  report->Set("result_cache.lookup_us",
              Median(l.DurationsUs("result_cache.lookup")), "us");
  report->Set("result_cache.insert_us",
              Median(l.DurationsUs("result_cache.insert")), "us");
  report->Set("registry.get_us", Median(l.DurationsUs("registry.get")),
              "us");
  report->Set("registry.load_ms", traced.load_ms, "ms");
  const std::vector<double> cst = l.DurationsUs("local_cst");
  const std::vector<double> csm = l.DurationsUs("local_csm");
  report->Set("local_cst.solve_us_p50", Percentile(cst, 0.5), "us");
  report->Set("local_cst.solve_us_p99", Percentile(cst, 0.99), "us");
  report->Set("local_csm.solve_us_p50", Percentile(csm, 0.5), "us");
  report->Set("local_csm.solve_us_p99", Percentile(csm, 0.99), "us");
  report->Set("multi.solve_us_p50", Median(l.DurationsUs("multi")), "us");
  pass.counters().SetMetrics(report);
  report->Set("trace.unattributed_frac", l.UnattributedFrac("request"),
              "ratio");
  const double plain_p50 =
      (Median(plain[0].round_trip_us) + Median(plain[1].round_trip_us)) / 2;
  report->Set("trace.overhead_frac",
              plain_p50 > 0.0
                  ? (Median(traced.round_trip_us) - plain_p50) / plain_p50
                  : 0.0,
              "ratio");
  if (pass.busy() != 0) {
    report->Fail("replay: " + std::to_string(pass.busy()) +
                 " requests refused by admission in a one-at-a-time replay");
  }
  return true;
}

}  // namespace locsbench
