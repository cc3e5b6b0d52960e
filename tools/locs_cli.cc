// locs_cli — command-line front end for the locs library.
//
// Subcommands:
//   stats    --input=G                        graph statistics
//   cst      --input=G --vertex=V --k=K       community with δ >= K
//   csm      --input=G --vertex=V             best community
//   batch    --input=G --mode=cst|csm         batch queries on the
//            [--queries-file=F|--sample=N]    persistent executor
//   decompose --input=G [--top=N]             core decomposition summary
//   convert  --input=G --output=F             between edgelist/metis/image
//   compile  <input> <image>                  build a mmap-ready graph
//                                             image (src/store/)
//   generate --model=lfr|ba|gnp --output=F    synthetic graphs
//
// Graph files are read and written through store/graph_file.h: a file
// starting with the image magic is a graph image (any name); otherwise
// .limg is an image, .metis / .graph is METIS, and anything else is a
// whitespace edge list.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/kcore.h"
#include "core/searcher.h"
#include "exec/batch_runner.h"
#include "gen/barabasi.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/io.h"
#include "graph/statistics.h"
#include "graph/traversal.h"
#include "obs/trace_sink.h"
#include "serve/daemon.h"
#include "store/graph_file.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs {
namespace {

// Exit codes. 0 = success, 1 = generic usage/argument error, 2 = bad
// command line, 64 = unknown subcommand (distinct from `help`, so a
// script typo never parses as a successful usage request). Load failures
// and interrupted queries get distinct codes so scripts can branch
// without parsing stderr.
constexpr int kExitOpenError = 3;       // input file missing/unreadable
constexpr int kExitParseError = 4;      // input file malformed
constexpr int kExitTruncatedError = 5;  // input file short/truncated
constexpr int kExitDeadline = 10;       // query interrupted: deadline
constexpr int kExitBudget = 11;         // query interrupted: work budget
constexpr int kExitCancelled = 12;      // query interrupted: cancel flag
constexpr int kExitUnknownCommand = 64; // subcommand not recognized

int IoExitCode(IoErrorKind kind) {
  switch (kind) {
    case IoErrorKind::kOpen:
      return kExitOpenError;
    case IoErrorKind::kParse:
      return kExitParseError;
    case IoErrorKind::kTruncated:
      return kExitTruncatedError;
    case IoErrorKind::kNone:
      break;
  }
  return 1;
}

/// Prints a failed load or write of `path` ("line N" for text parse
/// errors) and returns the matching exit code.
int ReportIoError(const char* verb, const std::string& path,
                  const IoError& error) {
  std::fprintf(stderr, "error: could not %s '%s' (%s error): %s", verb,
               path.c_str(), std::string(IoErrorKindName(error.kind)).c_str(),
               error.message.c_str());
  if (error.line > 0) {
    std::fprintf(stderr, " (line %llu)",
                 static_cast<unsigned long long>(error.line));
  }
  std::fprintf(stderr, "\n");
  return IoExitCode(error.kind);
}

int StatusExitCode(Termination status) {
  switch (status) {
    case Termination::kDeadline:
      return kExitDeadline;
    case Termination::kBudgetExhausted:
      return kExitBudget;
    case Termination::kCancelled:
      return kExitCancelled;
    case Termination::kFound:
    case Termination::kNotExists:
      break;
  }
  return 0;
}

/// Per-query guard limits shared by cst/csm/batch.
QueryLimits GuardLimits(const CommandLine& cli) {
  QueryLimits limits;
  limits.deadline_ms = cli.GetDouble("query-deadline-ms", 0.0);
  limits.work_budget = static_cast<uint64_t>(cli.GetInt("work-budget", 0));
  return limits;
}

/// Opens --trace=<file> as a JSONL telemetry sink labelled with the
/// subcommand. Returns 0 with *out == nullptr when the flag is absent,
/// 0 with an open sink on success, kExitOpenError after printing an
/// error — an unopenable trace file is a hard failure, never a silent
/// untraced run.
int AttachTrace(const CommandLine& cli, const char* label,
                std::unique_ptr<obs::TraceSink>* out) {
  const std::string path = cli.GetString("trace", "");
  if (path.empty()) return 0;
  auto sink = std::make_unique<obs::TraceSink>(path);
  if (!sink->ok()) {
    std::fprintf(stderr, "error: could not open trace file '%s'\n",
                 path.c_str());
    return kExitOpenError;
  }
  sink->Annotate(label);
  *out = std::move(sink);
  return 0;
}

/// Prints up to --limit member ids (default 50; 0 = all).
void PrintMembers(const std::vector<VertexId>& members,
                  const CommandLine& cli) {
  const auto limit = static_cast<size_t>(cli.GetInt("limit", 50));
  const size_t shown =
      limit == 0 ? members.size() : std::min(limit, members.size());
  for (size_t i = 0; i < shown; ++i) std::printf("%u ", members[i]);
  if (shown < members.size()) {
    std::printf("... (%zu more; pass --limit=0 for all)",
                members.size() - shown);
  }
  std::printf("\n");
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: locs_cli <command> [--flags]\n"
      "  stats     --input=G\n"
      "  cst       --input=G --vertex=V --k=K [--global]\n"
      "            [--query-deadline-ms=D] [--work-budget=W]\n"
      "            [--trace=F]   per-query JSONL telemetry\n"
      "  csm       --input=G --vertex=V [--global]\n"
      "            [--query-deadline-ms=D] [--work-budget=W] [--trace=F]\n"
      "  batch     --input=G --mode=cst|csm [--k=K]\n"
      "            [--queries-file=F | --sample=N --seed=S]\n"
      "            [--threads=T] [--deadline-ms=D] [--show-results]\n"
      "            [--query-deadline-ms=D] [--work-budget=W] [--trace=F]\n"
      "  decompose --input=G [--top=10]\n"
      "  convert   --input=G --output=F\n"
      "  compile   <input> <image>   precompute + serialize a graph\n"
      "            image for mmap cold loads (also --input= --output=)\n"
      "  generate  --model=lfr|ba|gnp --n=N --output=F [--seed=S]\n"
      "            [--mu=0.1 --min-degree --max-degree --min-community\n"
      "             --max-community] [--m=3] [--p=0.01]\n"
      "  serve     (--stdio | --port=P) [flags]   resident query daemon\n"
      "  client    --port=P [--retries=N]         scripted TCP session\n"
      "            [--request-deadline-ms=D]      (N>0: self-healing\n"
      "                                            reconnect + backoff)\n"
      "exit codes: 0 ok, 3 open, 4 parse, 5 truncated,\n"
      "            10 deadline, 11 work-budget, 12 cancelled,\n"
      "            64 unknown command\n");
  return 2;
}

int CmdServe(const CommandLine& cli) {
  serve::DaemonOptions options;
  std::string error;
  if (!serve::ParseDaemonOptions(cli, &options, &error)) {
    std::fprintf(stderr, "error: %s\nserve flags:\n%s", error.c_str(),
                 serve::DaemonFlagHelp());
    return 2;
  }
  return serve::DaemonMain(options);
}

int CmdClient(const CommandLine& cli) {
  const int64_t port = cli.GetInt("port", -1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "error: client requires --port=P (1..65535)\n");
    return 2;
  }
  serve::RetryClientOptions options;
  options.port = static_cast<uint16_t>(port);
  // --retries=N grants N extra attempts per request (reconnect, backoff,
  // BUSY pacing); the default 0 keeps the historical die-on-first-error
  // lockstep semantics scripted tests rely on.
  options.max_attempts =
      1 + static_cast<unsigned>(cli.GetInt("retries", 0));
  options.request_deadline_ms =
      static_cast<uint64_t>(cli.GetInt("request-deadline-ms", 0));
  return serve::ClientMain(options);
}

/// Loads --input; on failure prints the IoError detail and stores the
/// matching exit code into *exit_code (left untouched on success).
std::optional<Graph> RequireGraph(const CommandLine& cli, int* exit_code) {
  const std::string input = cli.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr, "error: --input is required\n");
    *exit_code = 2;
    return std::nullopt;
  }
  WallTimer timer;
  IoError error;
  auto file = store::LoadGraphFile(input, &error);
  if (!file.has_value()) {
    *exit_code = ReportIoError("load", input, error);
    return std::nullopt;
  }
  std::fprintf(stderr, "loaded %s: %u vertices, %lu edges (%.0fms)\n",
               input.c_str(), file->graph.NumVertices(),
               static_cast<unsigned long>(file->graph.NumEdges()),
               timer.Millis());
  return std::move(file->graph);
}

int CmdStats(const CommandLine& cli) {
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const Components comps = ConnectedComponents(*graph);
  const CoreDecomposition cores = ComputeCores(*graph);
  TableWriter table({"metric", "value"});
  table.Row().Cell("vertices").Cell(FormatCount(graph->NumVertices()));
  table.Row().Cell("edges").Cell(FormatCount(graph->NumEdges()));
  table.Row().Cell("min degree").Num(uint64_t{graph->MinDegree()});
  table.Row().Cell("avg degree").Num(graph->AverageDegree(), 2);
  table.Row().Cell("max degree").Num(uint64_t{graph->MaxDegree()});
  table.Row().Cell("components").Num(uint64_t{comps.count});
  table.Row()
      .Cell("largest component")
      .Cell(FormatCount(comps.size[comps.LargestId()]));
  table.Row().Cell("degeneracy δ*(G)").Num(uint64_t{cores.degeneracy});
  table.Row()
      .Cell("avg clustering (sampled)")
      .Num(AverageClusteringCoefficient(*graph, 2000, 1), 4);
  if (graph->NumVertices() > 0) {
    table.Row()
        .Cell("approx diameter (largest comp)")
        .Num(uint64_t{ApproxDiameter(
            *graph, [&] {
              for (VertexId v = 0; v < graph->NumVertices(); ++v) {
                if (comps.label[v] == comps.LargestId()) return v;
              }
              return VertexId{0};
            }())});
  }
  table.Print();
  return 0;
}

int CmdCst(const CommandLine& cli) {
  int load_rc = 1;
  auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const auto v0 = static_cast<VertexId>(cli.GetInt("vertex", 0));
  const auto k = static_cast<uint32_t>(cli.GetInt("k", 1));
  if (v0 >= graph->NumVertices()) {
    std::fprintf(stderr, "error: vertex out of range\n");
    return 1;
  }
  CommunitySearcher searcher(std::move(*graph));
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "cst", &trace); rc != 0) return rc;
  if (trace != nullptr) searcher.set_recorder(trace.get());
  WallTimer timer;
  QueryStats stats;
  QueryGuard guard(GuardLimits(cli));
  const auto result = cli.GetBool("global", false)
                          ? searcher.CstGlobal(v0, k, &stats, &guard)
                          : searcher.Cst(v0, k, {}, &stats, &guard);
  const double ms = timer.Millis();
  if (result.Interrupted()) {
    std::printf("interrupted (%s): best so far %zu members, δ=%u "
                "(%.2fms, %lu visited)\n",
                std::string(TerminationName(result.status)).c_str(),
                result.best_so_far.members.size(),
                result.best_so_far.min_degree, ms,
                static_cast<unsigned long>(stats.visited_vertices));
    PrintMembers(result.best_so_far.members, cli);
    return StatusExitCode(result.status);
  }
  if (!result.has_value()) {
    std::printf("no community with min degree >= %u contains vertex %u "
                "(%.2fms, %lu vertices visited)\n",
                k, v0, ms,
                static_cast<unsigned long>(stats.visited_vertices));
    return 0;
  }
  std::printf("community: %zu members, δ=%u (%.2fms, %lu visited%s)\n",
              result->members.size(), result->min_degree, ms,
              static_cast<unsigned long>(stats.visited_vertices),
              stats.used_global_fallback ? ", fallback" : "");
  PrintMembers(result->members, cli);
  return 0;
}

int CmdCsm(const CommandLine& cli) {
  int load_rc = 1;
  auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const auto v0 = static_cast<VertexId>(cli.GetInt("vertex", 0));
  if (v0 >= graph->NumVertices()) {
    std::fprintf(stderr, "error: vertex out of range\n");
    return 1;
  }
  CommunitySearcher searcher(std::move(*graph));
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "csm", &trace); rc != 0) return rc;
  if (trace != nullptr) searcher.set_recorder(trace.get());
  WallTimer timer;
  QueryStats stats;
  QueryGuard guard(GuardLimits(cli));
  const auto result = cli.GetBool("global", false)
                          ? searcher.CsmGlobal(v0, &stats, &guard)
                          : searcher.Csm(v0, {}, &stats, &guard);
  const Community& community = result.Best();
  std::printf("%s community: %zu members, δ=%u (%.2fms, %lu visited)\n",
              result.Interrupted() ? "interrupted; best-so-far" : "best",
              community.members.size(), community.min_degree,
              timer.Millis(),
              static_cast<unsigned long>(stats.visited_vertices));
  PrintMembers(community.members, cli);
  return StatusExitCode(result.status);
}

/// Query vertices for `batch`: an explicit --queries-file (one vertex id
/// per line, '#' comments) or a seeded uniform --sample.
std::optional<std::vector<VertexId>> BatchQueries(const CommandLine& cli,
                                                  const Graph& graph) {
  std::vector<VertexId> queries;
  const std::string file = cli.GetString("queries-file", "");
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "error: could not read '%s'\n", file.c_str());
      return std::nullopt;
    }
    std::string token;
    while (in >> token) {
      if (token[0] == '#') {
        std::getline(in, token);
        continue;
      }
      const auto v = static_cast<uint64_t>(std::strtoull(
          token.c_str(), nullptr, 10));
      if (v >= graph.NumVertices()) {
        std::fprintf(stderr, "error: query vertex %llu out of range\n",
                     static_cast<unsigned long long>(v));
        return std::nullopt;
      }
      queries.push_back(static_cast<VertexId>(v));
    }
    return queries;
  }
  const auto count = static_cast<size_t>(cli.GetInt("sample", 1000));
  if (graph.NumVertices() == 0 || count == 0) return queries;
  Rng rng(static_cast<uint64_t>(cli.GetInt("seed", 1)));
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(
        static_cast<VertexId>(rng.Below(graph.NumVertices())));
  }
  return queries;
}

int CmdBatch(const CommandLine& cli) {
  int load_rc = 1;
  auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const std::string mode = cli.GetString("mode", "cst");
  if (mode != "cst" && mode != "csm") {
    std::fprintf(stderr, "error: --mode must be cst or csm\n");
    return 1;
  }
  const auto queries = BatchQueries(cli, *graph);
  if (!queries.has_value()) return 1;

  const GraphFacts facts = GraphFacts::Compute(*graph);
  const OrderedAdjacency ordered(*graph);
  BatchRunner runner(*graph, &ordered, &facts);
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "batch", &trace); rc != 0) return rc;
  if (trace != nullptr) runner.set_recorder(trace.get());
  BatchLimits limits;
  limits.num_threads =
      static_cast<unsigned>(cli.GetInt("threads", 0));
  limits.deadline_ms = cli.GetDouble("deadline-ms", 0.0);
  const QueryLimits per_query = GuardLimits(cli);
  limits.query_deadline_ms = per_query.deadline_ms;
  limits.query_work_budget = per_query.work_budget;

  BatchStats stats;
  std::vector<uint32_t> goodness(queries->size(), 0);
  if (mode == "cst") {
    const auto k = static_cast<uint32_t>(cli.GetInt("k", 3));
    auto result = runner.RunCst(*queries, k, {}, limits);
    stats = result.stats;
    for (size_t i = 0; i < result.results.size(); ++i) {
      goodness[i] = result.results[i].Best().min_degree;
    }
  } else {
    auto result = runner.RunCsm(*queries, {}, limits);
    stats = result.stats;
    for (size_t i = 0; i < result.results.size(); ++i) {
      goodness[i] = result.results[i].Best().min_degree;
    }
  }

  TableWriter table({"metric", "value"});
  table.Row().Cell("queries").Num(uint64_t{queries->size()});
  table.Row().Cell("completed").Num(stats.completed);
  table.Row().Cell("answered").Num(stats.answered);
  table.Row().Cell("visited vertices").Num(stats.visited_vertices);
  table.Row().Cell("scanned edges").Num(stats.scanned_edges);
  table.Row().Cell("global fallbacks").Num(stats.global_fallbacks);
  table.Row().Cell("batch wall ms").Num(stats.wall_ms, 2);
  if (stats.completed > 0 && stats.wall_ms > 0.0) {
    table.Row()
        .Cell("mean ms/query")
        .Num(stats.wall_ms / static_cast<double>(stats.completed), 4);
    table.Row()
        .Cell("throughput q/s")
        .Num(static_cast<double>(stats.completed) /
                 (stats.wall_ms / 1000.0),
             1);
  }
  for (int s = 0; s < kNumTerminations; ++s) {
    const auto status = static_cast<Termination>(s);
    if (stats.CountOf(status) == 0) continue;
    table.Row()
        .Cell(std::string("status ") +
              std::string(TerminationName(status)))
        .Num(stats.CountOf(status));
  }
  if (stats.deadline_hit) table.Row().Cell("deadline").Cell("hit");
  table.Print();

  if (cli.GetBool("show-results", false)) {
    for (size_t i = 0; i < stats.completed; ++i) {
      std::printf("%u %u\n", (*queries)[i], goodness[i]);
    }
  }
  // Per-status exit reporting: interrupted queries surface the dominant
  // interruption cause as the exit code (cancelled > deadline > budget).
  if (stats.CountOf(Termination::kCancelled) > 0) return kExitCancelled;
  if (stats.CountOf(Termination::kDeadline) > 0) return kExitDeadline;
  if (stats.CountOf(Termination::kBudgetExhausted) > 0) return kExitBudget;
  return 0;
}

int CmdDecompose(const CommandLine& cli) {
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const auto top = static_cast<size_t>(cli.GetInt("top", 10));
  WallTimer timer;
  const CoreDecomposition cores = ComputeCores(*graph);
  std::printf("core decomposition in %.0fms; degeneracy %u\n",
              timer.Millis(), cores.degeneracy);
  std::vector<uint64_t> shell(cores.degeneracy + 1, 0);
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    ++shell[cores.core[v]];
  }
  TableWriter table({"k-shell", "vertices"});
  const size_t first =
      shell.size() > top ? shell.size() - top : size_t{0};
  for (size_t k = first; k < shell.size(); ++k) {
    table.Row().Num(static_cast<uint64_t>(k)).Num(shell[k]);
  }
  table.Print();
  return 0;
}

int CmdConvert(const CommandLine& cli) {
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const std::string output = cli.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  if (!store::SaveGraphFile(*graph, output)) {
    std::fprintf(stderr, "error: could not write '%s'\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

/// `compile <input> <image>` — parse once, precompute everything the
/// serving layer needs (facts, degree ordering, core index), and
/// serialize it as a mmap-ready graph image. Takes positional arguments
/// (and --input=/--output= as an alternative spelling), so it parses
/// argv directly instead of going through CommandLine.
int CmdCompile(int argc, char** argv) {
  std::string input;
  std::string output;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--input=", 0) == 0) {
      input = arg.substr(std::strlen("--input="));
    } else if (arg.rfind("--output=", 0) == 0) {
      output = arg.substr(std::strlen("--output="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: compile: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  for (const std::string& arg : positional) {
    if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      std::fprintf(stderr, "error: compile: surplus argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "error: compile expects <input> <image> (or --input= "
                 "--output=)\n");
    return 2;
  }
  WallTimer timer;
  IoError error;
  const auto file = store::LoadGraphFile(input, &error);
  if (!file.has_value()) return ReportIoError("load", input, error);
  if (file->image.has_value()) {
    std::fprintf(stderr,
                 "error: '%s' is already a compiled graph image; compile "
                 "expects an uncompiled graph input\n",
                 input.c_str());
    return 2;
  }
  const Graph& graph = file->graph;
  const double parse_ms = timer.Millis();
  timer.Restart();
  if (!store::CompileGraphImage(graph, output, &error)) {
    return ReportIoError("write", output, error);
  }
  std::printf(
      "compiled %s -> %s: %u vertices, %lu edges "
      "(parse %.0fms, index+write %.0fms)\n",
      input.c_str(), output.c_str(), graph.NumVertices(),
      static_cast<unsigned long>(graph.NumEdges()), parse_ms,
      timer.Millis());
  return 0;
}

int CmdGenerate(const CommandLine& cli) {
  const std::string model = cli.GetString("model", "lfr");
  const std::string output = cli.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  const auto n = static_cast<VertexId>(cli.GetInt("n", 10000));
  const auto seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  Graph graph;
  if (model == "lfr") {
    gen::LfrParams params;
    params.n = n;
    params.seed = seed;
    params.mu = cli.GetDouble("mu", 0.1);
    params.min_degree =
        static_cast<uint32_t>(cli.GetInt("min-degree", 5));
    params.max_degree =
        static_cast<uint32_t>(cli.GetInt("max-degree", 100));
    params.min_community =
        static_cast<uint32_t>(cli.GetInt("min-community", 20));
    params.max_community =
        static_cast<uint32_t>(cli.GetInt("max-community", 200));
    graph = gen::Lfr(params).graph;
  } else if (model == "ba") {
    graph = gen::BarabasiAlbert(
        n, static_cast<uint32_t>(cli.GetInt("m", 3)), seed);
  } else if (model == "gnp") {
    graph = gen::ErdosRenyiGnp(n, cli.GetDouble("p", 0.001), seed);
  } else {
    std::fprintf(stderr, "error: unknown model '%s'\n", model.c_str());
    return 1;
  }
  if (!store::SaveGraphFile(graph, output)) {
    std::fprintf(stderr, "error: could not write '%s'\n", output.c_str());
    return 1;
  }
  std::printf("generated %s graph: %u vertices, %lu edges -> %s\n",
              model.c_str(), graph.NumVertices(),
              static_cast<unsigned long>(graph.NumEdges()),
              output.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage();
  }
  // compile takes positional arguments; CommandLine would reject them.
  if (command == "compile") return CmdCompile(argc - 1, argv + 1);
  const CommandLine cli(argc - 1, argv + 1);
  if (command == "stats") return CmdStats(cli);
  if (command == "cst") return CmdCst(cli);
  if (command == "csm") return CmdCsm(cli);
  if (command == "batch") return CmdBatch(cli);
  if (command == "decompose") return CmdDecompose(cli);
  if (command == "convert") return CmdConvert(cli);
  if (command == "generate") return CmdGenerate(cli);
  if (command == "serve") return CmdServe(cli);
  if (command == "client") return CmdClient(cli);
  // A typo must not exit like a usage request: distinct code, explicit
  // message, and the usage text for orientation.
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  Usage();
  return kExitUnknownCommand;
}

}  // namespace
}  // namespace locs

int main(int argc, char** argv) { return locs::Run(argc, argv); }
