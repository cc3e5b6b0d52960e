// locs_bench — the harness behind locsbench/run.py.
//
//   locs_bench prep   --data=DIR
//       writes the input graphs (fixed generator seeds) if missing.
//   locs_bench run    --workload=W --seed=N --seconds=S --trace=0|1
//                     --data=DIR --work=DIR --locsd=PATH --cli=PATH
//       measures one workload; the last stdout line is the JSON result.
//   locs_bench counts --workload=W --seed=N --data=DIR --work=DIR
//       the traced replay alone (no daemon), for the self-test.
//
// Exit status: 0 when every reply was correct and every ledger check
// held, 1 otherwise, 2 on bad usage or missing inputs.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gen/lfr.h"
#include "graph/io.h"
#include "graph/traversal.h"
#include "oracle.h"
#include "runs.h"

namespace locsbench {

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    }
  }
  return flags;
}

bool Exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Writes `graph` as an edge list whose vertex ids survive loading
/// unchanged. The loader numbers vertices in order of appearance, but
/// which endpoint of a line it numbers first is not specified, so the
/// file never introduces two new vertices on one line: a self-loop
/// (dropped by the loader) introduces vertex 0, then one BFS-tree edge
/// per vertex in BFS order introduces the rest, then the other edges.
/// Vertices are relabelled in BFS order first.
bool WriteInput(const locs::Graph& graph, const std::string& path) {
  const uint32_t n = graph.NumVertices();
  std::vector<uint32_t> order;
  std::vector<uint32_t> label(n, UINT32_MAX);
  std::vector<uint32_t> parent(n, 0);
  order.reserve(n);
  label[0] = 0;
  order.push_back(0);
  for (size_t head = 0; head < order.size(); ++head) {
    const uint32_t v = order[head];
    for (const uint32_t u : graph.Neighbors(v)) {
      if (label[u] != UINT32_MAX) continue;
      label[u] = static_cast<uint32_t>(order.size());
      parent[label[u]] = label[v];
      order.push_back(u);
    }
  }
  if (order.size() != n) return false;  // inputs are connected
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# locs-bench input: %u vertices, %llu edges\n0 0\n", n,
               static_cast<unsigned long long>(graph.NumEdges()));
  for (uint32_t v = 1; v < n; ++v) std::fprintf(file, "%u %u\n", parent[v], v);
  for (uint32_t old = 0; old < n; ++old) {
    for (const uint32_t w : graph.Neighbors(old)) {
      const uint32_t a = label[old];
      const uint32_t b = label[w];
      if (a < b && parent[b] != a) std::fprintf(file, "%u %u\n", a, b);
    }
  }
  return std::fclose(file) == 0;
}

/// The two input graphs. serve20k is the serving benchmark's LFR graph
/// (n=20,000, degree 5-80, communities 20-150, mu=0.1, seed 808); dblp-sim
/// is the paper-mode stand-in of bench/common/datasets.cc. Both are
/// restricted to their largest component, as in the paper (§6.1.1).
bool Prep(const std::string& data_dir) {
  ::mkdir(data_dir.c_str(), 0755);
  struct Input {
    const char* name;
    locs::gen::LfrParams params;
  };
  Input inputs[2];
  inputs[0].name = "serve20k";
  inputs[0].params.n = 20000;
  inputs[0].params.min_degree = 5;
  inputs[0].params.max_degree = 80;
  inputs[0].params.min_community = 20;
  inputs[0].params.max_community = 150;
  inputs[0].params.mu = 0.1;
  inputs[0].params.seed = 808;
  inputs[1].name = "dblp-sim";
  inputs[1].params.n = 80000;
  inputs[1].params.degree_exponent = 2.5;
  inputs[1].params.min_degree = 4;
  inputs[1].params.max_degree = 150;
  inputs[1].params.min_community = 20;
  inputs[1].params.max_community = 300;
  inputs[1].params.mu = 0.10;
  inputs[1].params.seed = 101;
  for (const Input& input : inputs) {
    const std::string path = data_dir + "/" + input.name + ".txt";
    if (Exists(path)) continue;
    const locs::Graph graph =
        locs::ExtractLargestComponent(locs::gen::Lfr(input.params).graph)
            .graph;
    const std::string tmp = path + ".tmp";
    if (!WriteInput(graph, tmp) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "generated %s: %u vertices, %llu edges\n",
                 path.c_str(), graph.NumVertices(),
                 static_cast<unsigned long long>(graph.NumEdges()));
  }
  return true;
}

void PrintResult(const Report& report) {
  for (const std::string& problem : report.problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }
  std::printf("fail_frac  %12.6f ratio  %llu failed of %llu attempted\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: locs_bench prep|run|counts [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv);
  if (command == "prep") return Prep(flags["data"]) ? 0 : 2;
  if (command != "run" && command != "counts") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }
  RunArgs args;
  args.workload = FindWorkload(flags["workload"]);
  if (args.workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags["workload"].c_str());
    return 2;
  }
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                        : 10.0;
  args.trace = flags["trace"] == "1";
  args.data_dir = flags["data"];
  args.work_dir = flags["work"];
  args.locsd = flags["locsd"];
  args.locs_cli = flags["cli"];
  if (args.seconds <= 0.0 || args.data_dir.empty() || args.work_dir.empty()) {
    std::fprintf(stderr, "run needs --seconds>0, --data and --work\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);

  OracleGraph graph;
  std::string error;
  if (!graph.Load(EdgeListPath(args), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d graph=%s "
              "(%u vertices, %llu edges, degeneracy %u)\n",
              args.workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.workload->graph,
              graph.n(), static_cast<unsigned long long>(graph.m()),
              graph.Degeneracy());

  Report report;
  if (command == "counts") {
    RunCounts(args, graph, &report);
  } else if (args.workload->kind == WorkloadKind::kBatchKcore) {
    RunBatch(args, graph, &report);
  } else {
    if (args.locsd.empty() || args.locs_cli.empty()) {
      std::fprintf(stderr, "serving workloads need --locsd and --cli\n");
      return 2;
    }
    RunServing(args, graph, &report);
  }
  if (report.attempted == 0) report.Fail("no request was attempted");
  PrintResult(report);
  return report.correct() ? 0 : 1;
}

}  // namespace

std::string EdgeListPath(const RunArgs& args) {
  return args.data_dir + "/" + args.workload->graph + ".txt";
}

}  // namespace locsbench

int main(int argc, char** argv) { return locsbench::Main(argc, argv); }
