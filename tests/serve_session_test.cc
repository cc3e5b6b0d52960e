// In-process tests of the serving layer above the parser: sessions over
// fd transports, the graph registry, admission control (deterministic
// BUSY via the serve.slow_query failpoint), graceful drain, metrics
// consistency, the index-first CST plan as served, and concurrent
// sessions through the real TcpServer.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/core_index.h"
#include "core/local_cst.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/session.h"
#include "store/graph_file.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace locs::serve {
namespace {

using testing::TempPath;

/// Shared server state plus a scripted-session driver. Scripts run over
/// file-backed fds (no pipe-capacity deadlock however large the reply),
/// one reply line per effective request, exactly like a piped locsd.
struct ServeFixture {
  GraphRegistry registry;
  AdmissionController admission;
  ServerMetrics metrics;
  SessionOptions options;

  explicit ServeFixture(
      size_t max_graphs = 16,
      AdmissionController::Options admit = AdmissionController::Options())
      : registry(max_graphs), admission(admit) {}

  /// Registers `graph` under `name` via a temp graph image.
  void Register(const std::string& name, const Graph& graph) {
    const std::string path = TempPath("serve_fix_" + name + ".limg");
    ASSERT_TRUE(store::SaveGraphFile(graph, path));
    IoError error;
    bool full = false;
    ASSERT_NE(registry.Load(name, path, &error, &full), nullptr)
        << error.message;
  }

  /// Runs one session over the script; returns the reply lines.
  std::vector<std::string> Run(const std::vector<std::string>& script,
                               const std::string& tag) {
    const std::string in_path = TempPath("serve_in_" + tag);
    const std::string out_path = TempPath("serve_out_" + tag);
    {
      const int fd =
          ::open(in_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
      EXPECT_GE(fd, 0);
      for (const std::string& line : script) {
        const std::string framed = line + "\n";
        EXPECT_EQ(::write(fd, framed.data(), framed.size()),
                  static_cast<ssize_t>(framed.size()));
      }
      ::close(fd);
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY);
    const int out_fd =
        ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    EXPECT_GE(in_fd, 0);
    EXPECT_GE(out_fd, 0);
    {
      FdTransport transport(in_fd, out_fd);
      Session session(transport, registry, admission, metrics, options);
      session.Run();
    }
    ::close(in_fd);
    ::close(out_fd);

    std::vector<std::string> replies;
    const int read_fd = ::open(out_path.c_str(), O_RDONLY);
    EXPECT_GE(read_fd, 0);
    FdTransport reader(read_fd, -1);
    std::string line;
    while (reader.ReadLine(&line) == Transport::ReadStatus::kLine) {
      replies.push_back(line);
    }
    ::close(read_fd);
    return replies;
  }
};

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

TEST(ServeSessionTest, KnownStructureQueriesAreExact) {
  // Barbell(6, 2): two K6 joined through a 2-vertex path. The CST(5)
  // and CSM answers are structurally forced, so replies are checkable
  // without re-running a solver.
  ServeFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "PING",
          "CSM bb 0",
          "CST bb 0 5",
          "CST bb 0 7",       // k above the degeneracy: exact negative
          "MULTI bb 5 0 1",   // both seeds in the left clique
          "MULTI bb 5 0 11",  // seeds in different cliques: no δ>=5 answer
          "QUIT",
      },
      "exact");
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=6 delta=5"))
      << replies[1];
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found n=6 delta=5"))
      << replies[2];
  EXPECT_TRUE(StartsWith(replies[3], "OK status=not-exists n=0"))
      << replies[3];
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found n=6 delta=5"))
      << replies[4];
  EXPECT_TRUE(StartsWith(replies[5], "OK status=not-exists n=0"))
      << replies[5];
  EXPECT_EQ(replies[6], "OK bye");
}

TEST(ServeSessionTest, LoadEvictListLifecycle) {
  ServeFixture fix;
  const std::string path = TempPath("serve_lifecycle.limg");
  ASSERT_TRUE(store::SaveGraphFile(gen::Clique(8), path));
  const auto replies = fix.Run(
      {
          "LOAD k8 " + path,
          "LIST",
          "CST k8 0 7",
          "EVICT k8",
          "CST k8 0 7",  // evicted name is gone for new queries
          "EVICT k8",    // double-evict is a typed error
          "LIST",
          "LOAD broken /nonexistent/file.limg",
      },
      "lifecycle");
  ASSERT_EQ(replies.size(), 8u);
  EXPECT_TRUE(StartsWith(replies[0], "OK graph=k8 vertices=8 edges=28"))
      << replies[0];
  EXPECT_EQ(replies[1], "OK graphs=1 k8:8:28");
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found n=8 delta=7"));
  EXPECT_EQ(replies[3], "OK evicted=k8");
  EXPECT_TRUE(StartsWith(replies[4], "ERR unknown-graph"));
  EXPECT_TRUE(StartsWith(replies[5], "ERR unknown-graph"));
  EXPECT_EQ(replies[6], "OK graphs=0");
  EXPECT_TRUE(StartsWith(replies[7], "ERR io open:")) << replies[7];
}

TEST(ServeSessionTest, ExecutionErrorsAreTypedAndNonFatal) {
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  const auto replies = fix.Run(
      {
          "CST nope 0 2",       // unknown graph
          "CST g 99 2",         // vertex out of range
          "MULTI g 2 1 2 1",    // duplicate seed
          "CST g zero 2",       // parse error mid-session
          "CST g 0 4 limit=2",  // session still fully functional
      },
      "errors");
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR unknown-graph"));
  EXPECT_TRUE(StartsWith(replies[1], "ERR vertex-range"));
  EXPECT_TRUE(StartsWith(replies[2], "ERR duplicate-vertex"));
  EXPECT_TRUE(StartsWith(replies[3], "ERR bad-number"));
  // δ >= 4 in K5 forces the whole clique; the echo is capped at 2.
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found n=5 delta=4"))
      << replies[4];
  EXPECT_TRUE(replies[4].find("truncated=3") != std::string::npos)
      << replies[4];
}

TEST(ServeSessionTest, RegistryCapacityIsEnforced) {
  ServeFixture fix(/*max_graphs=*/1);
  const std::string path_a = TempPath("serve_cap_a.limg");
  const std::string path_b = TempPath("serve_cap_b.limg");
  ASSERT_TRUE(store::SaveGraphFile(gen::Clique(4), path_a));
  ASSERT_TRUE(store::SaveGraphFile(gen::Cycle(5), path_b));
  const auto replies = fix.Run(
      {
          "LOAD a " + path_a,
          "LOAD b " + path_b,  // registry full
          "LOAD a " + path_b,  // replacing an existing name is allowed
          "LIST",
      },
      "capacity");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(StartsWith(replies[0], "OK graph=a"));
  EXPECT_TRUE(StartsWith(replies[1], "ERR registry-full"));
  EXPECT_TRUE(StartsWith(replies[2], "OK graph=a vertices=5"));
  EXPECT_EQ(replies[3], "OK graphs=1 a:5:5");
}

TEST(ServeSessionTest, MemberLimitDefaultsAndOverrides) {
  ServeFixture fix;
  fix.options.default_member_limit = 3;
  fix.Register("g", gen::Clique(6));
  const auto replies = fix.Run(
      {
          "CST g 0 5",          // server default caps the echo at 3
          "CST g 0 5 limit=1",  // request override wins
      },
      "limit");
  ASSERT_EQ(replies.size(), 2u);
  // Clique(6) answer has n=6; the echo is capped at 3 (server default)
  // and 1 (request override) members respectively.
  EXPECT_TRUE(replies[0].find("truncated=3") != std::string::npos)
      << replies[0];
  EXPECT_TRUE(replies[1].find("truncated=5") != std::string::npos)
      << replies[1];
}

TEST(ServeSessionTest, DrainFlagRejectsQueriesAndEndsSession) {
  ServeFixture fix;
  fix.Register("g", gen::Clique(4));
  std::atomic<bool> stop{true};
  fix.options.stop = &stop;
  const auto replies = fix.Run({"CST g 0 2", "CST g 0 3"}, "drain");
  // The first query gets the typed drain error and the session exits;
  // the second request is never read.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR shutting-down"));
}

TEST(ServeSessionTest, MetricsLedgerAddsUp) {
  ServeFixture fix;
  fix.Register("g", gen::Barbell(5, 0));
  const auto replies = fix.Run(
      {
          "PING",
          "CST g 0 4",
          "CSM g 0",
          "MULTI g 4 0 1",
          "CST nope 0 1",
          "GARBAGE",
          "STATS",
      },
      "metrics");
  ASSERT_EQ(replies.size(), 7u);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.TotalRequests(), 6u);  // GARBAGE never parses to a verb
  EXPECT_EQ(snap.requests_by_verb[static_cast<size_t>(Verb::kCst)], 2u);
  EXPECT_EQ(snap.requests_by_verb[static_cast<size_t>(Verb::kPing)], 1u);
  EXPECT_EQ(snap.TotalErrors(), 2u);
  EXPECT_EQ(
      snap.errors_by_kind[static_cast<size_t>(WireError::kUnknownVerb)], 1u);
  EXPECT_EQ(
      snap.errors_by_kind[static_cast<size_t>(WireError::kUnknownGraph)],
      1u);
  // Three queries completed -> three latency samples, and the percentile
  // estimator returns a sane, monotone bound (possibly 0: queries on toy
  // graphs legitimately finish in under a microsecond).
  EXPECT_EQ(snap.TotalQueries(), 3u);
  EXPECT_LE(snap.LatencyPercentileUs(0.50), snap.LatencyPercentileUs(0.95));
  EXPECT_LT(snap.LatencyPercentileUs(0.95), uint64_t{1} << 31);
  EXPECT_EQ(snap.sessions_opened, 1u);
  EXPECT_EQ(snap.sessions_closed, 1u);
  // The STATS reply carries the same ledger.
  EXPECT_TRUE(replies[6].find(" requests=6") != std::string::npos)
      << replies[6];
  EXPECT_TRUE(replies[6].find(" errors=2") != std::string::npos);
  EXPECT_TRUE(replies[6].find(" queries=3") != std::string::npos);
}

TEST(ServeSessionTest, SaturationYieldsBusyNotBlocking) {
  // max_inflight=1, max_queued=0: with one slow query holding the slot
  // (the serve.slow_query failpoint makes "slow" deterministic), a
  // concurrent query must fast-reject with BUSY.
  AdmissionController::Options admit;
  admit.max_inflight = 1;
  admit.max_queued = 0;
  ServeFixture fix(/*max_graphs=*/16, admit);
  fix.Register("g", gen::Clique(4));
  failpoint::ScopedFailpoint slow("serve.slow_query");

  std::vector<std::string> slow_replies;
  std::thread holder([&] {
    slow_replies = fix.Run({"CST g 0 2"}, "busy_holder");
  });
  // Give the holder time to pass admission and park in the failpoint
  // sleep (200ms), then contend.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto busy_replies = fix.Run({"CST g 1 2"}, "busy_contender");
  holder.join();

  ASSERT_EQ(slow_replies.size(), 1u);
  EXPECT_TRUE(StartsWith(slow_replies[0], "OK status=found"));
  ASSERT_EQ(busy_replies.size(), 1u);
  EXPECT_TRUE(StartsWith(busy_replies[0], "BUSY inflight=1 queued=0"))
      << busy_replies[0];
  EXPECT_EQ(fix.metrics.Snapshot().rejected, 1u);
  EXPECT_EQ(fix.admission.Snapshot().rejected_total, 1u);
}

TEST(ServeSessionTest, BoundedQueueAdmitsThenRejects) {
  // max_inflight=1, max_queued=1: the second query waits for the slot
  // and succeeds; the third finds the queue full and fast-rejects.
  AdmissionController::Options admit;
  admit.max_inflight = 1;
  admit.max_queued = 1;
  ServeFixture fix(/*max_graphs=*/16, admit);
  fix.Register("g", gen::Clique(4));
  failpoint::ScopedFailpoint slow("serve.slow_query");

  std::vector<std::string> first, second;
  std::thread holder([&] { first = fix.Run({"CST g 0 2"}, "q_holder"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread waiter([&] { second = fix.Run({"CST g 1 2"}, "q_waiter"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto third = fix.Run({"CST g 2 2"}, "q_reject");
  holder.join();
  waiter.join();

  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_TRUE(StartsWith(first[0], "OK status=found"));
  EXPECT_TRUE(StartsWith(second[0], "OK status=found"));
  EXPECT_TRUE(StartsWith(third[0], "BUSY")) << third[0];
}

// --- Index-first CST plan ------------------------------------------------
//
// A ServedGraph's facts carry its CoreIndex, so a CST whose expansion
// meets a vertex of core number < k ends there and is answered from the
// index. The replies must be those of Algorithm 2 as published.

/// Value of ` key=` in a reply ("" when absent).
std::string Field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = reply.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return reply.substr(begin, reply.find(' ', begin) - begin);
}

/// Paper-mode CST with the session's default options.
SearchResult PaperCst(const Graph& graph, VertexId v0, uint32_t k) {
  const GraphFacts facts = GraphFacts::Compute(graph);
  const OrderedAdjacency ordered(graph);
  LocalCstSolver solver(graph, &ordered, &facts);
  return solver.Solve(v0, k);
}

/// Vertices whose paper-mode CST(k) is found by the global fallback.
std::vector<VertexId> FallbackVertices(const Graph& graph, uint32_t k) {
  const GraphFacts facts = GraphFacts::Compute(graph);
  const OrderedAdjacency ordered(graph);
  LocalCstSolver solver(graph, &ordered, &facts);
  std::vector<VertexId> found;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const SearchResult result = solver.Solve(v, k);
    if (result.has_value() && result.telemetry.used_global_fallback) {
      found.push_back(v);
    }
  }
  return found;
}

constexpr uint32_t kPlanK = 5;

Graph PlanGraph() { return gen::ErdosRenyiGnp(300, 0.03, 7); }

/// "CST <graph> <v0> <kPlanK><options>".
std::string PlanQuery(const std::string& graph, VertexId v0,
                      const std::string& options = "") {
  std::string line = "CST ";
  line += graph;
  line += ' ';
  line += std::to_string(v0);
  line += ' ';
  line += std::to_string(kPlanK);
  line += options;
  return line;
}

TEST(ServeIndexPlanTest, FallbackAnswerSameOverTextAndImage) {
  const Graph graph = PlanGraph();
  const std::vector<VertexId> fallbacks = FallbackVertices(graph, kPlanK);
  ASSERT_FALSE(fallbacks.empty());
  const VertexId v0 = fallbacks.front();
  const SearchResult want = PaperCst(graph, v0, kPlanK);

  const std::string text_path = TempPath("serve_plan.metis");
  const std::string image_path = TempPath("serve_plan.limg");
  ASSERT_TRUE(store::SaveGraphFile(graph, text_path));
  ASSERT_TRUE(store::SaveGraphFile(graph, image_path));
  ServeFixture fix;
  const std::string options = " limit=1 trace=1";
  const auto replies = fix.Run(
      {"LOAD t " + text_path, "LOADIMG i " + image_path,
       PlanQuery("t", v0, options), PlanQuery("i", v0, options)},
      "plan_text_image");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_NE(replies[0].find("source=text"), std::string::npos) << replies[0];
  EXPECT_NE(replies[1].find("source=image"), std::string::npos) << replies[1];
  for (const std::string& reply : {replies[2], replies[3]}) {
    SCOPED_TRACE(reply);
    EXPECT_TRUE(StartsWith(reply, "OK status=found"));
    EXPECT_EQ(Field(reply, "n"), std::to_string(want->members.size()));
    EXPECT_EQ(Field(reply, "delta"), std::to_string(want->min_degree));
    EXPECT_EQ(Field(reply, "members"), std::to_string(v0));
    EXPECT_EQ(Field(reply, "fallback"), "1");
    // The expansion ended at its first core<k vertex, well short of the
    // paper's exhausted candidate set.
    EXPECT_LT(std::stoull(Field(reply, "visited")) * 2,
              want.telemetry.TotalVisited());
  }
  EXPECT_EQ(replies[2], replies[3]);
}

TEST(ServeIndexPlanTest, SecondQueryOnComponentMatchesFreshSolver) {
  const Graph graph = PlanGraph();
  const CoreIndex index(graph);
  const std::vector<VertexId> fallbacks = FallbackVertices(graph, kPlanK);
  // Two fallback queries on one k-core component: the second reads the
  // δ the first one memoised.
  VertexId first = kInvalidVertex;
  VertexId second = kInvalidVertex;
  for (size_t i = 0; i < fallbacks.size() && second == kInvalidVertex; ++i) {
    for (size_t j = i + 1; j < fallbacks.size(); ++j) {
      if (index.AncestorAtLevel(fallbacks[i], kPlanK) ==
          index.AncestorAtLevel(fallbacks[j], kPlanK)) {
        first = fallbacks[i];
        second = fallbacks[j];
        break;
      }
    }
  }
  ASSERT_NE(second, kInvalidVertex);

  const std::string path = TempPath("serve_plan_memo.limg");
  ASSERT_TRUE(store::SaveGraphFile(graph, path));
  ServeFixture fix;
  const auto replies = fix.Run(
      {"LOADIMG g " + path, PlanQuery("g", first), PlanQuery("g", second)},
      "plan_memo");
  ASSERT_EQ(replies.size(), 3u);

  // A fresh index-bound solver (empty memo) and the paper-mode one.
  GraphFacts facts = GraphFacts::Compute(graph);
  facts.index = &index;
  const OrderedAdjacency ordered(graph);
  LocalCstSolver fresh(graph, &ordered, &facts);
  const SearchResult got = fresh.Solve(second, kPlanK);
  const SearchResult want = PaperCst(graph, second, kPlanK);
  ASSERT_TRUE(got.has_value());
  std::string members;
  for (const VertexId v : got->members) {
    if (!members.empty()) members += ',';
    members += std::to_string(v);
  }
  EXPECT_EQ(Field(replies[2], "n"), std::to_string(want->members.size()));
  EXPECT_EQ(Field(replies[2], "delta"), std::to_string(want->min_degree));
  EXPECT_EQ(Field(replies[2], "members"), members);
  EXPECT_EQ(std::set<VertexId>(got->members.begin(), got->members.end()),
            std::set<VertexId>(want->members.begin(), want->members.end()));
}

/// `graph` plus edges inside v0's k-core component until every member
/// has k+1 neighbors there: the same component with a larger δ.
Graph RaiseComponentDelta(const Graph& graph, VertexId v0, uint32_t k) {
  const std::vector<VertexId> component = CoreIndex(graph).CstMembers(v0, k);
  const std::set<VertexId> in_component(component.begin(), component.end());
  std::vector<std::set<VertexId>> adjacency(graph.NumVertices());
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    adjacency[u].insert(graph.Neighbors(u).begin(), graph.Neighbors(u).end());
  }
  auto inner_degree = [&](VertexId u) {
    return std::count_if(adjacency[u].begin(), adjacency[u].end(),
                         [&](VertexId w) { return in_component.count(w); });
  };
  for (const VertexId u : component) {
    for (const VertexId w : component) {
      if (inner_degree(u) > k) break;
      if (w != u && adjacency[u].insert(w).second) adjacency[w].insert(u);
    }
  }
  EdgeList edges;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const VertexId w : adjacency[u]) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  return BuildGraph(graph.NumVertices(), edges);
}

TEST(ServeIndexPlanTest, ReloadUnderSameNameNeverReusesOldDelta) {
  // Two graphs on one vertex set where v0's CST falls back on both and
  // its k-core component has the same merge-tree node but a different
  // δ: a δ memo that outlived the re-LOAD would answer with the old one.
  const Graph before = gen::ErdosRenyiGnp(300, 0.03, 1);
  const CoreIndex before_index(before);
  VertexId v0 = kInvalidVertex;
  Graph after;
  for (const VertexId v : FallbackVertices(before, kPlanK)) {
    Graph raised = RaiseComponentDelta(before, v, kPlanK);
    const SearchResult result = PaperCst(raised, v, kPlanK);
    if (result.has_value() && result.telemetry.used_global_fallback &&
        CoreIndex(raised).AncestorAtLevel(v, kPlanK) ==
            before_index.AncestorAtLevel(v, kPlanK)) {
      v0 = v;
      after = std::move(raised);
      break;
    }
  }
  ASSERT_NE(v0, kInvalidVertex);
  const SearchResult want_before = PaperCst(before, v0, kPlanK);
  const SearchResult want_after = PaperCst(after, v0, kPlanK);
  ASSERT_NE(want_before->min_degree, want_after->min_degree);

  const std::string before_path = TempPath("serve_plan_before.limg");
  const std::string after_path = TempPath("serve_plan_after.limg");
  ASSERT_TRUE(store::SaveGraphFile(before, before_path));
  ASSERT_TRUE(store::SaveGraphFile(after, after_path));
  ServeFixture fix;
  const std::string query = PlanQuery("g", v0, " limit=1 trace=1");
  const auto replies = fix.Run(
      {"LOADIMG g " + before_path, query, "LOADIMG g " + after_path, query},
      "plan_reload");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(Field(replies[1], "delta"),
            std::to_string(want_before->min_degree));
  EXPECT_EQ(Field(replies[3], "delta"),
            std::to_string(want_after->min_degree));
  EXPECT_EQ(Field(replies[3], "n"),
            std::to_string(want_after->members.size()));
  EXPECT_EQ(Field(replies[3], "fallback"), "1");
}

// --- TCP front end -------------------------------------------------------

/// Connects to 127.0.0.1:port, sends `script`, reads replies until the
/// server closes the connection.
std::vector<std::string> TcpScript(uint16_t port,
                                   const std::vector<std::string>& script) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport transport(fd, fd, /*owns_fds=*/true);
  for (const std::string& line : script) {
    EXPECT_TRUE(transport.WriteLine(line));
  }
  std::vector<std::string> replies;
  std::string line;
  while (transport.ReadLine(&line) == Transport::ReadStatus::kLine) {
    replies.push_back(line);
  }
  return replies;
}

TEST(TcpServerTest, ConcurrentSessionsServeAndDrain) {
  ServerOptions options;
  options.max_sessions = 4;
  CommunityServer shared(options);
  const std::string path = TempPath("serve_tcp.limg");
  ASSERT_TRUE(store::SaveGraphFile(gen::Barbell(6, 2), path));
  IoError io_error;
  bool full = false;
  ASSERT_NE(shared.registry().Load("g", path, &io_error, &full), nullptr);

  Executor executor(6);
  TcpServer server(shared, executor, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);
  std::thread accept_thread([&] { server.Run(); });

  constexpr int kClients = 3;
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      replies[static_cast<size_t>(c)] = TcpScript(
          server.port(),
          {"PING", "CST g 0 5 limit=6", "CSM g 11 limit=6", "QUIT"});
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  accept_thread.join();

  for (const auto& session_replies : replies) {
    ASSERT_EQ(session_replies.size(), 4u);
    EXPECT_EQ(session_replies[0], "OK pong");
    EXPECT_TRUE(StartsWith(session_replies[1], "OK status=found n=6 delta=5"))
        << session_replies[1];
    EXPECT_TRUE(StartsWith(session_replies[2], "OK status=found n=6 delta=5"))
        << session_replies[2];
    EXPECT_EQ(session_replies[3], "OK bye");
  }
  // Every session is accounted for and fully closed after drain.
  const MetricsSnapshot snap = shared.metrics().Snapshot();
  EXPECT_EQ(snap.sessions_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(snap.sessions_closed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(TcpServerTest, SessionCapRejectsWithBusy) {
  ServerOptions options;
  options.max_sessions = 1;
  CommunityServer shared(options);
  Executor executor(3);
  TcpServer server(shared, executor, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  // First connection occupies the only session slot; PING round-trip
  // proves the session is running before the second connect.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport held(fd, fd, /*owns_fds=*/true);
  ASSERT_TRUE(held.WriteLine("PING"));
  std::string line;
  ASSERT_EQ(held.ReadLine(&line), Transport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK pong");

  const auto rejected = TcpScript(server.port(), {"PING"});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], "BUSY sessions=1");

  EXPECT_TRUE(held.WriteLine("QUIT"));
  ASSERT_EQ(held.ReadLine(&line), Transport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK bye");
  server.Stop();
  accept_thread.join();
  EXPECT_GE(shared.metrics().Snapshot().rejected, 1u);
}

TEST(TcpServerTest, StopUnblocksIdleSessions) {
  // A session parked in a blocking read must not hang the drain: Stop()
  // shuts the socket down and Run() returns.
  ServerOptions options;
  CommunityServer shared(options);
  Executor executor(3);
  TcpServer server(shared, executor, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport idle(fd, fd, /*owns_fds=*/true);
  ASSERT_TRUE(idle.WriteLine("PING"));
  std::string line;
  ASSERT_EQ(idle.ReadLine(&line), Transport::ReadStatus::kLine);

  server.Stop();        // session is idle in ReadLine at this point
  accept_thread.join();  // must not hang
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(TcpServerTest, AcceptedSocketsSetNoDelay) {
  // Each reply is one short line; with Nagle on, a reply written while the
  // previous one is unacknowledged waits for the client's delayed ACK.
  ServerOptions options;
  CommunityServer shared(options);
  Executor executor(3);
  TcpServer server(shared, executor, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport client(fd, fd, /*owns_fds=*/true);
  ASSERT_TRUE(client.WriteLine("PING"));
  std::string line;
  ASSERT_EQ(client.ReadLine(&line), Transport::ReadStatus::kLine);
  sockaddr_in client_addr{};
  socklen_t len = sizeof(client_addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&client_addr),
                          &len),
            0);

  // The server runs in this process: its end of the connection is the
  // descriptor bound to the server port whose peer is our client port.
  int served_fd = -1;
  for (int candidate = 0; candidate < 4096 && served_fd < 0; ++candidate) {
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_len = sizeof(local);
    socklen_t peer_len = sizeof(peer);
    if (::getsockname(candidate, reinterpret_cast<sockaddr*>(&local),
                      &local_len) != 0 ||
        ::getpeername(candidate, reinterpret_cast<sockaddr*>(&peer),
                      &peer_len) != 0) {
      continue;
    }
    if (local.sin_family == AF_INET && local.sin_port == addr.sin_port &&
        peer.sin_port == client_addr.sin_port) {
      served_fd = candidate;
    }
  }
  ASSERT_GE(served_fd, 0);
  int nodelay = 0;
  socklen_t nodelay_len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(served_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &nodelay_len),
            0);
  EXPECT_NE(nodelay, 0);

  EXPECT_TRUE(client.WriteLine("QUIT"));
  server.Stop();
  accept_thread.join();
}

}  // namespace
}  // namespace locs::serve
