// Property-based differential tests: seeded random graphs from src/gen/,
// local solvers checked against the global baselines, the index-first
// CST plan checked against Algorithm 2 as published, the CoreIndex leaf
// layout and node levels checked against a reference DFS and a δ
// recount, and the telemetry layer checked against the legacy counters
// and against itself (timing on vs off).
//
// Three graph families (Erdős–Rényi, Barabási–Albert, planted partition)
// × three seeds × several query vertices × several k give well over 50
// (graph, query) combinations per solver pair. Every assertion is inside
// a SCOPED_TRACE carrying the case label (family, size, seed) and the
// query, so a failure prints the exact combination to replay.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/core_index.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/validate.h"
#include "gen/barabasi.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/planted.h"
#include "gen/powerlaw.h"
#include "graph/ordering.h"
#include "graph/subgraph.h"
#include "gtest/gtest.h"
#include "obs/recorder.h"
#include "store/image.h"
#include "test_util.h"

namespace locs {
namespace {

struct GraphCase {
  std::string label;
  Graph graph;
};

/// The seeded graph zoo. Sizes are small enough that the whole suite
/// stays sub-second but large enough that expansion, candidate
/// generation, and the global fallback all genuinely run.
std::vector<GraphCase> PropertyGraphs() {
  std::vector<GraphCase> cases;
  for (const uint64_t seed : {11u, 42u, 77u}) {
    const std::string s = "_s" + std::to_string(seed);
    cases.push_back(
        {"gnp_n120_p0.06" + s, gen::ErdosRenyiGnp(120, 0.06, seed)});
    cases.push_back(
        {"ba_n150_m3" + s, gen::BarabasiAlbert(150, 3, seed)});
    cases.push_back({"planted_4x30" + s,
                     gen::PlantedPartition(4, 30, 0.30, 0.02, seed).graph});
  }
  return cases;
}

/// A deterministic spread of query vertices across the id range.
std::vector<VertexId> QueryVertices(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  return {0, n / 4, n / 2, static_cast<VertexId>(3 * (n / 4)),
          static_cast<VertexId>(n - 1)};
}

/// Asserts a found community is sound: contains v0, connected, induced
/// minimum degree at least k (CheckCommunity re-verifies all three).
void ExpectSoundCst(const Graph& graph, const SearchResult& result,
                    VertexId v0, uint32_t k) {
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->min_degree, k);
  const std::string err =
      validate::CheckCommunity(graph, *result.community, {v0});
  EXPECT_TRUE(err.empty()) << err;
}

// ---------------------------------------------------------------------
// Local CST (naive / lg / li, ordered and unordered adjacency) vs the
// global peel: identical feasibility, and every positive answer sound.
// ---------------------------------------------------------------------
TEST(PropertyCst, LocalStrategiesAgreeWithGlobalFeasibility) {
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCstSolver with_order(c.graph, &ordered, &facts);
    LocalCstSolver without_order(c.graph, nullptr, &facts);
    for (const VertexId v0 : QueryVertices(c.graph)) {
      for (uint32_t k = 1; k <= 5; ++k) {
        SCOPED_TRACE(c.label + " v0=" + std::to_string(v0) +
                     " k=" + std::to_string(k));
        const SearchResult global = GlobalCst(c.graph, v0, k);
        ASSERT_FALSE(global.Interrupted());
        if (global.has_value()) ExpectSoundCst(c.graph, global, v0, k);
        for (const Strategy strategy :
             {Strategy::kNaive, Strategy::kLG, Strategy::kLI}) {
          for (LocalCstSolver* solver : {&with_order, &without_order}) {
            SCOPED_TRACE(std::string("strategy=") +
                         std::string(StrategyName(strategy)) +
                         (solver == &with_order ? " ordered" : " plain"));
            CstOptions options;
            options.strategy = strategy;
            const SearchResult local = solver->Solve(v0, k, options);
            ASSERT_FALSE(local.Interrupted());
            // Local CST is exact on existence (Theorem 2 / the G[C]
            // fallback): it finds an answer iff the global peel does.
            ASSERT_EQ(local.has_value(), global.has_value());
            if (local.has_value()) ExpectSoundCst(c.graph, local, v0, k);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Index-first CST vs paper mode: a solver whose facts carry the
// CoreIndex ends doomed expansions early and answers from the index; it
// must agree with the paper-mode solver on status, member set, δ and
// the fallback flag, and list v0 first. An index answer keeps the exact
// member order of the merge-tree DFS harvest it replaced, so replies
// that print a prefix of the members stay byte-identical. One solver
// per mode serves every query of a graph, so any state a solver carried
// from one query to the next would show. The graphs add caveman,
// power-law, barbell and Figure-1 shapes to the random families; some
// of their index answers are components whose δ lies above k.
// ---------------------------------------------------------------------
std::vector<GraphCase> IndexPlanGraphs() {
  std::vector<GraphCase> cases;
  for (const uint64_t seed : {5u, 23u, 61u}) {
    const std::string s = "_s" + std::to_string(seed);
    cases.push_back(
        {"gnp_n150_p0.05" + s, gen::ErdosRenyiGnp(150, 0.05, seed)});
    cases.push_back({"ba_n150_m4" + s, gen::BarabasiAlbert(150, 4, seed)});
    gen::LfrParams lfr;
    lfr.n = 200;
    lfr.min_degree = 4;
    lfr.max_degree = 24;
    lfr.min_community = 15;
    lfr.max_community = 50;
    lfr.mu = 0.2;
    lfr.seed = seed;
    cases.push_back({"lfr_n200_mu0.2" + s, gen::Lfr(lfr).graph});
    cases.push_back(
        {"caveman_6x5-12_r0.15" + s,
         gen::RelaxedCaveman({5, 6, 8, 9, 10, 12}, 0.15, seed).graph});
    cases.push_back({"powerlaw_n200_e2.2" + s,
                     gen::PowerLawGraph(200, 2.2, 2, 30, seed)});
  }
  cases.push_back({"barbell_k6_b2", gen::Barbell(6, 2)});
  cases.push_back({"paper_figure1", gen::PaperFigure1()});
  return cases;
}

/// The leaves under `node` in the order of the stack DFS the leaf layout
/// stores: children pushed in sibling order, so the last sibling's
/// leaves come first.
std::vector<VertexId> ReferenceLeaves(const CoreIndex& index,
                                      uint32_t node) {
  std::vector<VertexId> leaves;
  std::vector<uint32_t> stack = {node};
  while (!stack.empty()) {
    const uint32_t cur = stack.back();
    stack.pop_back();
    if (index.node_vertex()[cur] != CoreIndex::kNil) {
      leaves.push_back(index.node_vertex()[cur]);
      continue;
    }
    for (uint32_t child = index.node_first_child()[cur];
         child != CoreIndex::kNil; child = index.node_next_sibling()[child]) {
      stack.push_back(child);
    }
  }
  return leaves;
}

std::vector<VertexId> SortedMembers(const SearchResult& result) {
  std::vector<VertexId> members = result->members;
  std::sort(members.begin(), members.end());
  return members;
}

TEST(PropertyCst, IndexFirstPlanMatchesPaperMode) {
  uint64_t fallbacks = 0;
  uint64_t above_k = 0;  // index answers whose component level exceeds k
  for (const GraphCase& c : IndexPlanGraphs()) {
    const GraphFacts paper_facts = GraphFacts::Compute(c.graph);
    const CoreIndex index(c.graph);
    GraphFacts index_facts = paper_facts;
    index_facts.index = &index;
    const OrderedAdjacency ordered(c.graph);
    for (const bool use_ordered : {true, false}) {
      const OrderedAdjacency* adjacency = use_ordered ? &ordered : nullptr;
      LocalCstSolver paper(c.graph, adjacency, &paper_facts);
      LocalCstSolver indexed(c.graph, adjacency, &index_facts);
      for (VertexId v0 = 0; v0 < c.graph.NumVertices(); v0 += 7) {
        for (uint32_t k = 1; k <= index.Degeneracy() + 1; ++k) {
          for (const Strategy strategy :
               {Strategy::kNaive, Strategy::kLG, Strategy::kLI}) {
            SCOPED_TRACE(c.label + (use_ordered ? " ordered" : " plain") +
                         " strategy=" + std::string(StrategyName(strategy)) +
                         " v0=" + std::to_string(v0) +
                         " k=" + std::to_string(k));
            CstOptions options;
            options.strategy = strategy;
            const SearchResult want = paper.Solve(v0, k, options);
            const SearchResult got = indexed.Solve(v0, k, options);
            ASSERT_FALSE(want.Interrupted());
            ASSERT_FALSE(got.Interrupted());
            ASSERT_EQ(got.status, want.status);
            EXPECT_EQ(got.telemetry.used_global_fallback,
                      want.telemetry.used_global_fallback);
            EXPECT_EQ(got.telemetry.answer_size, want.telemetry.answer_size);
            fallbacks += want.telemetry.used_global_fallback ? 1 : 0;
            if (!want.has_value()) continue;
            EXPECT_EQ(got->min_degree, want->min_degree);
            EXPECT_EQ(SortedMembers(got), SortedMembers(want));
            ASSERT_FALSE(got->members.empty());
            EXPECT_EQ(got->members[0], v0);
            EXPECT_EQ(want->members[0], v0);
            if (got.telemetry.used_global_fallback) {
              const uint32_t node = index.AncestorAtLevel(v0, k);
              above_k += index.node_level()[node] > k ? 1 : 0;
              std::vector<VertexId> order = ReferenceLeaves(index, node);
              std::iter_swap(order.begin(),
                             std::find(order.begin(), order.end(), v0));
              EXPECT_EQ(got->members, order);
            }
          }
        }
      }
    }
  }
  // The zoo must actually exercise the plan, not just local successes,
  // including components whose δ lies above k.
  EXPECT_GT(fallbacks, 100u);
  EXPECT_GT(above_k, 0u);
}

// ---------------------------------------------------------------------
// CoreIndex leaf layout and δ = node level, for an index built from the
// graph and for the same index after a .limg write and load (the layout
// is derived at load, not stored): every node's slice equals the
// reference stack DFS, and for every reachable (node, k) the node's
// level equals the recomputed minimum of |N(u) ∩ {core >= k}| over its
// leaves — the component's δ, since within the k-core those neighbors
// are exactly u's neighbors in the component.
// ---------------------------------------------------------------------
void ExpectLayoutAndDelta(const Graph& graph, const CoreIndex& index) {
  for (uint32_t node = 0; node < index.NumTreeNodes(); ++node) {
    SCOPED_TRACE("node=" + std::to_string(node));
    const std::span<const VertexId> slice = index.SubtreeLeaves(node);
    EXPECT_EQ(std::vector<VertexId>(slice.begin(), slice.end()),
              ReferenceLeaves(index, node));
  }
  std::set<std::pair<uint32_t, uint32_t>> checked;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (uint32_t k = 1; k <= index.CoreNumber(v); ++k) {
      const uint32_t node = index.AncestorAtLevel(v, k);
      if (!checked.emplace(node, k).second) continue;
      SCOPED_TRACE("v=" + std::to_string(v) + " k=" + std::to_string(k) +
                   " node=" + std::to_string(node));
      uint32_t delta = std::numeric_limits<uint32_t>::max();
      for (const VertexId u : index.SubtreeLeaves(node)) {
        uint32_t degree = 0;
        for (const VertexId w : graph.Neighbors(u)) {
          degree += index.CoreNumber(w) >= k ? 1u : 0u;
        }
        delta = std::min(delta, degree);
      }
      EXPECT_EQ(index.node_level()[node], delta);
    }
  }
  EXPECT_FALSE(checked.empty());
}

TEST(PropertyCoreIndex, LeafLayoutAndDeltaSurviveImageRoundTrip) {
  for (const GraphCase& c : IndexPlanGraphs()) {
    SCOPED_TRACE(c.label);
    const CoreIndex built(c.graph);
    {
      SCOPED_TRACE("built");
      ExpectLayoutAndDelta(c.graph, built);
    }
    const std::string path = testing::TempPath(c.label + ".limg");
    IoError error;
    ASSERT_TRUE(store::WriteGraphImage(c.graph, GraphFacts::Compute(c.graph),
                                       OrderedAdjacency(c.graph), built, path,
                                       &error))
        << error.message;
    const std::optional<store::LoadedImage> loaded =
        store::LoadGraphImage(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error.message;
    SCOPED_TRACE("loaded");
    ExpectLayoutAndDelta(loaded->graph, loaded->index);
  }
}

// ---------------------------------------------------------------------
// Local CSM solutions 1 and 2 with the budget disabled (γ → −∞, the
// exhaustive regime of Theorem 6) vs the global optimum δ = core(v0).
// ---------------------------------------------------------------------
TEST(PropertyCsm, ExhaustiveLocalMatchesGlobalOptimum) {
  const double kNoBudget = -std::numeric_limits<double>::infinity();
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCsmSolver solver(c.graph, &ordered, &facts);
    const CoreDecomposition cores = ComputeCores(c.graph);
    for (const VertexId v0 : QueryVertices(c.graph)) {
      SCOPED_TRACE(c.label + " v0=" + std::to_string(v0));
      const SearchResult global = GlobalCsm(c.graph, v0);
      ASSERT_TRUE(global.has_value());
      ASSERT_EQ(global->min_degree, cores.core[v0]);

      CsmOptions csm1;
      csm1.candidate_rule = CsmCandidateRule::kFromVisited;
      csm1.gamma = kNoBudget;
      CsmOptions csm2;
      csm2.candidate_rule = CsmCandidateRule::kFromNaive;
      for (const CsmOptions& options : {csm1, csm2}) {
        SCOPED_TRACE(options.candidate_rule ==
                             CsmCandidateRule::kFromVisited
                         ? "csm1-exhaustive"
                         : "csm2");
        const SearchResult local = solver.Solve(v0, options);
        ASSERT_FALSE(local.Interrupted());
        ASSERT_TRUE(local.has_value());
        // Exact regimes must reach the optimal goodness, and the answer
        // must be a genuine community achieving it.
        EXPECT_EQ(local->min_degree, global->min_degree);
        const std::string err =
            validate::CheckCommunity(c.graph, *local.community, {v0});
        EXPECT_TRUE(err.empty()) << err;
      }

      // A finite γ budget may reduce quality but never exceeds the
      // optimum and never produces an unsound community.
      for (const double gamma : {0.0, 1.0}) {
        CsmOptions options;
        options.candidate_rule = CsmCandidateRule::kFromVisited;
        options.gamma = gamma;
        const SearchResult local = solver.Solve(v0, options);
        ASSERT_TRUE(local.has_value());
        EXPECT_LE(local->min_degree, global->min_degree);
        const std::string err =
            validate::CheckCommunity(c.graph, *local.community, {v0});
        EXPECT_TRUE(err.empty()) << err;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Telemetry differential: the per-phase counters must (a) project onto
// the legacy QueryStats exactly, (b) be identical with timing on and
// off (the recorder must never change what the solver does), and (c)
// describe the answer (answer_size, fallback flag).
// ---------------------------------------------------------------------
void ExpectSameCounters(const obs::QueryTelemetry& a,
                        const obs::QueryTelemetry& b) {
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const obs::PhaseStats& pa = a.phases[i];
    const obs::PhaseStats& pb = b.phases[i];
    SCOPED_TRACE("phase=" + std::string(obs::PhaseName(
                                static_cast<obs::Phase>(i))));
    EXPECT_EQ(pa.entered, pb.entered);
    EXPECT_EQ(pa.vertices_visited, pb.vertices_visited);
    EXPECT_EQ(pa.edges_scanned, pb.edges_scanned);
    EXPECT_EQ(pa.candidates_generated, pb.candidates_generated);
    EXPECT_EQ(pa.candidates_rejected, pb.candidates_rejected);
    EXPECT_EQ(pa.budget_spent, pb.budget_spent);
  }
  EXPECT_EQ(a.used_global_fallback, b.used_global_fallback);
  EXPECT_EQ(a.answer_size, b.answer_size);
}

TEST(PropertyTelemetry, CountersProjectExactlyAndTimingIsInert) {
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCstSolver cst(c.graph, &ordered, &facts);
    LocalCsmSolver csm(c.graph, &ordered, &facts);
    obs::AggregateRecorder aggregate;
    uint64_t expected_queries = 0;
    for (const VertexId v0 : QueryVertices(c.graph)) {
      for (uint32_t k = 1; k <= 4; ++k) {
        SCOPED_TRACE(c.label + " v0=" + std::to_string(v0) +
                     " k=" + std::to_string(k));
        // Pass 1: default null recorder (timing off).
        cst.set_recorder(nullptr);
        QueryStats stats;
        const SearchResult plain = cst.Solve(v0, k, {}, &stats);
        // (a) exact projection.
        EXPECT_EQ(plain.telemetry.TotalVisited(), stats.visited_vertices);
        EXPECT_EQ(plain.telemetry.TotalScanned(), stats.scanned_edges);
        EXPECT_EQ(plain.telemetry.used_global_fallback,
                  stats.used_global_fallback);
        EXPECT_EQ(plain.telemetry.answer_size, stats.answer_size);
        // (c) telemetry describes the answer.
        EXPECT_EQ(plain.telemetry.answer_size,
                  plain.has_value() ? plain->members.size() : 0u);
        EXPECT_EQ(plain.telemetry.TotalDurationNs(), 0u);

        // Pass 2: timing-enabled aggregate recorder attached.
        cst.set_recorder(&aggregate);
        ++expected_queries;
        const SearchResult timed = cst.Solve(v0, k);
        EXPECT_EQ(timed.has_value(), plain.has_value());
        if (timed.has_value()) {
          EXPECT_EQ(timed->members, plain->members);
          EXPECT_EQ(timed->min_degree, plain->min_degree);
        }
        // (b) identical counters whether or not the clock runs.
        ExpectSameCounters(timed.telemetry, plain.telemetry);
      }
      // Same invariants through the CSM solver.
      SCOPED_TRACE(c.label + " csm v0=" + std::to_string(v0));
      csm.set_recorder(nullptr);
      QueryStats stats;
      const SearchResult plain = csm.Solve(v0, {}, &stats);
      EXPECT_EQ(plain.telemetry.TotalVisited(), stats.visited_vertices);
      EXPECT_EQ(plain.telemetry.TotalScanned(), stats.scanned_edges);
      csm.set_recorder(&aggregate);
      ++expected_queries;
      const SearchResult timed = csm.Solve(v0, {});
      ASSERT_EQ(timed.has_value(), plain.has_value());
      if (timed.has_value()) {
        EXPECT_EQ(timed->members, plain->members);
      }
      ExpectSameCounters(timed.telemetry, plain.telemetry);
    }
    // The aggregate saw exactly the timed queries.
    const obs::AggregateRecorder::Totals totals = aggregate.Snapshot();
    EXPECT_EQ(totals.queries, expected_queries);
  }
}

}  // namespace
}  // namespace locs
