// Tests for the local CST framework (§4): all three candidate-selection
// strategies, with and without the ordered-adjacency optimization, must
// agree with global search on feasibility, and every returned community
// must be valid. Includes the paper's worked examples.

#include "core/local_cst.h"

#include <gtest/gtest.h>

#include "core/global.h"
#include "gen/classic.h"
#include "graph/builder.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/powerlaw.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

struct Config {
  Strategy strategy;
  bool ordered;
};

void PrintTo(const Config& config, std::ostream* os) {
  testing::PrintBytesWithZeroPadding(config, os, &Config::strategy,
                                     &Config::ordered);
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name(StrategyName(info.param.strategy));
  name += info.param.ordered ? "_ordered" : "_plain";
  return name;
}

class LocalCstStrategyTest : public ::testing::TestWithParam<Config> {
 protected:
  SearchResult Solve(const Graph& g, VertexId v0, uint32_t k,
                     QueryStats* stats = nullptr) {
    const GraphFacts facts = GraphFacts::Compute(g);
    std::optional<OrderedAdjacency> ordered;
    if (GetParam().ordered) ordered.emplace(g);
    LocalCstSolver solver(g, ordered ? &*ordered : nullptr, &facts);
    CstOptions options;
    options.strategy = GetParam().strategy;
    options.use_ordered_adjacency = GetParam().ordered;
    return solver.Solve(v0, k, options, stats);
  }
};

TEST_P(LocalCstStrategyTest, CliqueAllThresholds) {
  Graph g = gen::Clique(7);
  for (uint32_t k = 0; k <= 6; ++k) {
    const auto result = Solve(g, 3, k);
    ASSERT_TRUE(result.has_value()) << "k=" << k;
    EXPECT_TRUE(IsValidCommunity(g, result->members, 3, k));
  }
  EXPECT_FALSE(Solve(g, 3, 7).has_value());
}

TEST_P(LocalCstStrategyTest, ThresholdZeroIsSingleton) {
  Graph g = gen::Path(5);
  const auto result = Solve(g, 2, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members, std::vector<VertexId>{2});
}

TEST_P(LocalCstStrategyTest, LowDegreeQueryRejectedImmediately) {
  Graph g = gen::Star(10);
  QueryStats stats;
  EXPECT_FALSE(Solve(g, 1, 2, &stats).has_value());
  EXPECT_EQ(stats.visited_vertices, 0u);  // Proposition 3 pruning
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryA) {
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto cst3 = Solve(g, v('a'), 3);
  ASSERT_TRUE(cst3.has_value());
  // {a,b,c,d,e} is the unique CST(3) answer for a (Example 4).
  EXPECT_EQ(ToSet(cst3->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  const auto cst2 = Solve(g, v('a'), 2);
  ASSERT_TRUE(cst2.has_value());
  EXPECT_TRUE(IsValidCommunity(g, cst2->members, v('a'), 2));
  EXPECT_FALSE(Solve(g, v('a'), 4).has_value());
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryE) {
  // Example 7's setting: query e with k = 3.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  QueryStats stats;
  const auto result = Solve(g, v('e'), 3, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('e'), 3));
  EXPECT_GE(result->min_degree, 3u);
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryG4Core) {
  // CST(4) for g: any valid answer is a subset of the 4-core {g,...,l}
  // (Lemma 3); local search may legitimately stop at the inner K5.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto result = Solve(g, v('g'), 4);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('g'), 4));
  const auto four_core =
      ToSet({v('g'), v('h'), v('i'), v('j'), v('k'), v('l')});
  for (VertexId member : result->members) {
    EXPECT_TRUE(four_core.count(member) > 0);
  }
}

TEST_P(LocalCstStrategyTest, DisconnectedGraphStaysInComponent) {
  // Two K4s, no connection: a query in one must never see the other.
  GraphBuilder builder(8);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 4, v + 4);
    }
  }
  Graph g = builder.Build();
  const auto result = Solve(g, 0, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members), ToSet({0, 1, 2, 3}));
  // The Theorem-3 bound must not mis-prune disconnected graphs: global
  // excess is 12-8=4 => bound floor((1+sqrt(41))/2)=3, achievable here.
  EXPECT_TRUE(Solve(g, 4, 3).has_value());
}

TEST_P(LocalCstStrategyTest, BridgeVertexNeedsFallback) {
  // Query f in Figure 1 with k = 2: every early candidate set that
  // includes f's tail fails, exercising the global-fallback path.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto result = Solve(g, v('f'), 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('f'), 2));
}

TEST_P(LocalCstStrategyTest, InfeasibleQueryReturnsNullAfterExhaustion) {
  // Star center has high degree but no 2-connected neighborhood.
  Graph g = gen::Star(30);
  QueryStats stats;
  EXPECT_FALSE(Solve(g, 0, 2, &stats).has_value());
}

TEST_P(LocalCstStrategyTest, AgreesWithGlobalOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Graph g = gen::ErdosRenyiGnp(60, 0.12, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 5) {
      for (uint32_t k = 1; k <= 8; ++k) {
        const auto local = Solve(g, v0, k);
        const auto global = GlobalCst(g, v0, k);
        ASSERT_EQ(local.has_value(), global.has_value())
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        if (local.has_value()) {
          EXPECT_TRUE(IsValidCommunity(g, local->members, v0, k));
          EXPECT_GE(local->min_degree, k);
          // The local answer is never larger than the maximal (global)
          // answer (Lemma 3: every solution is a subset of Ck).
          EXPECT_LE(local->members.size(), global->members.size());
        }
      }
    }
  }
}

TEST_P(LocalCstStrategyTest, AgreesWithGlobalOnLfr) {
  gen::LfrParams params;
  params.n = 400;
  params.min_degree = 4;
  params.max_degree = 30;
  params.min_community = 15;
  params.max_community = 80;
  params.seed = 2024;
  const gen::LfrGraph lfr = gen::Lfr(params);
  const Graph& g = lfr.graph;
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 29) {
    for (uint32_t k : {2u, 4u, 6u, 10u}) {
      const auto local = Solve(g, v0, k);
      const auto global = GlobalCst(g, v0, k);
      ASSERT_EQ(local.has_value(), global.has_value())
          << "v0=" << v0 << " k=" << k;
      if (local.has_value()) {
        EXPECT_TRUE(IsValidCommunity(g, local->members, v0, k));
      }
    }
  }
}

TEST_P(LocalCstStrategyTest, VisitedNeverExceedsEligibleVertices) {
  // n' <= |V>=k| (§4.2.3's tighter candidate bound).
  Graph g = gen::PowerLawGraph(500, 2.0, 2, 40, 99);
  const uint32_t k = 5;
  uint64_t eligible = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    eligible += g.Degree(v) >= k;
  }
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 61) {
    if (g.Degree(v0) < k) continue;
    QueryStats stats;
    Solve(g, v0, k, &stats);
    EXPECT_LE(stats.visited_vertices, eligible);
  }
}

TEST_P(LocalCstStrategyTest, RepeatedQueriesAreIndependent) {
  // The epoch-reset machinery must give identical answers across repeats
  // and across interleaved different queries.
  Graph g = gen::ErdosRenyiGnp(80, 0.1, 5);
  const GraphFacts facts = GraphFacts::Compute(g);
  std::optional<OrderedAdjacency> ordered;
  if (GetParam().ordered) ordered.emplace(g);
  LocalCstSolver solver(g, ordered ? &*ordered : nullptr, &facts);
  CstOptions options;
  options.strategy = GetParam().strategy;
  options.use_ordered_adjacency = GetParam().ordered;

  std::vector<SearchResult> first;
  for (VertexId v0 = 0; v0 < 20; ++v0) {
    first.push_back(solver.Solve(v0, 3, options));
  }
  for (int round = 0; round < 3; ++round) {
    for (VertexId v0 = 0; v0 < 20; ++v0) {
      const auto again = solver.Solve(v0, 3, options);
      ASSERT_EQ(again.has_value(), first[v0].has_value());
      if (again.has_value()) {
        EXPECT_EQ(ToSet(again->members), ToSet(first[v0]->members));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, LocalCstStrategyTest,
    ::testing::Values(Config{Strategy::kNaive, false},
                      Config{Strategy::kNaive, true},
                      Config{Strategy::kLG, false},
                      Config{Strategy::kLG, true},
                      Config{Strategy::kLI, false},
                      Config{Strategy::kLI, true}),
    ConfigName);

TEST(LocalCstLiTest, PaperExample7IntelligentSelection) {
  // With li selection and lowest-id tie-breaking, the query e / CST(3)
  // search finds {e,a,d,b,c} in 5 steps (Figure 4(b)).
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  CstOptions options;
  options.strategy = Strategy::kLI;
  QueryStats stats;
  const auto result = solver.Solve(v('e'), 3, options, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  EXPECT_EQ(stats.visited_vertices, 5u);
  EXPECT_FALSE(stats.used_global_fallback);
}

TEST(LocalCstNaiveTest, PaperExample7NaiveExhaustsCandidates) {
  // Naive FIFO selection admits f early and must exhaust all 12 eligible
  // vertices (V - {m,n}) before the global fallback resolves the query.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  CstOptions options;
  options.strategy = Strategy::kNaive;
  QueryStats stats;
  const auto result = solver.Solve(v('e'), 3, options, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  EXPECT_EQ(stats.visited_vertices, 12u);
  EXPECT_TRUE(stats.used_global_fallback);
}

TEST(LocalCstStatsTest, FallbackFlagFalseOnDirectHit) {
  Graph g = gen::Clique(10);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  QueryStats stats;
  ASSERT_TRUE(solver.Solve(0, 4, {}, &stats).has_value());
  EXPECT_FALSE(stats.used_global_fallback);
  EXPECT_EQ(stats.answer_size, 5u);  // li stops as soon as δ(C) reaches 4
}

}  // namespace
}  // namespace locs
