// Tests for the parallel batch query runner: results must equal the
// sequential solver's, for any thread count.

#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include "core/local_csm.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

class ParallelBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelBatchTest, CstBatchMatchesSequential) {
  Graph g = gen::ErdosRenyiGnp(200, 0.05, 7);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);

  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); v += 3) queries.push_back(v);

  BatchOptions options;
  options.num_threads = GetParam();
  const auto batch =
      SolveCstBatch(g, &ordered, &facts, queries, 3, options);

  LocalCstSolver solver(g, &ordered, &facts);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto expect = solver.Solve(queries[i], 3);
    ASSERT_EQ(batch[i].has_value(), expect.has_value()) << "i=" << i;
    if (expect.has_value()) {
      EXPECT_EQ(ToSet(batch[i]->members), ToSet(expect->members));
    }
  }
}

TEST_P(ParallelBatchTest, CsmBatchMatchesSequential) {
  gen::LfrParams params;
  params.n = 400;
  params.min_degree = 3;
  params.max_degree = 20;
  params.min_community = 10;
  params.max_community = 50;
  params.seed = 5;
  Graph g = gen::Lfr(params).graph;
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);

  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); v += 11) queries.push_back(v);

  const auto batch = SolveCsmBatch(g, &ordered, &facts, queries, {},
                                   GetParam());
  LocalCsmSolver solver(g, &ordered, &facts);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i].min_degree,
              solver.Solve(queries[i])->min_degree)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelBatchTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u));

// The batch entry points must be deterministic and thread-count
// invariant: byte-identical member vectors (same order, same values) for
// num_threads in {1, 2, 8}, all equal to a serial loop over one reused
// solver.
TEST(ParallelBatchTest, CstBatchByteIdenticalAcrossThreadCounts) {
  Graph g = gen::ErdosRenyiGnp(250, 0.05, 23);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); ++v) queries.push_back(v);

  LocalCstSolver solver(g, &ordered, &facts);
  std::vector<std::optional<Community>> serial;
  for (VertexId v : queries) {
    serial.push_back(solver.Solve(v, 4).community);
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    BatchOptions options;
    options.num_threads = threads;
    const auto batch = SolveCstBatch(g, &ordered, &facts, queries, 4,
                                     options);
    ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(batch[i].has_value(), serial[i].has_value())
          << "threads=" << threads << " i=" << i;
      if (!serial[i].has_value()) continue;
      EXPECT_EQ(batch[i]->members, serial[i]->members)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(batch[i]->min_degree, serial[i]->min_degree);
    }
  }
}

TEST(ParallelBatchTest, CsmBatchByteIdenticalAcrossThreadCounts) {
  Graph g = gen::ErdosRenyiGnp(200, 0.06, 29);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); v += 2) queries.push_back(v);

  LocalCsmSolver solver(g, &ordered, &facts);
  std::vector<Community> serial;
  for (VertexId v : queries) serial.push_back(*solver.Solve(v));

  for (unsigned threads : {1u, 2u, 8u}) {
    const auto batch =
        SolveCsmBatch(g, &ordered, &facts, queries, {}, threads);
    ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(batch[i].members, serial[i].members)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(batch[i].min_degree, serial[i].min_degree);
    }
  }
}

TEST(ParallelBatchTest, EmptyQueriesAndSingletons) {
  Graph g = gen::ErdosRenyiGnp(30, 0.2, 1);
  const GraphFacts facts = GraphFacts::Compute(g);
  EXPECT_TRUE(SolveCstBatch(g, nullptr, &facts, {}, 2).empty());
  const auto one = SolveCstBatch(g, nullptr, &facts, {5}, 2);
  ASSERT_EQ(one.size(), 1u);
  // More threads than work items must not crash or deadlock.
  BatchOptions options;
  options.num_threads = 16;
  const auto two = SolveCstBatch(g, nullptr, &facts, {1, 2}, 2, options);
  EXPECT_EQ(two.size(), 2u);
}

}  // namespace
}  // namespace locs
