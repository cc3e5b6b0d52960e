// Death tests: API misuse must trap loudly through LOCS_CHECK rather than
// corrupt state (the library is exception-free by design).

#include <gtest/gtest.h>

#include "core/core_index.h"
#include "gen/classic.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "util/check.h"

namespace locs {
namespace {

TEST(CheckDeathTest, CheckMacroAborts) {
  EXPECT_DEATH(LOCS_CHECK(1 == 2), "LOCS_CHECK failed");
  EXPECT_DEATH(LOCS_CHECK_MSG(false, "context"), "context");
  EXPECT_DEATH(LOCS_CHECK_LT(5, 3), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, BuilderRejectsOutOfRangeVertex) {
  GraphBuilder builder(3);
  EXPECT_DEATH(builder.AddEdge(0, 3), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, FromCsrRejectsMalformedOffsets) {
  EXPECT_DEATH(Graph::FromCsr({}, {}), "LOCS_CHECK failed");
  EXPECT_DEATH(Graph::FromCsr({1, 2}, {0, 0}), "LOCS_CHECK failed");
  // Offsets must end at the neighbor count.
  EXPECT_DEATH(Graph::FromCsr({0, 1}, {}), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, Figure1LabelBounds) {
  EXPECT_DEATH(gen::Figure1Vertex('z'), "LOCS_CHECK failed");
  EXPECT_DEATH(gen::Figure1Label(14), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, CycleRequiresThreeVertices) {
  EXPECT_DEATH(gen::Cycle(2), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, CoreIndexRejectsOutOfRangeVertex) {
  // The merge tree has more node slots than vertices; an id past the
  // vertices must trap even where it still names a tree node.
  const CoreIndex index(gen::Barbell(5, 1));
  const auto n = static_cast<VertexId>(index.NumVertices());
  const auto last_node = static_cast<VertexId>(index.NumTreeNodes() - 1);
  ASSERT_GE(last_node, n);
  for (const VertexId v : {n, last_node}) {
    EXPECT_DEATH(index.CoreNumber(v), "LOCS_CHECK failed");
    EXPECT_DEATH(index.HasCst(v, 1), "LOCS_CHECK failed");
    EXPECT_DEATH(index.AncestorAtLevel(v, 1), "LOCS_CHECK failed");
    EXPECT_DEATH(index.CstMembers(v, 1), "LOCS_CHECK failed");
    EXPECT_DEATH(index.Csm(v), "LOCS_CHECK failed");
  }
}

}  // namespace
}  // namespace locs
