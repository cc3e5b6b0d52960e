// Tests for graph persistence: the edge-list and METIS text formats, and
// the binary image format through the store's format dispatch.

#include "graph/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/invariants.h"
#include "store/graph_file.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::TempPath;

TEST(EdgeListIoTest, RoundTrip) {
  Graph original = gen::ErdosRenyiGnp(50, 0.1, 7);
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(original, path));
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  // Vertex ids may be remapped (isolated vertices are dropped by the
  // edge-list format), but edge count and degree multiset survive.
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  EXPECT_EQ(ValidateGraph(*loaded), "");
}

TEST(EdgeListIoTest, ParsesSnapStyleComments) {
  const std::string path = TempPath("snap.txt");
  {
    std::ofstream out(path);
    out << "# SNAP-style header\n";
    out << "% another comment style\n";
    out << "10 20\n20 30\n30 10\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->MinDegree(), 2u);
}

TEST(EdgeListIoTest, CompactsSparseIds) {
  const std::string path = TempPath("sparse_ids.txt");
  {
    std::ofstream out(path);
    out << "1000000 2000000\n2000000 3000000\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
}

TEST(EdgeListIoTest, IdsFollowFirstSeenOrderWithinALine) {
  // "5 7" introduces two vertices on one line: 5 is seen first, so it
  // must become id 0 (an unsequenced intern(u)/intern(v) pair may number
  // 7 first).
  const std::string path = TempPath("first_seen.txt");
  {
    std::ofstream out(path);
    out << "5 7\n7 9\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->NumVertices(), 3u);
  // 5 -> 0, 7 -> 1, 9 -> 2: the path 0 - 1 - 2.
  EXPECT_EQ(loaded->Degree(0), 1u);
  EXPECT_EQ(loaded->Degree(1), 2u);
  EXPECT_EQ(loaded->Degree(2), 1u);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(1, 2));
}

TEST(EdgeListIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadEdgeList("/nonexistent/path/graph.txt").has_value());
}

TEST(EdgeListIoTest, LongCommentAndEdgeLinesSurvive) {
  // Lines longer than any fixed stack buffer (SNAP headers routinely
  // exceed 256 chars) must neither split nor abort the load.
  const std::string path = TempPath("long_lines.txt");
  {
    std::ofstream out(path);
    out << "# " << std::string(2000, 'x') << "\n";
    out << "% " << std::string(5000, 'y') << "\n";
    out << "10 20" << std::string(600, ' ') << "\n";  // trailing blanks
    out << std::string(300, ' ') << "20 30\n";        // leading blanks
    out << "30 10\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
}

TEST(EdgeListIoTest, CrlfAndBlankLinesAreTolerated) {
  const std::string path = TempPath("crlf.txt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "# exported on windows\r\n";
    out << "10 20\r\n";
    out << "\r\n";       // CR-only blank line
    out << "   \n";      // whitespace-only line
    out << "20 30\r\n";
    out << "30 10";      // final line without newline
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->MinDegree(), 2u);
}

TEST(EdgeListIoTest, FullRangeIdsRoundThroughParsing) {
  // Values beyond 32 bits exercise the strtoull path (the old %lu sscanf
  // was UB on LLP64 targets).
  const std::string path = TempPath("wide_ids.txt");
  {
    std::ofstream out(path);
    out << "8589934592 17179869184\n";   // 2^33, 2^34
    out << "17179869184 8589934593\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 2u);
}

TEST(EdgeListIoTest, MalformedLineFails) {
  const std::string path = TempPath("bad.txt");
  {
    std::ofstream out(path);
    out << "1 2\nnot numbers\n";
  }
  EXPECT_FALSE(LoadEdgeList(path).has_value());
}

// The binary format is the graph image (store/image.h), read and written
// here through the store's format dispatch (store/graph_file.h).

TEST(BinaryIoTest, ExactRoundTrip) {
  Graph original = gen::ErdosRenyiGnp(200, 0.05, 11);
  const std::string path = TempPath("graph.limg");
  ASSERT_TRUE(store::SaveGraphFile(original, path));
  const auto loaded = store::LoadGraphFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->format, store::GraphFormat::kImage);
  EXPECT_EQ(loaded->graph.offsets(), original.offsets());
  EXPECT_EQ(loaded->graph.neighbors(), original.neighbors());
}

TEST(BinaryIoTest, PreservesIsolatedVertices) {
  Graph original = BuildGraph(10, {{0, 1}});
  const std::string path = TempPath("isolated.limg");
  ASSERT_TRUE(store::SaveGraphFile(original, path));
  const auto loaded = store::LoadGraphFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.NumVertices(), 10u);
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
}

TEST(BinaryIoTest, RejectsBadMagic) {
  const std::string path = TempPath("junk.limg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a locs graph file at all, padding padding";
  }
  EXPECT_FALSE(store::LoadGraphFile(path).has_value());
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  Graph original = gen::Clique(20);
  const std::string path = TempPath("trunc.limg");
  ASSERT_TRUE(store::SaveGraphFile(original, path));
  // Truncate the file to half its size.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(store::LoadGraphFile(path).has_value());
}

TEST(BinaryIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      store::LoadGraphFile("/nonexistent/path/graph.limg").has_value());
}

TEST(MetisIoTest, RoundTrip) {
  Graph original = gen::ErdosRenyiGnp(60, 0.1, 13);
  const std::string path = TempPath("graph.metis");
  ASSERT_TRUE(SaveMetis(original, path));
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->offsets(), original.offsets());
  EXPECT_EQ(loaded->neighbors(), original.neighbors());
}

TEST(MetisIoTest, ParsesCommentsAndHeader) {
  const std::string path = TempPath("hand.metis");
  {
    std::ofstream out(path);
    out << "% a triangle plus a pendant\n";
    out << "4 4\n";
    out << "2 3\n";
    out << "1 3\n";
    out << "1 2 4\n";
    out << "3\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 4u);
  EXPECT_EQ(loaded->NumEdges(), 4u);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(2, 3));
  EXPECT_FALSE(loaded->HasEdge(0, 3));
}

TEST(MetisIoTest, ToleratesDoubledEdgeCountHeader) {
  // Some writers store 2m (both edge directions) in the header.
  const std::string path = TempPath("twom.metis");
  {
    std::ofstream out(path);
    out << "3 6\n";  // a triangle has 3 edges; header says 2*3
    out << "2 3\n";
    out << "1 3\n";
    out << "1 2\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
}

TEST(MetisIoTest, CrlfAndLongVertexLinesSurvive) {
  // A CRLF file with one adjacency line far beyond any fixed buffer: a
  // star center adjacent to 20k leaves (~120KB on one line).
  const VertexId leaves = 20000;
  const std::string path = TempPath("crlf_star.metis");
  {
    std::ofstream out(path, std::ios::binary);
    out << "% windows line endings\r\n";
    out << (leaves + 1) << " " << leaves << "\r\n";
    for (VertexId leaf = 0; leaf < leaves; ++leaf) {
      out << (leaf + 2) << (leaf + 1 < leaves ? " " : "");
    }
    out << "\r\n";
    for (VertexId leaf = 0; leaf < leaves; ++leaf) out << "1\r\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), leaves + 1);
  EXPECT_EQ(loaded->NumEdges(), uint64_t{leaves});
  EXPECT_EQ(loaded->Degree(0), leaves);
}

TEST(MetisIoTest, RejectsWeightedFormat) {
  const std::string path = TempPath("weighted.metis");
  {
    std::ofstream out(path);
    out << "2 1 011\n1 2\n2 1\n";
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, RejectsOutOfRangeNeighbor) {
  const std::string path = TempPath("badid.metis");
  {
    std::ofstream out(path);
    out << "2 1\n2\n3\n";
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, RejectsTruncatedVertexLines) {
  const std::string path = TempPath("short.metis");
  {
    std::ofstream out(path);
    out << "3 2\n2\n1 3\n";  // third vertex line missing
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, IsolatedVerticesViaEmptyLines) {
  Graph original = BuildGraph(5, {{0, 4}});
  const std::string path = TempPath("isolated.metis");
  ASSERT_TRUE(SaveMetis(original, path));
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 5u);
  EXPECT_EQ(loaded->NumEdges(), 1u);
}

TEST(EdgeListIoTest, EmptyGraphRoundTrip) {
  Graph empty = BuildGraph(0, {});
  const std::string path = TempPath("empty.txt");
  ASSERT_TRUE(SaveEdgeList(empty, path));
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 0u);
}

// ---------------------------------------------------------------------------
// IoError detail: every loader distinguishes file-missing from malformed
// content and from truncation, with a line number for text parse errors.

TEST(IoErrorTest, MissingFileReportsOpenKindInEveryFormat) {
  IoError error;
  EXPECT_FALSE(LoadEdgeList(TempPath("nope.txt"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_FALSE(error.message.empty());

  EXPECT_FALSE(LoadMetis(TempPath("nope.metis"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);

  EXPECT_FALSE(
      store::LoadGraphFile(TempPath("nope.limg"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
}

TEST(IoErrorTest, SuccessfulLoadResetsStaleError) {
  const std::string path = TempPath("reset.txt");
  {
    std::ofstream out(path);
    out << "0 1\n";
  }
  IoError error;
  error.kind = IoErrorKind::kParse;
  error.message = "stale";
  error.line = 99;
  ASSERT_TRUE(LoadEdgeList(path, &error).has_value());
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(error.message.empty());
  EXPECT_EQ(error.line, 0u);
}

TEST(IoErrorTest, EdgeListParseErrorReportsOffendingLine) {
  const std::string path = TempPath("badline.txt");
  {
    std::ofstream out(path);
    out << "# comment\n0 1\nnot numbers\n";
  }
  IoError error;
  EXPECT_FALSE(LoadEdgeList(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 3u);
  // The message itself names the line: consumers that only forward the
  // message string (the locsd ERR detail) still localize the failure.
  EXPECT_NE(error.message.find("line 3"), std::string::npos)
      << error.message;
}

TEST(IoErrorTest, EdgeListMissingEndpointReportsParse) {
  const std::string path = TempPath("halfedge.txt");
  {
    std::ofstream out(path);
    out << "0 1\n7\n";
  }
  IoError error;
  EXPECT_FALSE(LoadEdgeList(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 2u);
  EXPECT_NE(error.message.find("line 2"), std::string::npos)
      << error.message;
}

TEST(IoErrorTest, MetisWeightedFormatIsParseError) {
  const std::string path = TempPath("weighted.metis");
  {
    std::ofstream out(path);
    out << "2 1 011\n2\n1\n";
  }
  IoError error;
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

TEST(IoErrorTest, MetisMissingVertexLinesIsTruncated) {
  const std::string path = TempPath("short.metis");
  {
    std::ofstream out(path);
    out << "3 2\n2\n1 3\n";  // header says 3 vertices, only 2 lines
  }
  IoError error;
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kTruncated);
}

TEST(IoErrorTest, BinaryBadMagicIsParseError) {
  const std::string path = TempPath("badmagic.limg");
  {
    // Longer than an image header, so the magic check decides.
    std::ofstream out(path, std::ios::binary);
    out << "NOTAGRAPHFILE_________________________________________________";
  }
  IoError error;
  EXPECT_FALSE(store::LoadGraphFile(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

TEST(IoErrorTest, BinaryTruncationIsReported) {
  Graph g = gen::Clique(6);
  const std::string path = TempPath("trunc_err.limg");
  ASSERT_TRUE(store::SaveGraphFile(g, path));
  // Chop the last section.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  IoError error;
  EXPECT_FALSE(store::LoadGraphFile(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kTruncated);
}

}  // namespace
}  // namespace locs
