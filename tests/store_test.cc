// The graph image store (src/store/): lossless round-trips, the LOADIMG
// serving path, and an adversarial parser.
//
// Three layers of guarantees under test:
//   1. differential round-trip — every array (CSR, ordered adjacency,
//      core numbers, merge tree) and every GraphFacts scalar survives
//      write+load bit-for-bit, and CST/CSM/MULTI wire replies from an
//      image-backed graph are byte-identical to the text-loaded graph;
//   2. fuzz — truncations at every interesting boundary and a bit flip
//      at *every byte position* yield a typed IoError, never a crash;
//   3. crafted corruption — images with a *valid* checksum but hostile
//      contents (wrong version, swapped endianness, out-of-range
//      adjacency, broken tree links) are rejected by the structural
//      pass.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/core_index.h"
#include "core/local_cst.h"
#include "gen/barabasi.h"
#include "gen/classic.h"
#include "graph/io.h"
#include "graph/ordering.h"
#include "serve/admission.h"
#include "serve/session.h"
#include "store/format.h"
#include "store/graph_file.h"
#include "store/image.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace locs::store {
namespace {

using testing::TempPath;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes and patches the whole-file checksum, so a test can corrupt
/// payload bytes and still get past the checksum gate — exercising the
/// structural validation layer behind it.
void FixChecksum(std::string* bytes) {
  constexpr size_t kField = offsetof(ImageHeader, checksum);
  const char zeros[sizeof(uint64_t)] = {};
  uint64_t fnv = Fnv1a64(bytes->data(), kField);
  fnv = Fnv1a64(zeros, sizeof(zeros), fnv);
  fnv = Fnv1a64(bytes->data() + kField + sizeof(uint64_t),
                bytes->size() - kField - sizeof(uint64_t), fnv);
  std::memcpy(bytes->data() + kField, &fnv, sizeof(fnv));
}

/// Absolute offset of a section's payload, read from the section table.
uint64_t SectionOffsetOf(const std::string& bytes, SectionId id) {
  for (uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(ImageHeader) +
                            i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) return entry.offset;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id)
                << " missing from table";
  return 0;
}

/// Absolute offset of a section's row in the section table itself.
uint64_t SectionEntryPos(const std::string& bytes, SectionId id) {
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const uint64_t pos = sizeof(ImageHeader) + i * sizeof(SectionEntry);
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + pos, sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) return pos;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id)
                << " missing from table";
  return 0;
}

/// Writes `graph`'s image to a temp file and returns the path.
std::string CompileToTemp(const Graph& graph, const std::string& tag) {
  const std::string path = TempPath("store_" + tag + ".limg");
  IoError error;
  EXPECT_TRUE(CompileGraphImage(graph, path, &error)) << error.message;
  return path;
}

// ---------------------------------------------------------------------------
// Round-trip: every persisted array and scalar is bit-identical.

void ExpectLosslessRoundTrip(const Graph& graph, const std::string& tag) {
  SCOPED_TRACE(tag);
  const GraphFacts facts = GraphFacts::Compute(graph);
  const OrderedAdjacency ordered(graph);
  const CoreIndex index(graph);
  const std::string path = TempPath("store_rt_" + tag + ".limg");
  IoError error;
  ASSERT_TRUE(WriteGraphImage(graph, facts, ordered, index, path, &error))
      << error.message;

  const std::optional<LoadedImage> loaded = LoadGraphImage(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error.message;
  EXPECT_TRUE(error.ok());

  EXPECT_EQ(loaded->graph.offsets(), graph.offsets());
  EXPECT_EQ(loaded->graph.neighbors(), graph.neighbors());
  EXPECT_EQ(loaded->facts.num_vertices, facts.num_vertices);
  EXPECT_EQ(loaded->facts.num_edges, facts.num_edges);
  EXPECT_EQ(loaded->facts.max_degree, facts.max_degree);
  EXPECT_EQ(loaded->facts.connected, facts.connected);
  EXPECT_EQ(loaded->ordered.offsets(), ordered.offsets());
  EXPECT_EQ(loaded->ordered.neighbors(), ordered.neighbors());
  EXPECT_EQ(loaded->index.Degeneracy(), index.Degeneracy());
  EXPECT_EQ(loaded->index.NumTreeNodes(), index.NumTreeNodes());
  EXPECT_EQ(loaded->index.core_numbers(), index.core_numbers());
  EXPECT_EQ(loaded->index.node_level(), index.node_level());
  EXPECT_EQ(loaded->index.node_parent(), index.node_parent());
  EXPECT_EQ(loaded->index.node_first_child(), index.node_first_child());
  EXPECT_EQ(loaded->index.node_next_sibling(), index.node_next_sibling());
  EXPECT_EQ(loaded->index.node_vertex(), index.node_vertex());

  // Query-level equivalence on top of the array-level identity.
  const VertexId n = graph.NumVertices();
  for (VertexId v = 0; v < n; v += (n / 7) + 1) {
    const uint32_t k = index.CoreNumber(v);
    EXPECT_EQ(loaded->index.CstMembers(v, k), index.CstMembers(v, k));
    const Community a = loaded->index.Csm(v);
    const Community b = index.Csm(v);
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.min_degree, b.min_degree);
  }
}

TEST(StoreRoundTripTest, StructuredGraphsSurviveBitForBit) {
  ExpectLosslessRoundTrip(gen::Barbell(6, 2), "barbell");
  ExpectLosslessRoundTrip(gen::Star(40), "star");
  ExpectLosslessRoundTrip(gen::PaperFigure1(), "fig1");
  ExpectLosslessRoundTrip(gen::Grid(9, 7), "grid");
}

TEST(StoreRoundTripTest, PowerLawGraphSurvivesBitForBit) {
  ExpectLosslessRoundTrip(gen::BarabasiAlbert(1500, 3, /*seed=*/7), "ba");
}

TEST(StoreRoundTripTest, DegenerateGraphsSurvive) {
  ExpectLosslessRoundTrip(Graph::FromCsr({0}, {}), "empty");
  ExpectLosslessRoundTrip(Graph::FromCsr({0, 0, 0}, {}), "isolated");
  ExpectLosslessRoundTrip(Graph::FromCsr({0, 1, 2}, {1, 0}), "one_edge");
}

TEST(StoreRoundTripTest, SniffRecognizesImagesByContentNotExtension) {
  const Graph graph = gen::Barbell(4, 0);
  const std::string odd_name = TempPath("store_sniff.dat");
  IoError error;
  ASSERT_TRUE(CompileGraphImage(graph, odd_name, &error)) << error.message;
  EXPECT_EQ(DetectGraphFormat(odd_name), GraphFormat::kImage);

  const std::string text = TempPath("store_sniff.txt");
  ASSERT_TRUE(SaveEdgeList(graph, text));
  EXPECT_EQ(DetectGraphFormat(text), GraphFormat::kEdgeList);
  EXPECT_EQ(DetectGraphFormat(TempPath("store_sniff_missing")),
            GraphFormat::kEdgeList);
}

TEST(StoreGraphFileTest, NameDecidesUnlessTheContentIsAnImage) {
  const Graph graph = gen::Barbell(4, 1);
  const std::string image = TempPath("store_rule.limg");
  const std::string metis = TempPath("store_rule.graph");
  const std::string text = TempPath("store_rule.metis.txt");
  for (const auto& [path, format] :
       {std::pair{image, GraphFormat::kImage},
        std::pair{metis, GraphFormat::kMetis},
        std::pair{text, GraphFormat::kEdgeList}}) {
    ASSERT_TRUE(SaveGraphFile(graph, path)) << path;
    const std::optional<GraphFile> file = LoadGraphFile(path);
    ASSERT_TRUE(file.has_value()) << path;
    EXPECT_EQ(file->format, format) << path;
    EXPECT_EQ(file->graph.NumEdges(), graph.NumEdges()) << path;
    EXPECT_EQ(file->image.has_value(), format == GraphFormat::kImage);
  }
  // The magic beats the name; a forced format skips detection.
  const std::string renamed = TempPath("store_rule_image.metis");
  ASSERT_TRUE(CompileGraphImage(graph, renamed));
  EXPECT_EQ(DetectGraphFormat(renamed), GraphFormat::kImage);
  IoError error;
  EXPECT_FALSE(LoadGraphFile(text, &error, GraphFormat::kImage).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

// ---------------------------------------------------------------------------
// Fuzz: truncation and exhaustive single-byte corruption.

TEST(StoreFuzzTest, TruncationAtEveryBoundaryIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(5, 1), "trunc_src");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), sizeof(ImageHeader));

  const size_t cuts[] = {0,
                         1,
                         sizeof(ImageHeader) - 1,
                         sizeof(ImageHeader),
                         sizeof(ImageHeader) + sizeof(SectionEntry) - 3,
                         sizeof(ImageHeader) +
                             kNumSections * sizeof(SectionEntry),
                         bytes.size() / 2,
                         bytes.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE(cut);
    const std::string cut_path = TempPath("store_cut.limg");
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    IoError error;
    EXPECT_FALSE(LoadGraphImage(cut_path, &error).has_value());
    EXPECT_NE(error.kind, IoErrorKind::kNone);
    EXPECT_FALSE(error.message.empty());
  }
}

TEST(StoreFuzzTest, BitFlipAtEveryPositionIsRejected) {
  // Small graph so the image stays a few hundred bytes: one load per
  // byte position. Every byte is covered by a header gate or the
  // whole-file checksum, so every flip must be caught.
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "flip_src");
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = TempPath("store_flip.limg");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFileBytes(flip_path, corrupt);
    IoError error;
    ASSERT_FALSE(LoadGraphImage(flip_path, &error).has_value())
        << "flip at byte " << pos << " was accepted";
    ASSERT_NE(error.kind, IoErrorKind::kNone) << "flip at byte " << pos;
  }
}

TEST(StoreFuzzTest, GarbageAndEmptyFilesAreRejected) {
  const std::string path = TempPath("store_garbage");
  WriteFileBytes(path, std::string(4096, '\x5a'));
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);

  WriteFileBytes(path, "");
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);

  EXPECT_FALSE(LoadGraphImage(TempPath("store_missing"), &error)
                   .has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
}

// ---------------------------------------------------------------------------
// Crafted corruption: valid checksum, hostile content.

TEST(StoreCraftedTest, UnsupportedVersionIsRejectedWithDetail) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "ver_src");
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = kImageVersion + 1;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &future,
              sizeof(future));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_ver.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("version"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, OppositeEndiannessIsRejectedWithDetail) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "end_src");
  std::string bytes = ReadFileBytes(path);
  std::memcpy(bytes.data() + offsetof(ImageHeader, endian),
              &kEndianTagSwapped, sizeof(kEndianTagSwapped));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_end.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("endianness"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, OutOfRangeAdjacencyFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "adj_src");
  std::string bytes = ReadFileBytes(path);
  const uint64_t off = SectionOffsetOf(bytes, SectionId::kNeighbors);
  const VertexId bogus = 1u << 30;  // far beyond any vertex id
  std::memcpy(bytes.data() + off, &bogus, sizeof(bogus));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_adj.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, BrokenTreeLinksFailStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "tree_src");
  std::string bytes = ReadFileBytes(path);
  // Point leaf 0's parent at itself: a cycle a naive tree walk would
  // never exit. The forest validation must reject it.
  const uint64_t off = SectionOffsetOf(bytes, SectionId::kNodeParent);
  const uint32_t self = 0;
  std::memcpy(bytes.data() + off, &self, sizeof(self));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_tree.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, OverflowingHalfEdgeCountIsRejected) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "ovf_src");
  std::string bytes = ReadFileBytes(path);
  // half = 2^62 wraps `half * sizeof(VertexId)` to 0 mod 2^64, so paired
  // with zero-length neighbor sections it slips past a multiply-based
  // length cross-check — after which the `i < half` validation loops
  // would index 2^62 elements past the mapping. The reader must reject
  // the counts, not trust the wrapped product.
  const uint64_t huge = uint64_t{1} << 62;
  const uint64_t meta_off = SectionOffsetOf(bytes, SectionId::kMeta);
  std::memcpy(bytes.data() + meta_off + offsetof(ImageMeta, num_half_edges),
              &huge, sizeof(huge));
  const uint64_t zero = 0;
  for (const SectionId id :
       {SectionId::kNeighbors, SectionId::kOrderedNeighbors}) {
    std::memcpy(bytes.data() + SectionEntryPos(bytes, id) +
                    offsetof(SectionEntry, length),
                &zero, sizeof(zero));
  }
  // Make offsets[n] agree with the huge count too, so a reader without
  // the overflow-safe cross-check would sail into the CSR loop and read
  // out of bounds (ASan-visible) instead of stopping at the coverage
  // check.
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + meta_off + offsetof(ImageMeta, num_vertices),
              sizeof(n));
  std::memcpy(bytes.data() + SectionOffsetOf(bytes, SectionId::kOffsets) +
                  n * sizeof(uint64_t),
              &huge, sizeof(huge));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_ovf.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("disagrees with the meta counts"),
            std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, NonMonotoneTreeLevelsFailStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "lvl_src");
  std::string bytes = ReadFileBytes(path);
  // Raise the level of leaf 0's parent above the leaf's own level. Leaf
  // levels still match the core numbers and every link still forms a
  // forest, but AncestorAtLevel's upward walk would now stop at the
  // wrong node — the monotone-level check must reject the image.
  const uint64_t parent_off =
      SectionOffsetOf(bytes, SectionId::kNodeParent);
  uint32_t parent0 = 0;
  std::memcpy(&parent0, bytes.data() + parent_off, sizeof(parent0));
  ASSERT_NE(parent0, CoreIndex::kNil);
  const uint64_t level_off = SectionOffsetOf(bytes, SectionId::kNodeLevel);
  const uint32_t bogus = 1000;
  std::memcpy(bytes.data() + level_off + parent0 * sizeof(uint32_t),
              &bogus, sizeof(bogus));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_lvl.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, LeafWithChildrenFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "leaf_src");
  std::string bytes = ReadFileBytes(path);
  // Give leaf 0 a "child": point first_child[0] at leaf 1. Leaves must
  // be childless or SubtreeLeaves would return members the merge never
  // produced.
  const uint64_t fc_off =
      SectionOffsetOf(bytes, SectionId::kNodeFirstChild);
  const uint32_t child = 1;
  std::memcpy(bytes.data() + fc_off, &child, sizeof(child));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_leaf.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, LeafMissingFromParentChainFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "chain_src");
  std::string bytes = ReadFileBytes(path);
  // Unlink leaf 0 from its parent's child chain but keep its parent
  // pointer. Every chain still points back to its owner, yet the leaf
  // layout would count leaf 0 into its parent's slice without giving it
  // a place there, so its offset would wrap and a served fallback would
  // write past its member vector. Parents and chains must agree both ways.
  const auto word = [&](SectionId id, uint32_t i) {
    return SectionOffsetOf(bytes, id) + i * sizeof(uint32_t);
  };
  const auto read = [&](SectionId id, uint32_t i) {
    uint32_t value = 0;
    std::memcpy(&value, bytes.data() + word(id, i), sizeof(value));
    return value;
  };
  const uint32_t parent0 = read(SectionId::kNodeParent, 0);
  ASSERT_NE(parent0, CoreIndex::kNil);
  const uint32_t after0 = read(SectionId::kNodeNextSibling, 0);
  uint64_t link = word(SectionId::kNodeFirstChild, parent0);
  for (uint32_t child = read(SectionId::kNodeFirstChild, parent0);
       child != 0; child = read(SectionId::kNodeNextSibling, child)) {
    ASSERT_NE(child, CoreIndex::kNil) << "leaf 0 is not on its parent's chain";
    link = word(SectionId::kNodeNextSibling, child);
  }
  std::memcpy(bytes.data() + link, &after0, sizeof(after0));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_chain.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, CoreNumberTamperingFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "core_src");
  std::string bytes = ReadFileBytes(path);
  const uint64_t off = SectionOffsetOf(bytes, SectionId::kCoreNumbers);
  uint32_t core0 = 0;
  std::memcpy(&core0, bytes.data() + off, sizeof(core0));
  ++core0;  // now disagrees with the leaf's merge-tree level
  std::memcpy(bytes.data() + off, &core0, sizeof(core0));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_core.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

// ---------------------------------------------------------------------------
// Failpoints: the chaos hooks fire and map to typed open errors.

TEST(StoreFailpointTest, InjectedOpenFaultIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "fp_open");
  failpoint::ScopedFailpoint fp("serve.store.image_open_error");
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_NE(error.message.find("injected image open fault"),
            std::string::npos)
      << error.message;
}

TEST(StoreFailpointTest, InjectedMmapFaultIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "fp_mmap");
  failpoint::ScopedFailpoint fp("serve.store.image_mmap_error");
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_NE(error.message.find("cannot mmap"), std::string::npos)
      << error.message;
}

// ---------------------------------------------------------------------------
// Wire-level differential: image-backed and text-backed graphs produce
// byte-identical query replies (replies are deterministic by design —
// timing lives only in STATS).

/// Runs one scripted locsd session over file-backed fds (the
/// serve_session_test harness, trimmed to what the differential needs).
std::vector<std::string> RunScript(const std::vector<std::string>& script,
                                   const std::string& tag) {
  serve::GraphRegistry registry(4);
  serve::AdmissionController admission{serve::AdmissionController::Options{}};
  serve::ServerMetrics metrics;
  const serve::SessionOptions options;

  const std::string in_path = TempPath("store_wire_in_" + tag);
  const std::string out_path = TempPath("store_wire_out_" + tag);
  {
    std::ofstream out(in_path, std::ios::trunc);
    for (const std::string& line : script) out << line << "\n";
  }
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  {
    serve::FdTransport transport(in_fd, out_fd);
    serve::Session session(transport, registry, admission, metrics,
                           options);
    session.Run();
  }
  ::close(in_fd);
  ::close(out_fd);

  std::vector<std::string> replies;
  std::ifstream in(out_path);
  std::string line;
  while (std::getline(in, line)) replies.push_back(line);
  return replies;
}

TEST(StoreWireTest, ImageAndTextBackedRepliesAreByteIdentical) {
  const std::string text = TempPath("store_wire.txt");
  ASSERT_TRUE(SaveEdgeList(gen::BarabasiAlbert(600, 3, /*seed=*/11), text));
  // Compile from the text file's own view of the graph (LoadEdgeList
  // compacts ids in first-seen order) — exactly what `locs_cli compile
  // <edgelist>` produces, so LOAD-of-text and LOADIMG see the same
  // labeled graph.
  const std::optional<Graph> reloaded = LoadEdgeList(text);
  ASSERT_TRUE(reloaded.has_value());
  const std::string image = CompileToTemp(*reloaded, "wire");

  const std::vector<std::string> queries = {
      "CST g 0 3",         "CST g 17 2",  "CST g 5 100",
      "CSM g 0",           "CSM g 599",   "MULTI g 3 0 1 2",
      "MULTI g max 10 20", "CST g 4 1 trace=1",
  };
  std::vector<std::string> text_script = {"LOAD g " + text};
  std::vector<std::string> image_script = {"LOADIMG g " + image};
  std::vector<std::string> sniff_script = {"LOAD g " + image};
  for (const std::string& q : queries) {
    text_script.push_back(q);
    image_script.push_back(q);
    sniff_script.push_back(q);
  }
  text_script.push_back("QUIT");
  image_script.push_back("QUIT");
  sniff_script.push_back("QUIT");

  const auto text_replies = RunScript(text_script, "text");
  const auto image_replies = RunScript(image_script, "image");
  const auto sniff_replies = RunScript(sniff_script, "sniff");
  // One reply per line: the LOAD ack, the queries, and the QUIT ack.
  ASSERT_EQ(text_replies.size(), queries.size() + 2);
  ASSERT_EQ(image_replies.size(), queries.size() + 2);
  ASSERT_EQ(sniff_replies.size(), queries.size() + 2);

  // The LOAD acks differ by design (source=text vs source=image and
  // timing); every query reply after them must match byte-for-byte.
  EXPECT_NE(text_replies[0].find(" source=text"), std::string::npos)
      << text_replies[0];
  EXPECT_NE(image_replies[0].find(" source=image"), std::string::npos)
      << image_replies[0];
  EXPECT_NE(sniff_replies[0].find(" source=image"), std::string::npos)
      << sniff_replies[0];
  for (size_t i = 1; i < text_replies.size(); ++i) {
    EXPECT_EQ(text_replies[i], image_replies[i]) << "query " << i;
    EXPECT_EQ(text_replies[i], sniff_replies[i]) << "query " << i;
  }
}

TEST(StoreWireTest, LoadImgOnNonImageIsTypedWireError) {
  const Graph graph = gen::Barbell(4, 0);
  const std::string text = TempPath("store_wire_bad.txt");
  ASSERT_TRUE(SaveEdgeList(graph, text));
  const auto replies =
      RunScript({"LOADIMG g " + text, "PING", "QUIT"}, "bad");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("ERR io ", 0), 0u) << replies[0];
  EXPECT_NE(replies[0].find("not a graph image"), std::string::npos)
      << replies[0];
  EXPECT_EQ(replies[1], "OK pong");
}

}  // namespace
}  // namespace locs::store
