// Graph image store — versioned binary snapshots of a fully indexed
// graph, loaded back via mmap with zero copy (see format.h for the
// layout).
//
// Compile once, load in milliseconds: `locs_cli compile` (or
// WriteGraphImage) serializes the CSR arrays, the §4.3.2 degree-ordered
// adjacency, the core decomposition, and the CoreIndex merge tree;
// LoadGraphImage maps the file read-only and builds Graph /
// OrderedAdjacency / CoreIndex objects whose ConstArray storage points
// straight into the mapping. No parse, no Batagelj–Zaversnik recompute,
// no connectivity BFS — the cold-start cost the serving layer used to
// pay on every restart.

#ifndef LOCS_STORE_IMAGE_H_
#define LOCS_STORE_IMAGE_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/core_index.h"
#include "core/local_cst.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/ordering.h"

namespace locs::store {

/// Canonical extension for graph-image files.
inline constexpr std::string_view kImageExtension = ".limg";

/// Everything LoadGraphImage materializes: the graph and the three
/// serving precomputations, all backed by the shared mmap region.
struct LoadedImage {
  Graph graph;
  GraphFacts facts;
  OrderedAdjacency ordered;
  CoreIndex index;
};

/// Serializes `graph` plus its precomputations to `path`. Returns false
/// on I/O failure with `error` populated.
bool WriteGraphImage(const Graph& graph, const GraphFacts& facts,
                     const OrderedAdjacency& ordered, const CoreIndex& index,
                     const std::string& path, IoError* error = nullptr);

/// Convenience wrapper: computes facts/ordering/index from `graph`, then
/// writes the image. This is the `locs_cli compile` entry point.
bool CompileGraphImage(const Graph& graph, const std::string& path,
                       IoError* error = nullptr);

/// Maps `path` and reconstructs the graph with zero copy. Every failure
/// mode — unreadable file, bad magic, unsupported version, wrong
/// endianness, truncation, checksum mismatch, structurally invalid
/// arrays — yields std::nullopt with a typed `error`; a corrupt image
/// can never produce UB or a structurally broken graph.
std::optional<LoadedImage> LoadGraphImage(const std::string& path,
                                          IoError* error = nullptr);

}  // namespace locs::store

#endif  // LOCS_STORE_IMAGE_H_
