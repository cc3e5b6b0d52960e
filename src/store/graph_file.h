// Graph files: the one place that decides which format a file is.
//
// A graph file is an edge list, a METIS file, or a compiled graph image
// (image.h). One rule picks among them:
//
//   1. a file that begins with the image magic is an image, whatever its
//      name (reading only: the old bytes of a file about to be replaced
//      say nothing about the new ones);
//   2. otherwise the name decides: `.limg` is an image, `.metis` or
//      `.graph` is METIS, and anything else is an edge list.
//
// locs_cli, the serving registry and the bench dataset cache read and
// write graph files only through the functions below.

#ifndef LOCS_STORE_GRAPH_FILE_H_
#define LOCS_STORE_GRAPH_FILE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/io.h"
#include "store/image.h"

namespace locs::store {

enum class GraphFormat : uint8_t { kEdgeList, kMetis, kImage };

/// The format `path` is read as, by rules 1 and 2.
GraphFormat DetectGraphFormat(const std::string& path);

/// A loaded graph file. A text format yields just the graph, built and
/// nothing more; an image also carries its precomputations, and `graph`
/// shares their mapping.
struct GraphFile {
  GraphFormat format = GraphFormat::kEdgeList;
  Graph graph;
  std::optional<LoadedImage> image;  ///< set iff format == kImage
};

/// Reads `path` as `format` (default: DetectGraphFormat(path)). Returns
/// std::nullopt with a typed `error` on failure.
std::optional<GraphFile> LoadGraphFile(
    const std::string& path, IoError* error = nullptr,
    std::optional<GraphFormat> format = std::nullopt);

/// Writes `graph` in the format rule 2 gives `path`; an image is compiled
/// with its precomputations. Returns false with `error` set on failure.
bool SaveGraphFile(const Graph& graph, const std::string& path,
                   IoError* error = nullptr);

}  // namespace locs::store

#endif  // LOCS_STORE_GRAPH_FILE_H_
