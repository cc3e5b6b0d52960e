#include "store/graph_file.h"

#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "store/format.h"

namespace locs::store {

namespace {

/// Rule 2: the format a file's name selects.
GraphFormat FormatFromName(const std::string& path) {
  const auto ends_with = [&path](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with(kImageExtension)) return GraphFormat::kImage;
  if (ends_with(".metis") || ends_with(".graph")) return GraphFormat::kMetis;
  return GraphFormat::kEdgeList;
}

}  // namespace

GraphFormat DetectGraphFormat(const std::string& path) {
  char magic[sizeof(kImageMagic)] = {};
  std::ifstream in(path, std::ios::binary);
  if (in.read(magic, std::streamsize{sizeof(magic)}) &&
      std::memcmp(magic, kImageMagic, sizeof(magic)) == 0) {
    return GraphFormat::kImage;  // rule 1
  }
  return FormatFromName(path);
}

std::optional<GraphFile> LoadGraphFile(const std::string& path,
                                       IoError* error,
                                       std::optional<GraphFormat> format) {
  GraphFile file;
  file.format = format.has_value() ? *format : DetectGraphFormat(path);
  if (file.format == GraphFormat::kImage) {
    file.image = LoadGraphImage(path, error);
    if (!file.image.has_value()) return std::nullopt;
    file.graph = file.image->graph;  // O(1): shares the mapping
    return file;
  }
  auto graph = file.format == GraphFormat::kMetis ? LoadMetis(path, error)
                                                  : LoadEdgeList(path, error);
  if (!graph.has_value()) return std::nullopt;
  file.graph = std::move(*graph);
  return file;
}

bool SaveGraphFile(const Graph& graph, const std::string& path,
                   IoError* error) {
  const GraphFormat format = FormatFromName(path);
  if (format == GraphFormat::kImage) {
    return CompileGraphImage(graph, path, error);
  }
  if (error != nullptr) *error = IoError{};
  const bool ok = format == GraphFormat::kMetis ? SaveMetis(graph, path)
                                                : SaveEdgeList(graph, path);
  if (!ok && error != nullptr) {
    error->kind = IoErrorKind::kOpen;
    error->message = "cannot write '" + path + "'";
  }
  return ok;
}

}  // namespace locs::store
