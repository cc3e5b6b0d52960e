#include "graph/io.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/builder.h"

namespace locs {

namespace {

/// Records failure detail into `error` (when provided) and returns the
/// nullopt the loaders propagate: `return Fail(error, kind, ...);`.
std::nullopt_t Fail(IoError* error, IoErrorKind kind, std::string message,
                    uint64_t line = 0) {
  if (error != nullptr) {
    error->kind = kind;
    error->message = std::move(message);
    error->line = line;
  }
  return std::nullopt;
}

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// RAII wrapper over std::FILE.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
};

/// Reads one line of any length into `line`, stripping the trailing
/// newline and any carriage returns (CRLF files). Returns false only at
/// EOF with nothing read.
bool ReadLine(std::FILE* f, std::string& line) {
  line.clear();
  char buf[4096];
  bool read_any = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    read_any = true;
    line.append(buf);
    if (!line.empty() && line.back() == '\n') break;
  }
  if (!read_any) return false;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return true;
}

}  // namespace

std::optional<Graph> LoadEdgeList(const std::string& path, IoError* error) {
  if (error != nullptr) *error = IoError{};
  File file(path, "r");
  if (!file.ok()) {
    return Fail(error, IoErrorKind::kOpen,
                Format("cannot open '%s' for reading", path.c_str()));
  }

  std::unordered_map<uint64_t, VertexId> remap;
  EdgeList edges;
  auto intern = [&remap](uint64_t raw) {
    return remap.emplace(raw, static_cast<VertexId>(remap.size()))
        .first->second;
  };

  std::string line;
  uint64_t line_no = 0;
  while (ReadLine(file.get(), line)) {
    ++line_no;
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;  // blank / CR-only line
    if (line[start] == '#' || line[start] == '%') continue;
    const char* cursor = line.c_str() + start;
    char* end = nullptr;
    const uint64_t u = std::strtoull(cursor, &end, 10);
    // The line number rides in the message text too: consumers that only
    // surface `message` (the locsd ERR detail, logs) still point at the
    // offending line.
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  Format("line %" PRIu64
                         ": expected \"u v\" edge, got \"%.60s\"",
                         line_no, cursor),
                  line_no);
    }
    cursor = end;
    const uint64_t v = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  Format("line %" PRIu64 ": edge for vertex %" PRIu64
                         " is missing its endpoint",
                         line_no, u),
                  line_no);
    }
    // Extra columns (weights, timestamps) are ignored, as before. `u` is
    // interned in its own statement: the two arguments of one call may be
    // evaluated in either order, and ids must follow first-seen order.
    const VertexId first = intern(u);
    edges.emplace_back(first, intern(v));
  }
  return BuildGraph(static_cast<VertexId>(remap.size()), edges);
}

bool SaveEdgeList(const Graph& graph, const std::string& path) {
  File file(path, "w");
  if (!file.ok()) return false;
  std::fprintf(file.get(),
               "# locs edge list: %" PRIu32 " vertices, %" PRIu64
               " edges\n",
               graph.NumVertices(), graph.NumEdges());
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v) std::fprintf(file.get(), "%u %u\n", u, v);
    }
  }
  return std::fflush(file.get()) == 0;
}

std::optional<Graph> LoadMetis(const std::string& path, IoError* error) {
  if (error != nullptr) *error = IoError{};
  File file(path, "r");
  if (!file.ok()) {
    return Fail(error, IoErrorKind::kOpen,
                Format("cannot open '%s' for reading", path.c_str()));
  }
  std::string line;
  uint64_t line_no = 0;
  // Read the header (skipping '%' comments).
  uint64_t n = 0;
  uint64_t m = 0;
  std::string fmt;
  bool have_header = false;
  while (ReadLine(file.get(), line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    const char* cursor = line.c_str();
    char* end = nullptr;
    n = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  "header must start with the vertex count", line_no);
    }
    cursor = end;
    m = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  "header is missing the edge count", line_no);
    }
    cursor = end;
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
    while (*cursor != '\0' && *cursor != ' ' && *cursor != '\t') {
      fmt.push_back(*cursor++);
    }
    have_header = true;
    break;
  }
  if (!have_header) {
    return Fail(error, IoErrorKind::kTruncated,
                "file ends before the METIS header");
  }
  if (!fmt.empty() && fmt.find_first_not_of('0') != std::string::npos) {
    return Fail(error, IoErrorKind::kParse,
                Format("weighted format \"%s\" is unsupported", fmt.c_str()),
                line_no);
  }
  GraphBuilder builder(static_cast<VertexId>(n));
  uint64_t vertex = 0;
  while (vertex < n && ReadLine(file.get(), line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    const char* cursor = line.c_str();
    char* end = nullptr;
    while (true) {
      const auto neighbor = std::strtoull(cursor, &end, 10);
      if (end == cursor) break;  // no more numbers on this line
      if (neighbor == 0 || neighbor > n) {
        return Fail(error, IoErrorKind::kParse,
                    Format("neighbor id %" PRIu64
                           " outside the 1..%" PRIu64 " range",
                           neighbor, n),
                    line_no);
      }
      builder.AddEdge(static_cast<VertexId>(vertex),
                      static_cast<VertexId>(neighbor - 1));
      cursor = end;
    }
    ++vertex;
  }
  if (vertex != n) {
    return Fail(error, IoErrorKind::kTruncated,
                Format("header declares %" PRIu64
                       " vertices but only %" PRIu64 " adjacency lines"
                       " are present",
                       n, vertex),
                line_no);
  }
  Graph graph = builder.Build();
  if (graph.NumEdges() != m) {
    // Tolerate double-counted headers (some writers store 2m).
    if (graph.NumEdges() * 2 != m) {
      return Fail(error, IoErrorKind::kParse,
                  Format("header declares %" PRIu64 " edges but the"
                         " adjacency lists hold %" PRIu64,
                         m, graph.NumEdges()));
    }
  }
  return graph;
}

bool SaveMetis(const Graph& graph, const std::string& path) {
  File file(path, "w");
  if (!file.ok()) return false;
  std::fprintf(file.get(), "%" PRIu32 " %" PRIu64 "\n",
               graph.NumVertices(), graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    bool first = true;
    for (VertexId w : graph.Neighbors(v)) {
      std::fprintf(file.get(), first ? "%u" : " %u", w + 1);
      first = false;
    }
    std::fputc('\n', file.get());
  }
  return std::fflush(file.get()) == 0;
}

}  // namespace locs
