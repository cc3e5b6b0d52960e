// Shared helpers for the test suite: brute-force reference solvers (only
// feasible on tiny graphs), set utilities, and private scratch paths.

#ifndef LOCS_TESTS_TEST_UTIL_H_
#define LOCS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "util/check.h"

namespace locs::testing {

/// Path of `name` in a scratch directory private to this process. ctest
/// runs each gtest case as its own process, many at once under -j, so
/// fixed names in the shared ::testing::TempDir() would collide. The
/// directory is made on first use and removed at exit.
inline std::string TempPath(const std::string& name) {
  struct ScratchDir {
    std::string path = ::testing::TempDir() + "/locs_test_XXXXXX";
    ScratchDir() { LOCS_CHECK(::mkdtemp(path.data()) != nullptr); }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ScratchDir dir;
  return dir.path + "/" + name;
}

/// Sorted copy of a vertex set for order-insensitive comparison.
inline std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Converts to std::set for readable gtest failures.
inline std::set<VertexId> ToSet(const std::vector<VertexId>& v) {
  return {v.begin(), v.end()};
}

/// Brute force m*(G, v0): the maximum over all connected subsets H
/// containing v0 of δ(G[H]). Enumerate all 2^(n-1) subsets — graphs must
/// be tiny (n <= ~20).
inline uint32_t BruteForceCsmGoodness(const Graph& graph, VertexId v0) {
  const VertexId n = graph.NumVertices();
  uint32_t best = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if ((mask & (uint64_t{1} << v0)) == 0) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (uint64_t{1} << v)) members.push_back(v);
    }
    if (!IsConnectedSubset(graph, members)) continue;
    best = std::max(best, MinDegreeOfInduced(graph, members));
  }
  return best;
}

/// Brute force: does CST(k) have a solution for v0?
inline bool BruteForceCstExists(const Graph& graph, VertexId v0,
                                uint32_t k) {
  return BruteForceCsmGoodness(graph, v0) >= k;
}

/// Brute force smallest CST(k) answer size (0 when infeasible).
inline size_t BruteForceMcstSize(const Graph& graph, VertexId v0,
                                 uint32_t k) {
  const VertexId n = graph.NumVertices();
  size_t best = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if ((mask & (uint64_t{1} << v0)) == 0) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (uint64_t{1} << v)) members.push_back(v);
    }
    if (best != 0 && members.size() >= best) continue;
    if (!IsConnectedSubset(graph, members)) continue;
    if (MinDegreeOfInduced(graph, members) >= k) best = members.size();
  }
  return best;
}

/// Prints `value` the way gtest prints a type it cannot format (a byte
/// dump), but with every padding byte zero. gtest appends that dump to
/// each value-parameterized test name ctest registers, so a parameter
/// struct with padding would otherwise leak uninitialised memory into
/// the names and change them from build to build. List every field.
template <typename T, typename... F>
void PrintBytesWithZeroPadding(const T& value, std::ostream* os,
                               F T::*... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  (std::memcpy(bytes + (reinterpret_cast<const unsigned char*>(
                            &(value.*fields)) - base),
               &(value.*fields), sizeof(F)),
   ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace locs::testing

#endif  // LOCS_TESTS_TEST_UTIL_H_
