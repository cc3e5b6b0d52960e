// Correctness oracle, independent of the program under test: it parses
// the generated edge list itself (ids compacted in first-seen order, the
// documented edge-list contract), computes core numbers with its own
// bucket peel, and checks every reply against them.

#ifndef LOCSBENCH_ORACLE_H_
#define LOCSBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stream.h"

namespace locsbench {

class OracleGraph {
 public:
  /// Parses an edge-list file; false with `*error` set on failure.
  bool Load(const std::string& path, std::string* error);

  uint32_t n() const { return n_; }
  uint64_t m() const { return adj_.size() / 2; }
  std::span<const uint32_t> Neighbors(uint32_t v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  uint32_t Degree(uint32_t v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  uint32_t Core(uint32_t v) const { return core_[v]; }
  uint32_t Degeneracy() const { return degeneracy_; }

  /// Connected-component label of every vertex in the k-core (UINT32_MAX
  /// outside it). Computed once per k.
  const std::vector<uint32_t>& KCoreComponents(uint32_t k) const;

 private:
  void ComputeCores();

  uint32_t n_ = 0;
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> adj_;
  std::vector<uint32_t> core_;
  uint32_t degeneracy_ = 0;
  mutable std::map<uint32_t, std::vector<uint32_t>> components_;
};

/// Fields of an `OK status=...` query reply.
struct ParsedReply {
  std::string status;
  uint64_t n = 0;
  uint64_t delta = 0;
  uint64_t truncated = 0;
  std::vector<uint32_t> members;  ///< the ids the reply lists
};

/// Parses a query reply; false when it is not a well-formed OK line.
bool ParseQueryReply(std::string_view line, ParsedReply* reply);

/// Checks `reply` to `query`; returns an empty string when it is right,
/// else what is wrong.
std::string CheckReply(const OracleGraph& graph, const Query& query,
                       std::string_view reply);

/// Checks one batch answer: CST queries (all k-core-sampled) must be
/// found with k <= delta <= core(v); CSM answers need 1 <= delta <=
/// core(v). Empty string when right.
std::string CheckBatchAnswer(const OracleGraph& graph, uint32_t v,
                             uint32_t k, bool csm, bool found,
                             uint64_t delta, bool contains_v);

}  // namespace locsbench

#endif  // LOCSBENCH_ORACLE_H_
