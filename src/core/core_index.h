// Core-hierarchy index for repeated community-search queries — an
// extension beyond the paper.
//
// The paper optimizes the *single query* case. Its motivating applications
// (friend recommendation, advertising) issue numerous queries against one
// slowly-changing graph; §4.3.2 already embraces offline precomputation
// for exactly that reason. This index takes the idea to its conclusion:
// one core decomposition plus a component merge tree answer
//
//   - "does CST(k) have an answer for v?"        in O(1)
//   - "the maximal CST(k) community of v"        in O(answer size)
//   - "the best community of v" (CSM)            in O(answer size)
//
// after an O((|V| + |E|) α(|V|)) build.
//
// Structure: vertices join a union-find in decreasing core-number order;
// whenever components merge while processing level k, the merge tree gains
// a node at level k whose subtree leaves are exactly the members of that
// component of the k-core. A query walks from the query vertex's leaf to
// the highest ancestor with level >= k and copies its subtree's leaves.
//
// Leaf layout: the leaves of every root are stored in stack-DFS order
// (children pushed in sibling order), so each subtree's leaves form one
// contiguous slice, recorded per node as (first position, leaf count).
// Listing a component is one slice copy. A leaf's first position is its
// vertex's rank, so v sits at offset first[v] - first[node] of any
// ancestor's slice. The layout is derived in O(nodes) at construction
// and load; it is not part of the image.
//
// δ of a component is its node's level L: L is the least core number in
// the component, so the component lies in the L-core (δ >= L), and a
// member of core exactly L cannot have L + 1 neighbors in it, or the
// component would lie in the (L + 1)-core (δ <= L).

#ifndef LOCS_CORE_CORE_INDEX_H_
#define LOCS_CORE_CORE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/common.h"
#include "core/kcore.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/const_array.h"

namespace locs {

/// Immutable index over one graph answering CST/CSM queries in output-
/// sensitive time. Thread-safe for concurrent queries (read-only).
/// Storage is ConstArray-backed so an index deserialized from a graph
/// image (src/store/) points straight into the mmap'd file.
class CoreIndex {
 public:
  static constexpr uint32_t kNil = ~uint32_t{0};

  explicit CoreIndex(const Graph& graph);

  /// Adopts a precomputed index (the store/ image loader). The caller is
  /// responsible for structural validity: `core` has one entry per
  /// vertex, the five node arrays share one length >= core.size(), tree
  /// links are in-range or kNil, every parent sits in a higher slot than
  /// its children, and slots [0, core.size()) are the vertex leaves.
  static CoreIndex FromParts(ConstArray<uint32_t> core, uint32_t degeneracy,
                             ConstArray<uint32_t> node_level,
                             ConstArray<uint32_t> node_parent,
                             ConstArray<uint32_t> node_first_child,
                             ConstArray<uint32_t> node_next_sibling,
                             ConstArray<VertexId> node_vertex);

  /// Number of indexed vertices.
  size_t NumVertices() const { return core_.size(); }

  /// Core number of `v` — equals m*(G, v) (Lemma 4).
  uint32_t CoreNumber(VertexId v) const {
    LOCS_CHECK_LT(v, core_.size());
    return core_[v];
  }

  /// Degeneracy of the indexed graph.
  uint32_t Degeneracy() const { return degeneracy_; }

  /// O(1): true iff CST(k) has an answer for v (v lies in the k-core).
  bool HasCst(VertexId v, uint32_t k) const { return CoreNumber(v) >= k; }

  /// O(answer): the maximal CST(k) answer — the connected component of v
  /// in the k-core (Lemma 3) — or an empty vector.
  std::vector<VertexId> CstMembers(VertexId v, uint32_t k) const;

  /// O(answer): the CSM answer — v's component of its maxcore (Lemma 4).
  Community Csm(VertexId v) const;

  /// Merge-tree node whose subtree is v's component of the k-core: the
  /// highest ancestor of v's leaf with level >= k, or kNil when
  /// core(v) < k. Every k that names the same node names the same vertex
  /// set, so the node identifies the component, and for k >= 1 its level
  /// is the component's minimum degree δ.
  uint32_t AncestorAtLevel(VertexId v, uint32_t k) const;
  /// The leaves under `node`: one slice of the leaf layout, valid while
  /// the index lives.
  std::span<const VertexId> SubtreeLeaves(uint32_t node) const {
    return leaf_order_.span().subspan(node_first_leaf_[node],
                                      node_leaf_count_[node]);
  }
  /// Position of vertex `v` within SubtreeLeaves(node); `node` must be an
  /// ancestor of v's leaf (e.g. AncestorAtLevel(v, k)).
  uint32_t LeafOffset(uint32_t node, VertexId v) const {
    LOCS_CHECK_LT(v, core_.size());
    const uint32_t offset = node_first_leaf_[v] - node_first_leaf_[node];
    LOCS_CHECK_LT(offset, node_leaf_count_[node]);
    return offset;
  }

  /// Number of merge-tree nodes (diagnostics).
  size_t NumTreeNodes() const { return node_level_.size(); }

  /// Raw array access for serialization (src/store/).
  const ConstArray<uint32_t>& core_numbers() const { return core_; }
  const ConstArray<uint32_t>& node_level() const { return node_level_; }
  const ConstArray<uint32_t>& node_parent() const { return node_parent_; }
  const ConstArray<uint32_t>& node_first_child() const {
    return node_first_child_;
  }
  const ConstArray<uint32_t>& node_next_sibling() const {
    return node_next_sibling_;
  }
  const ConstArray<VertexId>& node_vertex() const { return node_vertex_; }

 private:
  CoreIndex() = default;

  /// Derives the leaf layout from the tree arrays (see the file comment).
  void BuildLeafLayout();

  /// Per-vertex core numbers (the peel order is build-time scaffolding
  /// and is not retained).
  ConstArray<uint32_t> core_;
  uint32_t degeneracy_ = 0;

  // Merge tree in first-child / next-sibling form. The first NumVertices
  // node slots are the vertex leaves.
  ConstArray<uint32_t> node_level_;
  ConstArray<uint32_t> node_parent_;
  ConstArray<uint32_t> node_first_child_;
  ConstArray<uint32_t> node_next_sibling_;
  /// Leaf payload: the vertex id (kNil for internal nodes).
  ConstArray<VertexId> node_vertex_;

  // Leaf layout: vertices in DFS leaf order, and each node's slice of it.
  ConstArray<VertexId> leaf_order_;
  ConstArray<uint32_t> node_first_leaf_;
  ConstArray<uint32_t> node_leaf_count_;
};

}  // namespace locs

#endif  // LOCS_CORE_CORE_INDEX_H_
