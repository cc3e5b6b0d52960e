#include "core/core_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace locs {

namespace {

/// Union-find with path halving and union by size, tracking the merge-tree
/// node owned by each component root.
class MergeDsu {
 public:
  explicit MergeDsu(uint32_t capacity)
      : parent_(capacity), size_(capacity, 1), node_(capacity) {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::iota(node_.begin(), node_.end(), 0u);  // leaf node i for vertex i
  }

  uint32_t Find(uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  /// Merges the components of roots ra != rb; returns the surviving root.
  uint32_t Link(uint32_t ra, uint32_t rb) {
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

  uint32_t NodeOf(uint32_t root) const { return node_[root]; }
  void SetNode(uint32_t root, uint32_t node) { node_[root] = node; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<uint32_t> node_;
};

}  // namespace

CoreIndex::CoreIndex(const Graph& graph) {
  CoreDecomposition cores = ComputeCores(graph);
  const VertexId n = graph.NumVertices();
  // The tree is grown in plain vectors and only wrapped into ConstArrays
  // once the shape is final.
  std::vector<uint32_t> level(n);
  std::vector<uint32_t> parent(n, kNil);
  std::vector<uint32_t> first_child(n, kNil);
  std::vector<uint32_t> next_sibling(n, kNil);
  std::vector<VertexId> vertex(n);
  // Leaves 0..n-1 mirror the vertices.
  for (VertexId v = 0; v < n; ++v) {
    level[v] = cores.core[v];
    vertex[v] = v;
  }

  auto new_node = [&](uint32_t node_level) {
    const auto id = static_cast<uint32_t>(level.size());
    level.push_back(node_level);
    parent.push_back(kNil);
    first_child.push_back(kNil);
    next_sibling.push_back(kNil);
    vertex.push_back(kNil);
    return id;
  };
  auto attach = [&](uint32_t p, uint32_t child) {
    parent[child] = p;
    next_sibling[child] = first_child[p];
    first_child[p] = child;
  };

  if (n > 0) {
    MergeDsu dsu(n);
    // Vertices grouped by core number; peel_order is sorted by
    // non-decreasing core number, so iterate it backwards for the
    // decreasing-level sweep.
    const std::vector<VertexId>& order = cores.peel_order;
    size_t hi = order.size();
    while (hi > 0) {
      // [lo, hi) is the block of vertices with this core number.
      const uint32_t block_level = cores.core[order[hi - 1]];
      size_t lo = hi;
      while (lo > 0 && cores.core[order[lo - 1]] == block_level) --lo;
      // All level-`block_level` vertices are now active; union each with
      // its already-active neighbors (core >= block_level).
      for (size_t i = lo; i < hi; ++i) {
        const VertexId v = order[i];
        for (VertexId w : graph.Neighbors(v)) {
          if (cores.core[w] < block_level) continue;
          uint32_t rv = dsu.Find(v);
          const uint32_t rw = dsu.Find(w);
          if (rv == rw) continue;
          const uint32_t nv = dsu.NodeOf(rv);
          const uint32_t nw = dsu.NodeOf(rw);
          // A component may be represented by an internal node already
          // created at this level — reuse it as the merge target so leaf
          // paths stay short (one node per (component, level)). Leaves
          // are never targets: they cannot adopt children.
          const bool nv_reusable =
              level[nv] == block_level && vertex[nv] == kNil;
          const bool nw_reusable =
              level[nw] == block_level && vertex[nw] == kNil;
          uint32_t target;
          if (nv_reusable && nw_reusable) {
            // Fold nw's children into nv; nw becomes an orphan no leaf
            // path traverses.
            target = nv;
            uint32_t child = first_child[nw];
            while (child != kNil) {
              const uint32_t next = next_sibling[child];
              attach(nv, child);
              child = next;
            }
            first_child[nw] = kNil;
          } else if (nv_reusable) {
            target = nv;
            attach(nv, nw);
          } else if (nw_reusable) {
            target = nw;
            attach(nw, nv);
          } else {
            target = new_node(block_level);
            attach(target, nv);
            attach(target, nw);
          }
          const uint32_t root = dsu.Link(rv, rw);
          dsu.SetNode(root, target);
        }
      }
      hi = lo;
    }
  }

  degeneracy_ = cores.degeneracy;
  core_ = ConstArray<uint32_t>(std::move(cores.core));
  node_level_ = ConstArray<uint32_t>(std::move(level));
  node_parent_ = ConstArray<uint32_t>(std::move(parent));
  node_first_child_ = ConstArray<uint32_t>(std::move(first_child));
  node_next_sibling_ = ConstArray<uint32_t>(std::move(next_sibling));
  node_vertex_ = ConstArray<VertexId>(std::move(vertex));
  BuildLeafLayout();
}

CoreIndex CoreIndex::FromParts(ConstArray<uint32_t> core, uint32_t degeneracy,
                               ConstArray<uint32_t> node_level,
                               ConstArray<uint32_t> node_parent,
                               ConstArray<uint32_t> node_first_child,
                               ConstArray<uint32_t> node_next_sibling,
                               ConstArray<VertexId> node_vertex) {
  CoreIndex index;
  index.core_ = std::move(core);
  index.degeneracy_ = degeneracy;
  index.node_level_ = std::move(node_level);
  index.node_parent_ = std::move(node_parent);
  index.node_first_child_ = std::move(node_first_child);
  index.node_next_sibling_ = std::move(node_next_sibling);
  index.node_vertex_ = std::move(node_vertex);
  index.BuildLeafLayout();
  return index;
}

void CoreIndex::BuildLeafLayout() {
  const auto nodes = static_cast<uint32_t>(node_level_.size());
  // Parents sit in higher slots than their children, so one upward sweep
  // totals every subtree's leaves and one downward sweep carves each
  // node's slice among its children in stack-DFS order (last sibling
  // first), placing each leaf's vertex at its slice.
  std::vector<uint32_t> count(nodes, 0);
  for (uint32_t node = 0; node < nodes; ++node) {
    if (node_vertex_[node] != kNil) ++count[node];
    if (node_parent_[node] != kNil) count[node_parent_[node]] += count[node];
  }
  std::vector<uint32_t> first(nodes, 0);
  std::vector<VertexId> order(core_.size());
  uint32_t next_root = 0;
  for (uint32_t node = nodes; node-- > 0;) {
    if (node_parent_[node] == kNil) {
      first[node] = next_root;
      next_root += count[node];
    }
    if (node_vertex_[node] != kNil) order[first[node]] = node_vertex_[node];
    uint32_t end = first[node] + count[node];
    for (uint32_t child = node_first_child_[node]; child != kNil;
         child = node_next_sibling_[child]) {
      end -= count[child];
      first[child] = end;
    }
  }
  leaf_order_ = ConstArray<VertexId>(std::move(order));
  node_first_leaf_ = ConstArray<uint32_t>(std::move(first));
  node_leaf_count_ = ConstArray<uint32_t>(std::move(count));
}

uint32_t CoreIndex::AncestorAtLevel(VertexId v, uint32_t k) const {
  if (CoreNumber(v) < k) return kNil;
  uint32_t node = v;  // leaf
  while (node_parent_[node] != kNil &&
         node_level_[node_parent_[node]] >= k) {
    node = node_parent_[node];
  }
  return node;
}

std::vector<VertexId> CoreIndex::CstMembers(VertexId v, uint32_t k) const {
  const uint32_t node = AncestorAtLevel(v, k);
  if (node == kNil) return {};
  const std::span<const VertexId> leaves = SubtreeLeaves(node);
  return {leaves.begin(), leaves.end()};
}

Community CoreIndex::Csm(VertexId v) const {
  Community community;
  community.min_degree = CoreNumber(v);
  community.members = CstMembers(v, community.min_degree);
  return community;
}

}  // namespace locs
