// Local search for CST(k) — §4 of the paper.
//
// The solver implements the three-step framework of Algorithm 2:
//   1. upper-bound admission test (Theorem 3 and Proposition 3);
//   2. candidate generation from the query vertex's neighborhood
//      (Algorithm 3), with the vertex-selection strategy pluggable:
//      naive FIFO, `lg` (largest increment of goodness, Eq. 5), or `li`
//      (largest number of incidence, Eq. 6 — backed by the Figure-5 bucket
//      structure for O(1) selection);
//   3. if generation exhausts the candidates without qualifying, a global
//      peel restricted to G[C] (sound by Proposition 4, and exact because
//      the candidate set always contains the k-core component of v0).
//      When the facts carry a CoreIndex, step 3 comes early instead: the
//      first vertex of core number < k to enter C proves δ(G[C]) >= k
//      unreachable (a qualifying C lies inside the k-core, Lemma 3), so
//      expansion stops there and the answer — v0's k-core component —
//      is one slice copy of the index's leaf layout, with δ the level of
//      its merge-tree node. Status, members and δ are those of the peel;
//      only the work differs.
//
// Per-query cost is proportional to the neighborhood actually explored —
// not to |V| — thanks to epoch-stamped scratch state.

#ifndef LOCS_CORE_LOCAL_CST_H_
#define LOCS_CORE_LOCAL_CST_H_

#include "core/bucket_list.h"
#include "core/common.h"
#include "core/epoch.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "obs/recorder.h"
#include "util/guard.h"

namespace locs {

class CoreIndex;

/// Whole-graph facts gathered once and shared by all queries. The
/// Theorem-3/5 bounds require a connected graph; `connected` gates their
/// use so the solvers stay correct on disconnected inputs.
struct GraphFacts {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint32_t max_degree = 0;
  bool connected = false;
  /// The graph's core index, when one is resident (the serving layer's
  /// ServedGraph points it at its own). Non-null switches LocalCstSolver
  /// to the index-first plan (see the file comment); null — what Compute
  /// returns — runs Algorithm 2 as published. Not owned.
  const CoreIndex* index = nullptr;

  static GraphFacts Compute(const Graph& graph);
};

/// Reusable local-CST solver bound to one graph. Not thread-safe; create
/// one instance per thread.
class LocalCstSolver {
 public:
  /// `ordered` (optional) enables the §4.3.2 sorted-adjacency expansion;
  /// `facts` (optional) enables the Theorem-3 admission test.
  LocalCstSolver(const Graph& graph, const OrderedAdjacency* ordered,
                 const GraphFacts* facts);

  /// Solves CST(k) for `v0`. `status == kFound` iff a solution exists and
  /// the query ran to completion: the returned community is connected,
  /// contains v0, and has minimum induced degree >= k. `kNotExists` is an
  /// exact negative. A `guard` trip (deadline / budget / cancel) yields an
  /// interrupted status with the best connected community so far in
  /// `best_so_far`.
  SearchResult Solve(VertexId v0, uint32_t k, const CstOptions& options = {},
                     QueryStats* stats = nullptr, QueryGuard* guard = nullptr);

  /// Telemetry sink for completed queries; defaults to the no-op null
  /// sink (no clock reads, counters discarded). Not owned.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  }

 private:
  SearchResult SolveImpl(VertexId v0, uint32_t k, const CstOptions& options,
                         QueryGuard* guard, obs::PhaseTracker& tracker);
  VertexId SelectNext(Strategy strategy, uint32_t k, bool use_ordered);
  VertexId SelectLg(uint32_t k, bool use_ordered);
  void AddToC(VertexId v, uint32_t k, Strategy strategy, bool use_ordered,
              obs::PhaseStats& ph);
  SearchResult GlobalFallback(VertexId v0, uint32_t k,
                              obs::PhaseTracker& tracker, QueryGuard& guard,
                              uint64_t& charged);
  SearchResult IndexFallback(VertexId v0, uint32_t k,
                             obs::PhaseTracker& tracker);
  Community HarvestExpansion() const;
  Community HarvestUnpeeled(VertexId v0);
  uint32_t InducedMinDegree(const std::vector<VertexId>& members,
                            uint32_t mark) const;

  const Graph& graph_;
  const OrderedAdjacency* ordered_;
  const GraphFacts* facts_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  obs::QueryTelemetry telemetry_;  // reset at the top of every Solve

  // Flattened scratch: membership and induced degree share one packed cell
  // (fresh ⟺ v ∈ C), so the expansion inner loop's "is w in C, and at what
  // degree" probe is a single cache-line touch.
  EpochU32Array c_deg_;             // fresh ⟺ in C; value = deg within G[C]
  EpochFlags enqueued_;             // naive/lg: discovered (queued) once
  EpochU32Array peeled_;            // fallback: 1 = peeled, 2 = BFS-reached
  EpochU32Array cursor_;            // lg: adjacency scan position
  std::vector<VertexId> peel_worklist_;
  EpochBucketList li_queue_;        // li: frontier keyed by incidence
  EpochBucketList lg_sources_;      // lg: C members keyed by deg_in_c
  std::vector<VertexId> fifo_;      // naive order / lg fallback
  size_t fifo_head_ = 0;
  std::vector<VertexId> c_members_;
  uint64_t deficient_ = 0;          // |{v in C : deg_in_c < k}|
};

}  // namespace locs

#endif  // LOCS_CORE_LOCAL_CST_H_
