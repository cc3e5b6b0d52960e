// Seeded request streams. The benchmark seed drives vertex sampling,
// the request mix and the arrival schedule; the program under test only
// ever sees the generated request lines.

#ifndef LOCSBENCH_STREAM_H_
#define LOCSBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace locsbench {

class OracleGraph;

enum class QueryVerb : uint8_t { kCst, kCsm, kMulti, kLoadImg };

/// One request of a stream, with everything the oracle needs to check
/// its reply.
struct Query {
  QueryVerb verb = QueryVerb::kCst;
  uint32_t v = 0;               ///< query vertex (MULTI: first seed)
  uint32_t k = 0;               ///< CST/MULTI threshold
  std::vector<uint32_t> seeds;  ///< MULTI seeds, v first
  uint32_t limit = 0;           ///< limit= option (0 = full member list)
  std::string line;             ///< the request line, no newline
};

/// Name every serving request addresses the graph by.
inline constexpr const char* kGraphName = "g";

/// Warm-up requests sent before anything is timed: the hot set twice
/// for hot_cached (fills the cache), a short prefix otherwise.
std::vector<Query> WarmupStream(const WorkloadSpec& spec,
                                const OracleGraph& graph, uint64_t seed);

/// `count` measured requests of the workload's mix, drawn from `seed`.
/// Distinct `salt`s give independent streams from one seed (the paced
/// and closed-loop phases use different ones).
std::vector<Query> MeasuredStream(const WorkloadSpec& spec,
                                  const OracleGraph& graph, uint64_t seed,
                                  uint64_t salt, size_t count);

/// Seeded exponential inter-arrival schedule: `count` due offsets in
/// nanoseconds from the phase start, at `rate` arrivals per second.
std::vector<uint64_t> PoissonSchedule(double rate, size_t count,
                                      uint64_t seed);

/// The `LOADIMG` request a mixed_reload run sends every reload period.
Query ReloadQuery(const std::string& image_path);

/// Reloads happen every this many seconds (and, in the deterministic
/// in-process replay, every paced_rate * this many requests).
inline constexpr double kReloadPeriodS = 2.0;

/// Batch workload query classes (paper §6.1.3 and Fig. 11): ls-li CST at
/// k = s, 3s, 8s over k-core-sampled vertices, then CSM over vertices of
/// degree >= 10, with s = max(1, degeneracy / 10).
struct BatchPlan {
  uint32_t s = 1;
  uint32_t ks[3] = {1, 3, 8};
  std::vector<uint32_t> cst[3];  ///< query vertices per k
  std::vector<uint32_t> csm;     ///< CSM query vertices
};

/// Samples `per_class` vertices for each batch class from `seed`.
BatchPlan MakeBatchPlan(const OracleGraph& graph, uint64_t seed,
                        size_t per_class);

}  // namespace locsbench

#endif  // LOCSBENCH_STREAM_H_
