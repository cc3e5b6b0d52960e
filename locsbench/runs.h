// Entry points of the three kinds of run the harness makes.

#ifndef LOCSBENCH_RUNS_H_
#define LOCSBENCH_RUNS_H_

#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "stream.h"

namespace locsbench {

/// A serving workload against a spawned locsd over loopback TCP: set-up,
/// warm-up, a paced open-loop phase, a closed-loop phase, the STATS
/// ledger check. With `args.trace` it also replays the stream in process
/// (RunServingReplay) for the per-layer metrics.
void RunServing(const RunArgs& args, const OracleGraph& graph,
                Report* report);

/// The in-process replay of a serving stream.
struct ReplayPlan {
  std::vector<Query> stream;  ///< replayed in order, one at a time
  /// A LOADIMG of `image_path` follows every this many queries (0: none),
  /// standing in for the timed reloads of the TCP run.
  size_t reload_every = 0;
  std::string image_path;
  std::string edge_path;
  int cache_entries = 0;
  /// The first this many replies of the traced pass are returned, to be
  /// compared byte for byte with locsd's.
  size_t keep_replies = 0;
};

/// Replays `plan.stream` through the serving layers' public entry points
/// twice — untraced, then traced — and sets the per-layer metrics the
/// replay measures. Returns false when the replay could not run.
bool RunServingReplay(const RunArgs& args, const OracleGraph& graph,
                      const ReplayPlan& plan,
                      std::vector<std::string>* first_replies,
                      Report* report);

/// The batch workload, in process (both trace modes).
void RunBatch(const RunArgs& args, const OracleGraph& graph, Report* report);

/// Edge-list path of a workload's input graph.
std::string EdgeListPath(const RunArgs& args);

/// Counts-only replay used by the self-test: the exact per-layer counts
/// of a traced replay for (workload, seed).
void RunCounts(const RunArgs& args, const OracleGraph& graph,
               Report* report);

}  // namespace locsbench

#endif  // LOCSBENCH_RUNS_H_
