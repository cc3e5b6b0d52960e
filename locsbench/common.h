// Shared plumbing of the locs-bench harness: clocks, percentiles, the
// metric report every run prints, and the workload table.

#ifndef LOCSBENCH_COMMON_H_
#define LOCSBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace locsbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// Nearest-rank percentile of `values` (p in [0, 1]); 0 when empty.
/// Sorts a copy.
double Percentile(std::vector<double> values, double p);

/// Median of `values`; 0 when empty.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Samples per block of BlockedPercentile: enough for ten beyond a p99.
inline constexpr size_t kTailBlock = 1100;

/// Tail percentile robust to a single stall of the machine: `values` (in
/// arrival order) are cut into consecutive blocks of at least kTailBlock
/// samples, and the median of the blocks' percentiles is returned. With
/// fewer than two blocks' worth it is the plain percentile. `*blocks`
/// (optional) receives the number of blocks.
double BlockedPercentile(const std::vector<double>& values, double p,
                         size_t* blocks = nullptr);

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the metrics plus the correctness ledger. Every
/// failed check increments `failed` and appends a line to `problems`.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ledger_ok = true;
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one failed check (capped list of messages, exact count).
  void Fail(const std::string& what);
  bool correct() const { return failed == 0 && ledger_ok; }
};

/// The benchmark's workloads; see README.md for why each exists.
enum class WorkloadKind : uint8_t {
  kCstUniform,
  kHotCached,
  kMixedReload,
  kBatchKcore,
};

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  const char* graph;          ///< input graph tag (file stem under data/)
  double paced_rate;          ///< open-loop arrivals per second (serving)
  double p99_limit_ms;        ///< latency limit checked on the paced phase
  int cache_entries;          ///< locsd --cache-entries
};

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Command-line options of a measuring run.
struct RunArgs {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;    ///< generated graphs (input preparation)
  std::string work_dir;    ///< per-run scratch: port files, logs, spans
  std::string locsd;       ///< path of the locsd binary
  std::string locs_cli;    ///< path of the locs_cli binary
};

/// Peak resident set (VmHWM) of `pid` in MiB ("self" when pid <= 0).
double PeakRssMb(int pid);

}  // namespace locsbench

#endif  // LOCSBENCH_COMMON_H_
