#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace locsbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      rank <= 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double BlockedPercentile(const std::vector<double>& values, double p,
                         size_t* blocks) {
  const size_t count = std::max<size_t>(1, values.size() / kTailBlock);
  if (blocks != nullptr) *blocks = count;
  if (count == 1) return Percentile(values, p);
  std::vector<double> per_block;
  for (size_t b = 0; b < count; ++b) {
    const auto first = values.begin() + static_cast<long>(b * kTailBlock);
    const auto last = b + 1 == count
                          ? values.end()
                          : first + static_cast<long>(kTailBlock);
    per_block.push_back(Percentile(std::vector<double>(first, last), p));
  }
  return Median(per_block);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"cst_uniform", WorkloadKind::kCstUniform, "serve20k", 250.0, 50.0, 256},
    {"hot_cached", WorkloadKind::kHotCached, "serve20k", 2000.0, 2.0, 1024},
    {"mixed_reload", WorkloadKind::kMixedReload, "serve20k", 120.0, 100.0,
     256},
    {"batch_kcore", WorkloadKind::kBatchKcore, "dblp-sim", 0.0, 0.0, 0},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid <= 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kib / 1024.0;
}

}  // namespace locsbench
