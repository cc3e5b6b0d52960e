// The traced run's span ledger. Spans are recorded from the benchmark's
// own files around each call into a layer's public entry point, held in
// memory, and written out as JSON lines when the run ends.

#ifndef LOCSBENCH_TRACE_H_
#define LOCSBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "util/thread_annotations.h"

namespace locsbench {

namespace obs = locs::obs;

class SpanLedger {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;    ///< index of the enclosing span, -1 for a root
    uint64_t request;  ///< spans of one request share this id
  };

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, uint64_t request);
  void End(int index);

  /// Records an already-closed span (solver phases, whose durations come
  /// from obs telemetry after the call) under `parent`, by default the
  /// innermost open span. Returns its index.
  static constexpr int kInnermost = -2;
  int AddClosed(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t request, int parent = kInnermost);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Summed self time (duration minus direct children) per span name, ns.
  std::map<std::string, double> SelfTimeNs() const;

  /// Share of the summed duration of spans called `root` that none of
  /// their direct children covers.
  double UnattributedFrac(const std::string& root) const;

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  /// Summed duration of each span's direct children, by span index.
  std::vector<double> ChildNs() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Prints each span name's summed self time as a share of the summed
/// `root` spans, plus the unattributed share; the rows add up to 100%.
void PrintSelfTimes(const SpanLedger& ledger, const std::string& root);

/// RAII span; a null ledger records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLedger* ledger, const char* name, uint64_t request)
      : ledger_(ledger),
        index_(ledger != nullptr ? ledger->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (ledger_ != nullptr) ledger_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLedger* ledger_;
  int index_;
};

/// Timing-enabled obs recorder that keeps every query's telemetry, so
/// phase durations can be laid under the solver span that produced them.
/// Safe for concurrent Record() (batch workers).
class CaptureRecorder : public obs::Recorder {
 public:
  bool timing_enabled() const override { return true; }
  void Record(const obs::QueryTelemetry& telemetry) override
      LOCS_EXCLUDES(mutex_);

  /// Moves out everything recorded since the last call.
  std::vector<obs::QueryTelemetry> Take() LOCS_EXCLUDES(mutex_);

 private:
  locs::Mutex mutex_;
  std::vector<obs::QueryTelemetry> recorded_ LOCS_GUARDED_BY(mutex_);
};

/// Adds one closed span per entered phase of `telemetry`, laid end to end
/// from `start_ns` (obs reports phase durations, not their start times).
void AddPhaseSpans(SpanLedger* ledger, const obs::QueryTelemetry& telemetry,
                   uint64_t start_ns, uint64_t request,
                   int parent = SpanLedger::kInnermost);

/// Deterministic solver work counters of a traced run.
struct CoreCounters {
  uint64_t queries = 0;
  uint64_t fallbacks = 0;
  uint64_t visited = 0;
  uint64_t scanned = 0;
  uint64_t cand_generated = 0;
  uint64_t cand_rejected = 0;
  uint64_t answer_size = 0;
  double phase_ns[obs::kNumPhases] = {};

  void Add(const obs::QueryTelemetry& telemetry);
  /// Sets the core.* and phase.* metrics.
  void SetMetrics(Report* report) const;
};

/// Set-up ledger on the workload's graph: graph.parse_ms (edge-list
/// parse), graph.index_build_ms (facts + ordering + CoreIndex),
/// store.compile_ms (image write) and store.image_load_ms (map + verify),
/// each the median of three. Writes the image to `image_path`.
bool RunSetupLedger(const std::string& edge_path,
                    const std::string& image_path, Report* report);

/// Every per-layer metric, zero-initialised, so a traced run always
/// reports the full list (layers a workload does not exercise read 0).
void SeedPerLayerMetrics(Report* report);

}  // namespace locsbench

#endif  // LOCSBENCH_TRACE_H_
