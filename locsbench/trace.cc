#include "trace.h"

#include <cstdio>

#include "core/core_index.h"
#include "core/local_cst.h"
#include "graph/io.h"
#include "graph/ordering.h"
#include "store/image.h"

namespace locsbench {

namespace {

constexpr const char* kPhaseSpanNames[obs::kNumPhases] = {
    "phase.admission", "phase.expansion", "phase.candidates", "phase.core",
    "phase.connectivity"};

}  // namespace

int SpanLedger::Begin(const char* name, uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, request});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLedger::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanLedger::AddClosed(const char* name, uint64_t start_ns,
                          uint64_t end_ns, uint64_t request, int parent) {
  if (parent == kInnermost) parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLedger::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> SpanLedger::ChildNs() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return child_ns;
}

std::map<std::string, double> SpanLedger::SelfTimeNs() const {
  const std::vector<double> child_ns = ChildNs();
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
  }
  return self;
}

double SpanLedger::UnattributedFrac(const std::string& root) const {
  const std::vector<double> child_ns = ChildNs();
  double total = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root != spans_[i].name) continue;
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    total += duration;
    uncovered += duration - child_ns[i];
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool SpanLedger::WriteJsonl(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"request\":%llu}\n",
                 i, span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(file) == 0;
}

void PrintSelfTimes(const SpanLedger& ledger, const std::string& root) {
  double total = 0.0;
  for (const SpanLedger::Span& span : ledger.spans()) {
    if (root == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  if (total <= 0.0) return;
  std::printf("traced round trip: %.1f ms over %s spans; self time by span:\n",
              total / 1e6, root.c_str());
  for (const auto& [name, self_ns] : ledger.SelfTimeNs()) {
    const char* label = name == root ? "(unattributed)" : name.c_str();
    std::printf("  %-28s %7.3f%%  %10.3f ms\n", label,
                100.0 * self_ns / total, self_ns / 1e6);
  }
}

void CaptureRecorder::Record(const obs::QueryTelemetry& telemetry) {
  locs::MutexLock lock(mutex_);
  recorded_.push_back(telemetry);
}

std::vector<obs::QueryTelemetry> CaptureRecorder::Take() {
  locs::MutexLock lock(mutex_);
  std::vector<obs::QueryTelemetry> out;
  out.swap(recorded_);
  return out;
}

void AddPhaseSpans(SpanLedger* ledger, const obs::QueryTelemetry& telemetry,
                   uint64_t start_ns, uint64_t request, int parent) {
  uint64_t t = start_ns;
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const obs::PhaseStats& phase = telemetry.phases[i];
    if (phase.entered == 0) continue;
    ledger->AddClosed(kPhaseSpanNames[i], t, t + phase.duration_ns, request,
                      parent);
    t += phase.duration_ns;
  }
}

void CoreCounters::Add(const obs::QueryTelemetry& telemetry) {
  ++queries;
  if (telemetry.used_global_fallback) ++fallbacks;
  visited += telemetry.TotalVisited();
  scanned += telemetry.TotalScanned();
  answer_size += telemetry.answer_size;
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    cand_generated += telemetry.phases[i].candidates_generated;
    cand_rejected += telemetry.phases[i].candidates_rejected;
    phase_ns[i] += static_cast<double>(telemetry.phases[i].duration_ns);
  }
}

void CoreCounters::SetMetrics(Report* report) const {
  const double q = queries == 0 ? 1.0 : static_cast<double>(queries);
  report->Set("core.fallback_ratio", static_cast<double>(fallbacks) / q,
              "ratio");
  report->Set("core.cand_reject_ratio",
              cand_generated == 0 ? 0.0
                                  : static_cast<double>(cand_rejected) /
                                        static_cast<double>(cand_generated),
              "ratio");
  report->Set("core.visited_per_query", static_cast<double>(visited) / q,
              "count");
  report->Set("core.scanned_per_query", static_cast<double>(scanned) / q,
              "count");
  report->Set("core.answer_size_mean", static_cast<double>(answer_size) / q,
              "count");
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    report->Set(std::string(kPhaseSpanNames[i]) + "_ms",
                phase_ns[i] / q / 1e6, "ms");
  }
}

bool RunSetupLedger(const std::string& edge_path,
                    const std::string& image_path, Report* report) {
  constexpr int kReps = 3;
  std::vector<double> parse_ms, build_ms, compile_ms, load_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t t0 = NowNs();
    locs::IoError error;
    std::optional<locs::Graph> graph = locs::LoadEdgeList(edge_path, &error);
    parse_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!graph.has_value()) {
      report->Fail("set-up ledger: cannot parse " + edge_path + ": " +
                   error.message);
      return false;
    }
    t0 = NowNs();
    const locs::GraphFacts facts = locs::GraphFacts::Compute(*graph);
    const locs::OrderedAdjacency ordered(*graph);
    const locs::CoreIndex index(*graph);
    build_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    t0 = NowNs();
    const bool written = locs::store::WriteGraphImage(
        *graph, facts, ordered, index, image_path, &error);
    compile_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!written) {
      report->Fail("set-up ledger: cannot write " + image_path + ": " +
                   error.message);
      return false;
    }
    t0 = NowNs();
    const auto image = locs::store::LoadGraphImage(image_path, &error);
    load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!image.has_value() ||
        image->graph.NumEdges() != graph->NumEdges()) {
      report->Fail("set-up ledger: image round trip failed: " +
                   error.message);
      return false;
    }
  }
  report->Set("graph.parse_ms", Median(parse_ms), "ms");
  report->Set("graph.index_build_ms", Median(build_ms), "ms");
  report->Set("store.compile_ms", Median(compile_ms), "ms");
  report->Set("store.image_load_ms", Median(load_ms), "ms");
  return true;
}

void SeedPerLayerMetrics(Report* report) {
  static const std::pair<const char*, const char*> kMetrics[] = {
      {"transport.write_us", "us"},
      {"transport.reply_bytes", "bytes"},
      {"wire.parse_us", "us"},
      {"result_cache.lookup_us", "us"},
      {"result_cache.insert_us", "us"},
      {"result_cache.hit_ratio", "ratio"},
      {"result_cache.evictions", "count"},
      {"admission.busy", "count"},
      {"registry.get_us", "us"},
      {"registry.load_ms", "ms"},
      {"store.image_load_ms", "ms"},
      {"store.compile_ms", "ms"},
      {"graph.parse_ms", "ms"},
      {"graph.index_build_ms", "ms"},
      {"local_cst.solve_us_p50", "us"},
      {"local_cst.solve_us_p99", "us"},
      {"local_csm.solve_us_p50", "us"},
      {"local_csm.solve_us_p99", "us"},
      {"multi.solve_us_p50", "us"},
      {"core.fallback_ratio", "ratio"},
      {"core.cand_reject_ratio", "ratio"},
      {"core.visited_per_query", "count"},
      {"core.scanned_per_query", "count"},
      {"core.answer_size_mean", "count"},
      {"phase.admission_ms", "ms"},
      {"phase.expansion_ms", "ms"},
      {"phase.candidates_ms", "ms"},
      {"phase.core_ms", "ms"},
      {"phase.connectivity_ms", "ms"},
      {"exec.batch_wall_ms", "ms"},
      {"exec.busy_frac", "ratio"},
      {"server.solve_p50_us", "us"},
      {"server.solve_p95_us", "us"},
      {"server.cpu_us_per_req", "us"},
      {"driver.late_p99_ms", "ms"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kMetrics) report->Set(name, 0.0, unit);
}

}  // namespace locsbench
