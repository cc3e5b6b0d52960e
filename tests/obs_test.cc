// Unit tests for the telemetry layer (src/obs/): phase bookkeeping,
// the tracker's span semantics, the null/aggregate/trace sinks, and the
// shared JSON primitives the trace sink renders with.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace_sink.h"
#include "test_util.h"
#include "util/json.h"

namespace locs::obs {
namespace {

TEST(PhaseTest, NamesAreTheFormatContract) {
  // These strings appear in wire replies, STATS keys, and JSONL traces;
  // changing one is a format break, which this test makes loud.
  EXPECT_EQ(PhaseName(Phase::kAdmission), "admission");
  EXPECT_EQ(PhaseName(Phase::kExpansion), "expansion");
  EXPECT_EQ(PhaseName(Phase::kCandidates), "candidates");
  EXPECT_EQ(PhaseName(Phase::kCoreDecomposition), "core");
  EXPECT_EQ(PhaseName(Phase::kConnectivity), "connectivity");
}

TEST(PhaseStatsTest, WorkAndMerge) {
  PhaseStats a;
  a.vertices_visited = 3;
  a.edges_scanned = 10;
  a.candidates_generated = 4;
  EXPECT_EQ(a.Work(), 13u);

  PhaseStats b;
  b.duration_ns = 7;
  b.entered = 2;
  b.vertices_visited = 1;
  b.candidates_rejected = 5;
  b.budget_spent = 6;
  a.Merge(b);
  EXPECT_EQ(a.duration_ns, 7u);
  EXPECT_EQ(a.entered, 2u);
  EXPECT_EQ(a.vertices_visited, 4u);
  EXPECT_EQ(a.edges_scanned, 10u);
  EXPECT_EQ(a.candidates_generated, 4u);
  EXPECT_EQ(a.candidates_rejected, 5u);
  EXPECT_EQ(a.budget_spent, 6u);
}

TEST(QueryTelemetryTest, TotalsSumAcrossPhases) {
  QueryTelemetry t;
  t[Phase::kExpansion].vertices_visited = 5;
  t[Phase::kExpansion].edges_scanned = 20;
  t[Phase::kCoreDecomposition].vertices_visited = 7;
  t[Phase::kConnectivity].edges_scanned = 2;
  t[Phase::kAdmission].duration_ns = 11;
  t[Phase::kCandidates].duration_ns = 31;
  EXPECT_EQ(t.TotalVisited(), 12u);
  EXPECT_EQ(t.TotalScanned(), 22u);
  EXPECT_EQ(t.TotalWork(), 34u);
  EXPECT_EQ(t.TotalDurationNs(), 42u);
}

TEST(QueryTelemetryTest, MergeAndReset) {
  QueryTelemetry a;
  a[Phase::kExpansion].vertices_visited = 1;
  a.answer_size = 4;
  QueryTelemetry b;
  b[Phase::kExpansion].vertices_visited = 2;
  b[Phase::kAdmission].entered = 1;
  b.used_global_fallback = true;
  b.answer_size = 6;
  a.Merge(b);
  EXPECT_EQ(a[Phase::kExpansion].vertices_visited, 3u);
  EXPECT_EQ(a[Phase::kAdmission].entered, 1u);
  EXPECT_TRUE(a.used_global_fallback);
  EXPECT_EQ(a.answer_size, 10u);

  a.Reset();
  EXPECT_EQ(a.TotalWork(), 0u);
  EXPECT_EQ(a.TotalDurationNs(), 0u);
  EXPECT_FALSE(a.used_global_fallback);
  EXPECT_EQ(a.answer_size, 0u);
  for (const PhaseStats& p : a.phases) EXPECT_EQ(p.entered, 0u);
}

TEST(PhaseTrackerTest, UntimedTrackerNeverProducesDurations) {
  QueryTelemetry t;
  PhaseTracker tracker(&t, /*timed=*/false);
  PhaseStats& expansion = tracker.Enter(Phase::kExpansion);
  expansion.vertices_visited += 2;
  tracker.Enter(Phase::kCoreDecomposition);
  tracker.Enter(Phase::kExpansion);  // re-entering counts a new span
  tracker.Finish();
  EXPECT_EQ(t[Phase::kExpansion].entered, 2u);
  EXPECT_EQ(t[Phase::kCoreDecomposition].entered, 1u);
  EXPECT_EQ(t[Phase::kExpansion].vertices_visited, 2u);
  EXPECT_EQ(t.TotalDurationNs(), 0u);
}

TEST(PhaseTrackerTest, TimedTrackerChargesElapsedTimeToTheOpenPhase) {
  QueryTelemetry t;
  PhaseTracker tracker(&t, /*timed=*/true);
  tracker.Enter(Phase::kExpansion);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracker.Enter(Phase::kConnectivity);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracker.Finish();
  // Each phase held the span across a real sleep; both must have
  // accumulated wall time, and only the phases that were open get any.
  EXPECT_GT(t[Phase::kExpansion].duration_ns, 0u);
  EXPECT_GT(t[Phase::kConnectivity].duration_ns, 0u);
  EXPECT_EQ(t[Phase::kAdmission].duration_ns, 0u);
  EXPECT_EQ(t.TotalDurationNs(),
            t[Phase::kExpansion].duration_ns +
                t[Phase::kConnectivity].duration_ns);
}

TEST(RecorderTest, NullSinkIsProcessWideAndTimingDisabled) {
  Recorder& null_sink = Recorder::Null();
  EXPECT_FALSE(null_sink.timing_enabled());
  EXPECT_EQ(&null_sink, &Recorder::Null());
  QueryTelemetry t;
  t.answer_size = 3;
  null_sink.Record(t);  // must be a harmless no-op
}

TEST(AggregateRecorderTest, TotalsFoldAcrossQueries) {
  AggregateRecorder recorder;
  EXPECT_TRUE(recorder.timing_enabled());

  QueryTelemetry q1;
  q1[Phase::kExpansion].vertices_visited = 5;
  q1[Phase::kExpansion].entered = 1;
  q1[Phase::kExpansion].duration_ns = 100;
  recorder.Record(q1);

  QueryTelemetry q2;
  q2[Phase::kExpansion].vertices_visited = 7;
  q2[Phase::kExpansion].entered = 1;
  q2[Phase::kCoreDecomposition].edges_scanned = 9;
  q2[Phase::kCoreDecomposition].entered = 1;
  q2.used_global_fallback = true;
  recorder.Record(q2);

  const AggregateRecorder::Totals totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, 2u);
  EXPECT_EQ(totals.fallbacks, 1u);
  EXPECT_EQ(totals.sum[Phase::kExpansion].vertices_visited, 12u);
  EXPECT_EQ(totals.sum[Phase::kExpansion].entered, 2u);
  EXPECT_EQ(totals.sum[Phase::kExpansion].duration_ns, 100u);
  EXPECT_EQ(totals.sum[Phase::kCoreDecomposition].edges_scanned, 9u);
  EXPECT_EQ(totals.sum[Phase::kCandidates].entered, 0u);
}

TEST(AggregateRecorderTest, ConcurrentRecordsAllLand) {
  AggregateRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&recorder] {
      QueryTelemetry t;
      t[Phase::kExpansion].vertices_visited = 1;
      for (int j = 0; j < kPerThread; ++j) recorder.Record(t);
    });
  }
  for (std::thread& t : threads) t.join();
  const AggregateRecorder::Totals totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(totals.sum[Phase::kExpansion].vertices_visited,
            uint64_t{kThreads} * kPerThread);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceSinkTest, WritesOneJsonlLinePerQuery) {
  const std::string path = testing::TempPath("trace_sink_test.jsonl");
  {
    TraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    EXPECT_TRUE(sink.timing_enabled());

    QueryTelemetry q;
    q[Phase::kExpansion].entered = 1;
    q[Phase::kExpansion].vertices_visited = 4;
    q[Phase::kExpansion].edges_scanned = 17;
    q[Phase::kExpansion].duration_ns = 123;
    q.answer_size = 4;
    sink.Record(q);

    sink.Annotate("csm");
    QueryTelemetry r;
    r.used_global_fallback = true;
    sink.Record(r);
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  // Line 0: seq, no label, totals, and exactly the entered phase block.
  EXPECT_NE(lines[0].find("\"seq\": 0"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find("\"label\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"visited\": 4"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"scanned\": 17"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"fallback\": false"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"expansion\": {"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"duration_ns\": 123"), std::string::npos)
      << lines[0];
  // Phases with entered == 0 are skipped.
  EXPECT_EQ(lines[0].find("\"admission\""), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find("\"core\""), std::string::npos) << lines[0];
  // Line 1: next seq, the annotation label, the fallback flag, and no
  // phase blocks at all (nothing was entered).
  EXPECT_NE(lines[1].find("\"seq\": 1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"label\": \"csm\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"fallback\": true"), std::string::npos)
      << lines[1];
  EXPECT_EQ(lines[1].find("\"expansion\""), std::string::npos) << lines[1];
}

TEST(TraceSinkTest, UnopenablePathReportsNotOk) {
  TraceSink sink("/nonexistent-dir-for-sure/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  QueryTelemetry t;
  sink.Record(t);  // must not crash
  EXPECT_FALSE(sink.ok());
}

// ---------------------------------------------------------------------
// The JSON primitives the sink (and the bench reports) render with.
// ---------------------------------------------------------------------
TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(json::Quote("plain"), "\"plain\"");
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::Quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::Quote("line\nbreak\tand\rreturn"),
            "\"line\\nbreak\\tand\\rreturn\"");
  // Literal split so the hex escape does not swallow the 'b'.
  EXPECT_EQ(json::Quote(std::string("ctl\x01" "byte")),
            "\"ctl\\u0001byte\"");
  EXPECT_EQ(json::Quote(std::string("esc\x1b!")), "\"esc\\u001b!\"");
}

TEST(JsonTest, NumbersRoundTrip) {
  EXPECT_EQ(json::Number(3.0), "3");
  EXPECT_EQ(json::Number(-2.0), "-2");
  EXPECT_EQ(json::Number(uint64_t{0}), "0");
  // uint64 values above 2^53 must render exactly (no double detour).
  EXPECT_EQ(json::Number(uint64_t{18446744073709551615u}),
            "18446744073709551615");
  // Doubles render the shortest form that parses back identically.
  const double value = 0.1;
  EXPECT_EQ(std::stod(json::Number(value)), value);
  // JSON has no NaN/Inf.
  EXPECT_EQ(json::Number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, ObjectRendersInInsertionOrder) {
  json::Object object;
  object.Str("name", "x").Count("n", 2).Bool("flag", true).Num("g", 1.5);
  EXPECT_EQ(object.Render(),
            "{\"name\": \"x\", \"n\": 2, \"flag\": true, \"g\": 1.5}");
  json::Object outer;
  outer.Field("inner", object.Render());
  EXPECT_EQ(outer.Render(),
            "{\"inner\": {\"name\": \"x\", \"n\": 2, \"flag\": true, "
            "\"g\": 1.5}}");
}

}  // namespace
}  // namespace locs::obs
