// Unit tests for JsonReport, the writer behind the BENCH_*.json CI
// artifacts: escaping, numeric rendering, structural nesting, and the
// Render()/Write() round trip.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/reporting.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace locs::bench {
namespace {

TEST(JsonReportTest, EmptyReportIsStructurallyComplete) {
  JsonReport report("empty");
  const std::string text = report.Render();
  EXPECT_EQ(text,
            "{\n"
            "  \"experiment\": \"empty\",\n"
            "  \"meta\": {\n"
            "  },\n"
            "  \"rows\": [\n"
            "  ]\n}\n");
}

TEST(JsonReportTest, MetaAndRowsRenderInInsertionOrder) {
  JsonReport report("fig13");
  report.Meta("graph", "lfr_20k").Meta("seed", "5");
  report.AddRow().Num("k", 3).Num("visited", 120.5).Str("solver", "ls-li");
  report.AddRow().Num("k", 4).Str("solver", "global");
  const std::string text = report.Render();
  EXPECT_EQ(text,
            "{\n"
            "  \"experiment\": \"fig13\",\n"
            "  \"meta\": {\n"
            "    \"graph\": \"lfr_20k\",\n"
            "    \"seed\": \"5\"\n"
            "  },\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"k\": 3,\n"
            "      \"visited\": 120.5,\n"
            "      \"solver\": \"ls-li\"\n"
            "    },\n"
            "    {\n"
            "      \"k\": 4,\n"
            "      \"solver\": \"global\"\n"
            "    }\n"
            "  ]\n}\n");
}

TEST(JsonReportTest, EscapesMetaAndStringFields) {
  JsonReport report("quote\"me");
  report.Meta("path", "/tmp/a\\b\nnewline");
  report.AddRow().Str("label", "tab\there");
  const std::string text = report.Render();
  EXPECT_NE(text.find("\"experiment\": \"quote\\\"me\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"path\": \"/tmp/a\\\\b\\nnewline\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"label\": \"tab\\there\""), std::string::npos)
      << text;
  // The raw control bytes must never appear inside the rendered JSON
  // strings (the only real newlines are the pretty-printer's own).
  EXPECT_EQ(text.find("a\\b\nnewline"), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos);
}

TEST(JsonReportTest, IntegralNumbersRenderUndecorated) {
  JsonReport report("numbers");
  report.AddRow().Num("n", 2000).Num("rate", 0.25).Num("neg", -3);
  const std::string text = report.Render();
  EXPECT_NE(text.find("\"n\": 2000,"), std::string::npos) << text;
  EXPECT_NE(text.find("\"rate\": 0.25,"), std::string::npos) << text;
  EXPECT_NE(text.find("\"neg\": -3\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("2000.0"), std::string::npos) << text;
}

TEST(JsonReportTest, WriteRoundTripsRender) {
  const std::string path = testing::TempPath("json_report_test.json");
  JsonReport report("roundtrip");
  report.Meta("graph", "gnp");
  report.AddRow().Num("k", 5).Str("note", "line\none");
  ASSERT_TRUE(report.Write(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream loaded;
  loaded << in.rdbuf();
  EXPECT_EQ(loaded.str(), report.Render());
  std::remove(path.c_str());
}

TEST(JsonReportTest, WriteToUnopenablePathFails) {
  JsonReport report("fail");
  EXPECT_FALSE(report.Write("/nonexistent-dir-for-sure/report.json"));
}

}  // namespace
}  // namespace locs::bench
