// End-to-end integration test of the locs_cli binary: generate, stats,
// convert, decompose, and query via actual subprocess invocations.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "test_util.h"

namespace locs {
namespace {

#ifndef LOCS_CLI_PATH
#define LOCS_CLI_PATH "locs_cli"
#endif

/// Runs the CLI with `args`, captures stdout, returns {exit_code, output}.
std::pair<int, std::string> RunCli(const std::string& args) {
  const std::string command =
      std::string(LOCS_CLI_PATH) + " " + args + " 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

/// Like RunCli, but with stderr folded into the captured output — for
/// asserting on diagnostics.
std::pair<int, std::string> RunCliMergedStderr(const std::string& args) {
  const std::string command =
      std::string(LOCS_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

using testing::TempPath;

TEST(CliIntegrationTest, UsageOnNoArgs) {
  const auto [code, out] = RunCli("");
  EXPECT_NE(code, 0);
}

TEST(CliIntegrationTest, GenerateStatsQueryPipeline) {
  const std::string graph_path = TempPath("cli_pipeline.limg");
  {
    const auto [code, out] = RunCli(
        "generate --model=lfr --n=2000 --seed=5 --output=" + graph_path);
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("generated lfr graph"), std::string::npos);
  }
  {
    const auto [code, out] = RunCli("stats --input=" + graph_path);
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("vertices"), std::string::npos);
    EXPECT_NE(out.find("2,000"), std::string::npos);
    EXPECT_NE(out.find("degeneracy"), std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("csm --input=" + graph_path + " --vertex=7");
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("best community"), std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("cst --input=" + graph_path + " --vertex=7 --k=2");
    ASSERT_EQ(code, 0);
    EXPECT_TRUE(out.find("community:") != std::string::npos ||
                out.find("no community") != std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("decompose --input=" + graph_path + " --top=3");
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("degeneracy"), std::string::npos);
    EXPECT_NE(out.find("k-shell"), std::string::npos);
  }
}

TEST(CliIntegrationTest, CompileRejectsAnAlreadyCompiledImage) {
  // Recompiling a .limg must fail with a clear diagnostic, not a
  // confusing edge-list parse error from feeding binary bytes to the
  // text loader.
  const std::string graph_path = TempPath("cli_recompile.txt");
  const std::string image_path = TempPath("cli_recompile.limg");
  ASSERT_EQ(RunCli("generate --model=gnp --n=60 --p=0.2 --seed=4 "
                   "--output=" +
                   graph_path)
                .first,
            0);
  ASSERT_EQ(RunCli("compile " + graph_path + " " + image_path).first, 0);
  const auto [code, out] = RunCliMergedStderr(
      "compile " + image_path + " " + TempPath("cli_recompile2.limg"));
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("already a compiled graph image"), std::string::npos)
      << out;
}

TEST(CliIntegrationTest, UnopenableTraceFileIsAHardError) {
  // A --trace= path that cannot be opened must abort the run with the
  // typed open-error exit code — not run untraced with exit 0 and not
  // collapse into the generic failure code.
  const std::string graph_path = TempPath("cli_trace_err.limg");
  ASSERT_EQ(RunCli("generate --model=gnp --n=50 --p=0.2 --seed=9 --output=" +
                   graph_path)
                .first,
            0);
  const auto [code, out] =
      RunCli("cst --input=" + graph_path + " --vertex=1 --k=1 " +
             "--trace=/nonexistent-dir/trace.jsonl");
  EXPECT_EQ(code, 3);  // kExitOpenError
}

TEST(CliIntegrationTest, LocalAndGlobalAgreeOnGoodness) {
  const std::string graph_path = TempPath("cli_agree.limg");
  ASSERT_EQ(RunCli("generate --model=ba --n=1000 --m=4 --seed=3 --output=" +
                   graph_path)
                .first,
            0);
  const auto [code_l, local] =
      RunCli("csm --input=" + graph_path + " --vertex=11");
  const auto [code_g, global] =
      RunCli("csm --input=" + graph_path + " --vertex=11 --global");
  ASSERT_EQ(code_l, 0);
  ASSERT_EQ(code_g, 0);
  // Both report "δ=<value>"; the values must match.
  const auto delta_of = [](const std::string& text) {
    const size_t pos = text.find("δ=");
    EXPECT_NE(pos, std::string::npos);
    return text.substr(pos, text.find(' ', pos) - pos);
  };
  EXPECT_EQ(delta_of(local), delta_of(global));
}

TEST(CliIntegrationTest, ConvertRoundTripAcrossFormats) {
  const std::string image_path = TempPath("cli_conv.limg");
  const std::string metis_path = TempPath("cli_conv.metis");
  const std::string edge_path = TempPath("cli_conv.txt");
  ASSERT_EQ(RunCli("generate --model=gnp --n=300 --p=0.05 --seed=2 "
                   "--output=" +
                   image_path)
                .first,
            0);
  ASSERT_EQ(RunCli("convert --input=" + image_path +
                   " --output=" + metis_path)
                .first,
            0);
  ASSERT_EQ(RunCli("convert --input=" + metis_path +
                   " --output=" + edge_path)
                .first,
            0);
  // All three report identical edge counts in stats.
  const auto edges_of = [](const std::string& path) {
    const auto [code, out] = RunCli("stats --input=" + path);
    EXPECT_EQ(code, 0);
    const size_t pos = out.find("edges");
    return out.substr(pos, out.find('\n', pos) - pos);
  };
  EXPECT_EQ(edges_of(image_path), edges_of(metis_path));
}

TEST(CliIntegrationTest, BatchCommandRunsBothModes) {
  const std::string graph_path = TempPath("cli_batch.limg");
  ASSERT_EQ(RunCli("generate --model=lfr --n=1500 --seed=9 --output=" +
                   graph_path)
                .first,
            0);
  {
    const auto [code, out] = RunCli("batch --input=" + graph_path +
                                    " --mode=cst --k=3 --sample=50 "
                                    "--threads=4");
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("completed"), std::string::npos);
    EXPECT_NE(out.find("50"), std::string::npos);
    EXPECT_NE(out.find("batch wall ms"), std::string::npos);
  }
  {
    // Explicit query file with comments; --show-results prints one
    // "vertex goodness" line per completed query.
    const std::string queries_path = TempPath("cli_batch_queries.txt");
    {
      std::ofstream out(queries_path);
      out << "# query vertices\n3\n5\n8\n";
    }
    const auto [code, out] = RunCli(
        "batch --input=" + graph_path + " --mode=csm --queries-file=" +
        queries_path + " --show-results");
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("completed"), std::string::npos);
    EXPECT_NE(out.find("\n3 "), std::string::npos);
    EXPECT_NE(out.find("\n5 "), std::string::npos);
    EXPECT_NE(out.find("\n8 "), std::string::npos);
  }
  // Out-of-range vertex in the query file is a clean error.
  {
    const std::string bad_path = TempPath("cli_batch_bad.txt");
    {
      std::ofstream out(bad_path);
      out << "999999999\n";
    }
    EXPECT_NE(RunCli("batch --input=" + graph_path +
                     " --queries-file=" + bad_path)
                  .first,
              0);
  }
}

TEST(CliIntegrationTest, UnknownCommandHasDistinctExitAndStderr) {
  // Unknown subcommands are a user error distinct from the generic
  // usage failure: named on stderr, exit code 64.
  const std::string command = std::string(LOCS_CLI_PATH) +
                              " frobnicate 2>&1 1>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string err;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    err += buffer.data();
  }
  const int code = WEXITSTATUS(::pclose(pipe));
  EXPECT_EQ(code, 64);
  EXPECT_NE(err.find("unknown command 'frobnicate'"), std::string::npos)
      << err;
  // The usage path (no arguments) keeps its own exit code.
  EXPECT_NE(RunCli("").first, 64);
}

TEST(CliIntegrationTest, ErrorsAreClean) {
  EXPECT_NE(RunCli("stats --input=/nonexistent/graph").first, 0);
  EXPECT_NE(RunCli("frobnicate").first, 0);
  EXPECT_NE(RunCli("generate --model=unknown --output=/tmp/x").first, 0);
}

}  // namespace
}  // namespace locs
