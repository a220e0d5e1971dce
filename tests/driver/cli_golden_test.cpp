// Golden contract of the CLI, enforced at the driver library layer: the
// usage text is pinned byte-for-byte (tools/check_docs.sh cross-checks the
// documented flags against it, and embedders key off the same string), the
// flag grammar of parseArgs() is stable, and the exit-code contract is
//   0 = success, 1 = step/certification/verification failure,
//   2 = usage or parse error.
// If a change here is intentional, update docs/cli.md and the README in the
// same commit.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/driver.hpp"

namespace relb::driver {
namespace {

ParseOutcome parse(std::vector<const char*> argv) {
  return parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliGolden, UsageTextIsPinnedByteForByte) {
  const std::string expected =
      "usage: round_eliminator_cli [flags] \"<node configs>\" "
      "\"<edge configs>\" [maxSteps] [threads]\n"
      "       round_eliminator_cli [flags] --chain DELTA [--x0 K]\n"
      "       round_eliminator_cli [flags] --family NAME | --family-def FILE "
      "[maxSteps] [threads]\n"
      "       round_eliminator_cli --verify-cert FILE\n"
      "configurations separated by ';', e.g. \"M^3; P O^2\"\n"
      "threads: 0 = hardware concurrency (default), 1 = serial\n"
      "flags: --stats --store DIR --resume --save-cert FILE\n"
      "       --verify-cert FILE --chain DELTA --x0 K\n"
      "       --family NAME --family-def FILE --param NAME=VALUE\n"
      "       --trace FILE --trace-format {chrome,text} --report FILE\n";
  EXPECT_EQ(usageText("round_eliminator_cli"), expected);
}

/// The `--stats` counter block of one run: the output after its
/// "engine cache statistics:" header.  It must equal the run's own
/// CacheStats::describe() plus, with a store, the store's line.
std::string statsBlock(const RunResult& result) {
  const std::string header = "engine cache statistics:\n";
  const std::size_t at = result.output.find(header);
  if (at == std::string::npos) return "(no stats block)";
  return result.output.substr(at + header.size());
}

TEST(CliGolden, CacheStatsBlockIsPinnedByteForByte) {
  // MIS at Delta = 3, three steps, serial: without a store, against a cold
  // store and against the same store warm.  Every counter line is part of
  // the contract (docs/cli.md); any change to the memo discipline that
  // moves a count shows up here.
  RunRequest req;
  req.nodeSpec = "M^3; P O^2";
  req.edgeSpec = "M [P O]; O O";
  req.maxSteps = 3;
  req.numThreads = 1;
  req.showStats = true;
  const std::string plain =
      "speedup steps: 8 hits / 6 misses\n"
      "edge compatibility: 0 hits / 3 misses\n"
      "strength diagrams: 0 hits / 3 misses\n"
      "right-closed families: 0 hits / 3 misses\n"
      "zero-round analyses: 1 hits / 215 misses\n"
      "canonical forms: 0 hits / 0 misses\n"
      "automatic lower bounds: 0 hits / 1 misses\n"
      "interned problems: 0\n"
      "step store: 0 hits / 0 misses / 0 writes\n";
  const RunResult noStore = run(req);
  ASSERT_EQ(noStore.status, RunStatus::kOk) << noStore.diagnostics;
  EXPECT_EQ(noStore.sessionStats.describe(), plain);
  EXPECT_EQ(statsBlock(noStore), plain);

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "cli-golden-stats-store";
  std::filesystem::remove_all(dir);
  req.storeDir = dir.string();
  const RunResult cold = run(req);
  ASSERT_EQ(cold.status, RunStatus::kOk) << cold.diagnostics;
  EXPECT_EQ(statsBlock(cold),
            "speedup steps: 8 hits / 6 misses\n"
            "edge compatibility: 0 hits / 3 misses\n"
            "strength diagrams: 0 hits / 3 misses\n"
            "right-closed families: 0 hits / 3 misses\n"
            "zero-round analyses: 1 hits / 215 misses\n"
            "canonical forms: 0 hits / 0 misses\n"
            "automatic lower bounds: 0 hits / 1 misses\n"
            "interned problems: 0\n"
            "step store: 0 hits / 221 misses / 221 writes\n"
            "store: 0 hits / 221 misses / 221 writes / 0 quarantined\n");
  const RunResult warm = run(req);
  ASSERT_EQ(warm.status, RunStatus::kOk) << warm.diagnostics;
  EXPECT_EQ(statsBlock(warm),
            "speedup steps: 8 hits / 0 misses\n"
            "edge compatibility: 0 hits / 0 misses\n"
            "strength diagrams: 0 hits / 0 misses\n"
            "right-closed families: 0 hits / 0 misses\n"
            "zero-round analyses: 1 hits / 0 misses\n"
            "canonical forms: 0 hits / 0 misses\n"
            "automatic lower bounds: 0 hits / 1 misses\n"
            "interned problems: 0\n"
            "step store: 221 hits / 0 misses / 0 writes\n"
            "store: 221 hits / 0 misses / 0 writes / 0 quarantined\n");
  std::filesystem::remove_all(dir);

  // Sinkless orientation reaches a fixed point, so the same block also
  // pins the canonical memo, interning and the sub-result hits.
  req.nodeSpec = "O [I O]^2";
  req.edgeSpec = "I O";
  req.storeDir.clear();
  const RunResult so = run(req);
  ASSERT_EQ(so.status, RunStatus::kOk) << so.diagnostics;
  EXPECT_EQ(statsBlock(so),
            "speedup steps: 10 hits / 6 misses\n"
            "edge compatibility: 1 hits / 2 misses\n"
            "strength diagrams: 0 hits / 2 misses\n"
            "right-closed families: 1 hits / 2 misses\n"
            "zero-round analyses: 0 hits / 5 misses\n"
            "canonical forms: 1 hits / 3 misses\n"
            "automatic lower bounds: 0 hits / 1 misses\n"
            "interned problems: 2\n"
            "step store: 0 hits / 0 misses / 0 writes\n");
}

TEST(CliGolden, HelpRequestsUsageNotAnError) {
  for (const char* flag : {"--help", "-h"}) {
    const ParseOutcome outcome = parse({"cli", flag});
    EXPECT_TRUE(outcome.helpRequested) << flag;
    EXPECT_TRUE(outcome.error.empty()) << flag;
  }
}

TEST(CliGolden, MissingFlagValueIsAParseError) {
  const ParseOutcome outcome = parse({"cli", "--store"});
  EXPECT_EQ(outcome.error, "--store requires a value");
}

TEST(CliGolden, BadTraceFormatIsAParseError) {
  const ParseOutcome outcome = parse({"cli", "--trace-format", "xml"});
  EXPECT_EQ(outcome.error, "--trace-format must be 'chrome' or 'text'");
}

TEST(CliGolden, PositionalGrammar) {
  const ParseOutcome outcome =
      parse({"cli", "M M M; P O O", "M P; O O", "3", "1"});
  ASSERT_TRUE(outcome.error.empty());
  ASSERT_FALSE(outcome.helpRequested);
  const RunRequest& req = outcome.request;
  EXPECT_EQ(req.mode, RunRequest::Mode::kProblem);
  EXPECT_EQ(req.nodeSpec, "M M M; P O O");
  EXPECT_EQ(req.edgeSpec, "M P; O O");
  EXPECT_EQ(req.maxSteps, 3);
  EXPECT_EQ(req.numThreads, 1);
}

TEST(CliGolden, ChainModeShiftsPositionals) {
  const ParseOutcome outcome = parse({"cli", "--chain", "8", "--x0", "2",
                                      "4", "1"});
  ASSERT_TRUE(outcome.error.empty());
  const RunRequest& req = outcome.request;
  EXPECT_EQ(req.mode, RunRequest::Mode::kChain);
  EXPECT_EQ(req.chainDelta, 8);
  EXPECT_EQ(req.chainX0, 2);
  // With the problem text implied, [maxSteps] [threads] move up front.
  EXPECT_EQ(req.maxSteps, 4);
  EXPECT_EQ(req.numThreads, 1);
}

TEST(CliGolden, FamilyModeShiftsPositionals) {
  const ParseOutcome outcome = parse({"cli", "--family", "maximal_matching",
                                      "--param", "delta=4", "4", "1"});
  ASSERT_TRUE(outcome.error.empty());
  const RunRequest& req = outcome.request;
  EXPECT_EQ(req.mode, RunRequest::Mode::kFamily);
  EXPECT_EQ(req.familyName, "maximal_matching");
  ASSERT_EQ(req.familyParams.size(), 1u);
  EXPECT_EQ(req.familyParams[0].first, "delta");
  EXPECT_EQ(req.familyParams[0].second, 4);
  EXPECT_EQ(req.maxSteps, 4);
  EXPECT_EQ(req.numThreads, 1);
}

TEST(CliGolden, MalformedParamIsAParseError) {
  const ParseOutcome outcome =
      parse({"cli", "--family", "pi", "--param", "delta"});
  EXPECT_EQ(outcome.error, "--param expects NAME=VALUE, got 'delta'");
}

TEST(CliGolden, NumbersMustBeWholeIntegers) {
  // Every numeric argument is read in full: a trailing character, a word
  // or an empty token is a parse error (exit 2), never a silent 0 or prefix.
  const struct {
    std::vector<const char*> argv;
    const char* error;
  } cases[] = {
      {{"cli", "M^3; P O^2", "M [P O]; O O", "three"},
       "bad value for maxSteps"},
      {{"cli", "M^3; P O^2", "M [P O]; O O", "3", "2x"},
       "bad value for threads"},
      {{"cli", "--chain", "abc"}, "bad value for --chain"},
      {{"cli", "--chain", ""}, "bad value for --chain"},
      {{"cli", "--chain", "8", "--x0", "1x"}, "bad value for --x0"},
      {{"cli", "--family", "pi", "--param", "a=oops"},
       "bad value for --param"},
      {{"cli", "--family", "pi", "4 "}, "bad value for maxSteps"},
      {{"cli", "--chain", "99999999999999999999"}, "bad value for --chain"},
  };
  for (const auto& c : cases) {
    const ParseOutcome outcome = parse(c.argv);
    EXPECT_EQ(outcome.error, c.error) << c.argv.back();
  }
  // Negative values still parse; run() decides what they mean.
  const ParseOutcome negative = parse({"cli", "--chain", "-1", "--x0", "-2"});
  EXPECT_TRUE(negative.error.empty()) << negative.error;
  EXPECT_EQ(negative.request.chainX0, -2);
}

TEST(CliGolden, OutOfRangeChainStartPrintsNoChain) {
  // x0 outside [0, delta]: no "exact chain" lines, just the chain error.
  for (const long x0 : {-5L, 33L}) {
    RunRequest req;
    req.mode = RunRequest::Mode::kChain;
    req.chainDelta = 32;
    req.chainX0 = x0;
    const RunResult result = run(req);
    EXPECT_EQ(result.exitCode(), 1) << x0;
    EXPECT_EQ(result.status, RunStatus::kFailure) << x0;
    EXPECT_EQ(result.output, "") << x0;
    EXPECT_EQ(result.diagnostics,
              "chain error: exactChain: x0 = " + std::to_string(x0) +
                  " outside [0, delta = 32]\n")
        << x0;
  }
}

TEST(CliGolden, UnknownFamilyExitsOne) {
  RunRequest req;
  req.mode = RunRequest::Mode::kFamily;
  req.familyName = "no_such_family";
  const RunResult result = run(req);
  EXPECT_EQ(result.exitCode(), 1);
  EXPECT_EQ(result.status, RunStatus::kFailure);
  EXPECT_NE(result.diagnostics.find("unknown built-in family"),
            std::string::npos);
}

TEST(CliGolden, UnknownFlagsStayPositional) {
  const ParseOutcome outcome = parse({"cli", "--bogus", "M P; O O"});
  ASSERT_TRUE(outcome.error.empty());
  EXPECT_EQ(outcome.request.nodeSpec, "--bogus");
  EXPECT_EQ(outcome.request.edgeSpec, "M P; O O");
}

TEST(CliGolden, SuccessfulProblemRunExitsZero) {
  RunRequest req;
  req.nodeSpec = "M M M; P O O";
  req.edgeSpec = "M P; O O";
  req.maxSteps = 1;
  req.numThreads = 1;
  const RunResult result = run(req);
  EXPECT_EQ(result.exitCode(), 0);
  EXPECT_EQ(result.status, RunStatus::kOk);
  EXPECT_NE(result.output.find("problem (Delta = 3"), std::string::npos);
  EXPECT_TRUE(result.diagnostics.empty()) << result.diagnostics;
}

TEST(CliGolden, MissingPositionalsExitTwoWithUsage) {
  const RunResult result = run(RunRequest{});  // no node/edge spec
  EXPECT_EQ(result.exitCode(), 2);
  EXPECT_EQ(result.status, RunStatus::kUsage);
  EXPECT_NE(result.diagnostics.find("usage: round_eliminator_cli"),
            std::string::npos);
}

TEST(CliGolden, ParseErrorExitsTwo) {
  RunRequest req;
  req.nodeSpec = "M ^^ not a config";
  req.edgeSpec = "M P";
  const RunResult result = run(req);
  EXPECT_EQ(result.exitCode(), 2);
  EXPECT_NE(result.diagnostics.find("parse error"), std::string::npos);
}

TEST(CliGolden, ResumeWithoutStoreExitsTwo) {
  RunRequest req;
  req.nodeSpec = "M M M; P O O";
  req.edgeSpec = "M P; O O";
  req.resume = true;
  const RunResult result = run(req);
  EXPECT_EQ(result.exitCode(), 2);
  EXPECT_NE(result.diagnostics.find("--resume requires --store DIR"),
            std::string::npos);
}

TEST(CliGolden, BadCertificateExitsOne) {
  RunRequest req;
  req.mode = RunRequest::Mode::kVerifyCertificate;
  req.verifyCertPath = "/nonexistent/cert.json";
  const RunResult result = run(req);
  EXPECT_EQ(result.exitCode(), 1);
  EXPECT_EQ(result.status, RunStatus::kFailure);
  EXPECT_NE(result.diagnostics.find("verify error"), std::string::npos);
}

}  // namespace
}  // namespace relb::driver
