// Chrome trace_event emission (parses back through io::Json, carries the
// span/counter/instant shapes Perfetto expects) and the versioned run
// report: roundtrip fidelity, checksum tamper rejection, version pinning.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/chrome_sink.hpp"
#include "re/types.hpp"

namespace relb::obs {
namespace {

namespace fs = std::filesystem;

TEST(ChromeTraceSink, EmitsParseableTraceEventJson) {
  Tracer tracer;
  auto sink = std::make_shared<ChromeTraceSink>("unused.json");
  tracer.addSink(sink);
  {
    const ScopedSpan outer("outer", tracer);
    const ScopedSpan inner("inner", tracer);
    (void)outer;
    (void)inner;
  }
  tracer.counter("labels", 5);
  tracer.instant("marker");

  // The document must survive its own writer/parser pair.
  const io::Json doc = io::Json::parse(sink->toJson().dump());
  const io::Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.asArray().size(), 4u);

  const io::Json& span = events.asArray()[0];  // inner completes first
  EXPECT_EQ(span.at("name").asString(), "inner");
  EXPECT_EQ(span.at("ph").asString(), "X");
  EXPECT_EQ(span.at("cat").asString(), "relb");
  EXPECT_GE(span.at("dur").asInt(), 0);
  EXPECT_GE(span.at("ts").asInt(), 0);
  EXPECT_EQ(span.at("pid").asInt(), 1);
  const std::int64_t tid = span.at("tid").asInt();
  EXPECT_EQ(events.asArray()[1].at("name").asString(), "outer");
  EXPECT_EQ(events.asArray()[1].at("tid").asInt(), tid);

  const io::Json& counter = events.asArray()[2];
  EXPECT_EQ(counter.at("ph").asString(), "C");
  EXPECT_EQ(counter.at("args").at("value").asInt(), 5);

  const io::Json& instant = events.asArray()[3];
  EXPECT_EQ(instant.at("ph").asString(), "i");
  EXPECT_EQ(instant.at("s").asString(), "t");
}

TEST(ChromeTraceSink, FlushWritesTheFile) {
  const fs::path path = fs::path(testing::TempDir()) / "chrome-trace.json";
  fs::remove(path);
  Tracer tracer;
  auto sink = std::make_shared<ChromeTraceSink>(path);
  tracer.addSink(sink);
  { const ScopedSpan span("only", tracer); }
  tracer.flush();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const io::Json doc = io::Json::parse(text);
  EXPECT_EQ(doc.at("traceEvents").asArray().size(), 1u);
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
}

RunReport sampleReport() {
  RunReport report;
  report.command = "round_eliminator_cli --chain 32";
  report.totalWallMicros = 12345;
  report.threads = 4;
  report.phases = {{"phase.chain.build", 1, 100},
                   {"phase.chain.certify", 1, 12000}};
  report.spans = {{"engine.zeroRound", 7, 9000},
                  {"phase.chain.build", 1, 100},
                  {"phase.chain.certify", 1, 12000}};
  report.counters = {{"engine.zero_round.miss", 7}, {"store.hit", 0}};
  report.gauges = {{"pool.concurrency", 4}};
  report.chainDelta = 32;
  report.chainX0 = 1;
  report.chainSteps = {{32, 1}, {10, 2}, {2, 3}};
  return report;
}

TEST(RunReport, RoundtripsThroughJson) {
  const RunReport in = sampleReport();
  const RunReport out = runReportFromJson(runReportToJson(in));
  EXPECT_EQ(out.version, kRunReportVersion);
  EXPECT_EQ(out.command, in.command);
  EXPECT_EQ(out.totalWallMicros, in.totalWallMicros);
  EXPECT_EQ(out.threads, in.threads);
  ASSERT_EQ(out.phases.size(), in.phases.size());
  EXPECT_EQ(out.phases[1].name, "phase.chain.certify");
  EXPECT_EQ(out.phases[1].wallMicros, 12000);
  ASSERT_EQ(out.spans.size(), 3u);
  ASSERT_EQ(out.counters.size(), 2u);
  EXPECT_EQ(out.counters[0].first, "engine.zero_round.miss");
  EXPECT_EQ(out.counters[0].second, 7u);
  ASSERT_EQ(out.gauges.size(), 1u);
  EXPECT_EQ(out.chainDelta, 32);
  ASSERT_EQ(out.chainSteps.size(), 3u);
  EXPECT_EQ(out.chainSteps[1].a, 10);
  EXPECT_EQ(out.chainSteps[1].x, 2);
}

TEST(RunReport, PrettyBytesArePinned) {
  RunReport report = sampleReport();
  report.opsWalked = {"input", "R", "Rbar"};
  EXPECT_EQ(runReportToJson(report).dumpPretty(), R"({
  "format": "relb-run-report",
  "version": 1,
  "run": {
    "command": "round_eliminator_cli --chain 32",
    "total_wall_micros": 12345,
    "threads": 4,
    "chain": {
      "delta": 32,
      "x0": 1,
      "steps": [
        {
          "a": 32,
          "x": 1
        },
        {
          "a": 10,
          "x": 2
        },
        {
          "a": 2,
          "x": 3
        }
      ]
    },
    "ops_walked": [
      "input",
      "R",
      "Rbar"
    ]
  },
  "phases": [
    {
      "name": "phase.chain.build",
      "count": 1,
      "wall_micros": 100
    },
    {
      "name": "phase.chain.certify",
      "count": 1,
      "wall_micros": 12000
    }
  ],
  "spans": [
    {
      "name": "engine.zeroRound",
      "count": 7,
      "wall_micros": 9000
    },
    {
      "name": "phase.chain.build",
      "count": 1,
      "wall_micros": 100
    },
    {
      "name": "phase.chain.certify",
      "count": 1,
      "wall_micros": 12000
    }
  ],
  "counters": {
    "engine.zero_round.miss": 7,
    "store.hit": 0
  },
  "gauges": {
    "pool.concurrency": 4
  },
  "checksums": {
    "run": "84ce1c4d369903e4",
    "phases": "65536635dd0b9ef7",
    "spans": "9aaf5d889252d9ff",
    "counters": "d1ae9248634d305d",
    "gauges": "06720979a7668c3c"
  }
}
)");
}

TEST(RunReport, PhaseWallTimesTileTheTotal) {
  // The property the CLI acceptance check relies on: the root-phase sum is
  // within 5% of end-to-end wall time.
  const RunReport report = sampleReport();
  std::int64_t phaseSum = 0;
  for (const RunReport::Row& row : report.phases) phaseSum += row.wallMicros;
  const double coverage =
      static_cast<double>(phaseSum) /
      static_cast<double>(report.totalWallMicros);
  EXPECT_GT(coverage, 0.95);
  EXPECT_LE(coverage, 1.05);
}

TEST(RunReport, SaveLoadRoundtripsOnDisk) {
  const fs::path path = fs::path(testing::TempDir()) / "run-report.json";
  fs::remove(path);
  saveRunReport(path, sampleReport());
  const RunReport out = loadRunReport(path);
  EXPECT_EQ(out.command, "round_eliminator_cli --chain 32");
  EXPECT_EQ(out.chainSteps.size(), 3u);
}

TEST(RunReport, TamperedCounterSectionIsRejected) {
  io::Json doc = runReportToJson(sampleReport());
  // Re-parse the dump with one counter value edited; the counters checksum
  // no longer matches.
  std::string text = doc.dump();
  const auto pos = text.find("\"engine.zero_round.miss\":7");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 26, "\"engine.zero_round.miss\":8");
  EXPECT_THROW((void)runReportFromJson(io::Json::parse(text)), re::Error);
}

TEST(RunReport, WrongFormatAndVersionAreRejected) {
  io::Json notAReport = io::Json::object();
  notAReport.set("format", "something-else");
  EXPECT_THROW((void)runReportFromJson(notAReport), re::Error);

  std::string text = runReportToJson(sampleReport()).dump();
  const auto pos = text.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":9");
  EXPECT_THROW((void)runReportFromJson(io::Json::parse(text)), re::Error);
}

TEST(RunReport, BuildFromAggregatorAndRegistry) {
  SpanAggregator agg;
  TraceEvent root;
  root.name = "phase.test.build";
  root.durationMicros = 40;
  root.depth = 0;
  agg.consume(root);
  TraceEvent nested = root;
  nested.name = "nested.test.build";
  nested.depth = 1;
  agg.consume(nested);

  auto& reg = Registry::global();
  reg.counter("test.report.counter").add(11);
  reg.gauge("test.report.gauge").set(-3);

  const RunReport report = buildRunReport(agg, reg);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].name, "phase.test.build");
  EXPECT_EQ(report.spans.size(), 2u);
  bool sawCounter = false, sawGauge = false;
  for (const auto& [name, value] : report.counters) {
    if (name == "test.report.counter") {
      sawCounter = true;
      EXPECT_EQ(value, 11u);
    }
  }
  for (const auto& [name, value] : report.gauges) {
    if (name == "test.report.gauge") {
      sawGauge = true;
      EXPECT_EQ(value, -3);
    }
  }
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawGauge);
}

}  // namespace
}  // namespace relb::obs
