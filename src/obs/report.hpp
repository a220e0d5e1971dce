// The versioned run report: one JSON document summarizing a whole engine
// run -- per-phase and per-span wall time from the tracer's SpanAggregator,
// the full counter/gauge registry, and the (a, x) chain actually walked.
//
// Reports are sealed-section documents like certificates (io/file.hpp,
// docs/formats.md): a "format"/"version" header readers match exactly,
// per-section FNV-1a checksums computed over the compact section dump, and
// no timestamps or other nondeterminism outside the measured quantities --
// so two reports of the same run shape are diffable field by field, and a
// truncated or edited report fails at load time naming the bad section.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace relb::obs {

inline constexpr int kRunReportVersion = 1;

struct RunReport {
  struct Row {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t wallMicros = 0;
  };
  struct ChainStep {
    std::int64_t a = 0;
    std::int64_t x = 0;
  };

  int version = kRunReportVersion;
  /// The command line (argv joined by spaces), for provenance.
  std::string command;
  /// End-to-end wall time of the traced region (CLI: setup through report
  /// assembly).  The root-phase wall times tile this to within a few
  /// percent; tests/obs/report_test.cpp and the CLI acceptance check both
  /// compare against it.
  std::int64_t totalWallMicros = 0;
  /// Resolved engine fan-out width.
  int threads = 1;

  /// Depth-0 spans aggregated by name (sequential on the main thread, so
  /// their sum is comparable to totalWallMicros).
  std::vector<Row> phases;
  /// Every span aggregated by name, all threads -- overlapping spans mean
  /// these can legitimately sum past wall time on multi-core runs.
  std::vector<Row> spans;

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;

  /// Family-chain runs: the Lemma 13 chain walked.  chainDelta < 0 means
  /// "not a chain run" and the section is omitted.
  std::int64_t chainDelta = -1;
  std::int64_t chainX0 = 1;
  std::vector<ChainStep> chainSteps;
  /// Step-mode runs: the operator sequence walked ("input", "R", "Rbar", …).
  std::vector<std::string> opsWalked;
};

/// Fills phases/spans/counters/gauges from the aggregator and the registry.
/// Callers set the run metadata (command, totalWallMicros, chain) themselves.
[[nodiscard]] RunReport buildRunReport(const SpanAggregator& aggregator,
                                       const Registry& registry);

[[nodiscard]] io::Json runReportToJson(const RunReport& report);
/// Verifies format, version, and per-section checksums; throws re::Error.
[[nodiscard]] RunReport runReportFromJson(const io::Json& j);

void saveRunReport(const std::filesystem::path& path, const RunReport& report);
[[nodiscard]] RunReport loadRunReport(const std::filesystem::path& path);

}  // namespace relb::obs
