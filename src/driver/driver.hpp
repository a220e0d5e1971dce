// The run driver: everything `round_eliminator_cli` does, as a library.
//
// A RunRequest describes one complete invocation -- the mode (analyze +
// iterate a parsed problem, build + certify a family chain, or re-verify a
// stored certificate), the engine knobs, the store/resume wiring, and the
// observability outputs (trace file, run report).  run() executes it against
// an EngineSession and returns a RunResult carrying the rendered output, the
// diagnostics, and the process exit status; the CLI is a thin wrapper that
// parses argv with parseArgs(), calls run(), and prints the two streams.
//
// Embedders get the same contract the CLI has always had:
//   * exit codes 0 = success, 1 = step/certification/verification failure,
//     2 = usage or parse error;
//   * certificate bytes, report contents, and printed output identical to
//     the pre-library CLI for the same request;
//   * pass a shared EngineCore to reuse caches across requests (each run()
//     takes its own EngineSession over it); nullptr runs against a private
//     core, which is the one-shot CLI behavior.
//
// Concurrency: run() itself may be called from several threads over one
// shared core.  Requests that write files (trace, report, certificates,
// store) should target distinct paths; the trace/report sinks attach to the
// process-global tracer, so interleaved *traced* runs see each other's spans
// -- callers wanting attribution run one traced request at a time (the CLI
// always does).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "re/engine.hpp"

namespace relb::obs {
class SessionScope;
}  // namespace relb::obs

namespace relb::driver {

/// Process exit status of a run; the enum values ARE the exit codes.
enum class RunStatus {
  kOk = 0,
  kFailure = 1,  // step / certification / verification failure
  kUsage = 2,    // usage or parse error
};

struct RunRequest {
  enum class Mode {
    kProblem,            // analyze + iterate a problem given in text form
    kChain,              // build + certify the exact Lemma 13 family chain
    kFamily,             // instantiate + derive a family-definition bound
    kVerifyCertificate,  // load + re-verify a stored certificate
  };
  Mode mode = Mode::kProblem;

  /// kProblem: configuration lists, ';'-separated (the CLI's positional
  /// arguments).  An empty node or edge spec is a usage error, mirroring
  /// the CLI's missing-positional behavior.
  std::string nodeSpec;
  std::string edgeSpec;
  /// Speedup iteration budget (kProblem only).
  int maxSteps = 6;
  /// Engine fan-out width: 0 = one thread per core, 1 = serial.  Results
  /// are bit-identical for every value.
  int numThreads = 0;

  /// kChain: the family parameters of exactChain(delta, x0).
  long chainDelta = -1;
  long chainX0 = 1;

  /// kFamily: a built-in family name (--family) or a definition file in the
  /// family DSL (--family-def; wins when both are set), plus parameter
  /// overrides from repeated --param NAME=VALUE flags (unset parameters take
  /// the definition's defaults).  The run instantiates the family, re-runs
  /// the automatic lower-bound search, and exits 1 when the derived bound
  /// falls short of the definition's published bound.
  std::string familyName;
  std::string familyDefPath;
  std::vector<std::pair<std::string, long>> familyParams;

  /// kVerifyCertificate: the certificate file to re-verify.
  std::string verifyCertPath;

  /// Print per-pass tables and the engine cache counters.
  bool showStats = false;
  /// Attach the on-disk step store at this directory ('' = no store).
  std::string storeDir;
  /// Refuse to start unless `storeDir` already holds a store.
  bool resume = false;
  /// Write a certificate here ('' = none): the certified family chain in
  /// kChain mode, a speedup trace in kProblem mode.
  std::string saveCertPath;

  /// Observability outputs ('' = off).
  std::string tracePath;
  std::string traceFormat = "chrome";  // "chrome" or "text"
  std::string reportPath;

  /// Also capture the certificate bytes this run would write (the exact
  /// bytes saveCertPath would contain) into RunResult::certificateBytes.
  /// Works with or without saveCertPath; the service uses this to ship
  /// certificates in responses without touching the filesystem.
  bool captureCert = false;

  /// Observability scope the run's EngineSession attributes its counters
  /// and spans to (nullptr = the process-global registry/tracer).  Must
  /// outlive run(); the service passes one scope per request.
  obs::SessionScope* scope = nullptr;

  /// Cooperative SIGINT/SIGTERM drain: when set, run() checks the process
  /// ShutdownSignal (installing one for the duration of the run if none is
  /// active) at phase boundaries and between speedup steps; on the first
  /// signal it stops early with status kFailure, noting the interruption in
  /// the diagnostics -- but still flushes --trace/--report output and the
  /// partial printed output.  The CLI sets this; embedders that own their
  /// signal policy (the service daemon) leave it off.
  bool drainOnSignal = false;

  /// Copied verbatim into the run report (the CLI passes its argv join);
  /// `programName` prefixes usage text in diagnostics.
  std::string commandLine;
  std::string programName = "round_eliminator_cli";
};

struct RunResult {
  RunStatus status = RunStatus::kOk;
  /// The run's rendered output (the CLI prints this to stdout).
  std::string output;
  /// Errors and usage text (the CLI prints this to stderr).
  std::string diagnostics;
  /// With RunRequest::captureCert: the serialized certificate, byte-equal
  /// to the file a saveCertPath run writes.  Empty when no certificate was
  /// produced.
  std::string certificateBytes;
  /// The run's per-session cache traffic (hits/misses per cache plus
  /// attached-store loads and writes).  A warm re-run of an identical
  /// request over a shared core shows zero misses and zero store writes.
  re::CacheStats sessionStats;

  [[nodiscard]] int exitCode() const { return static_cast<int>(status); }
};

/// What parseArgs made of an argv.  Exactly one of these holds: `error` is
/// non-empty (print it + usage, exit 2), `helpRequested` is true (print
/// usage, exit 2), or `request` is runnable.
struct ParseOutcome {
  RunRequest request;
  std::string error;
  bool helpRequested = false;
};

/// The CLI usage text (also pinned by the golden CLI test).
[[nodiscard]] std::string usageText(std::string_view prog);

/// Parses an argv into a RunRequest with the CLI's exact flag grammar:
/// unknown flags are positional arguments, positionals are
/// ["<node>" "<edge>"] [maxSteps] [threads] (the specs implied in --chain
/// mode).  Only flag-syntax problems (missing value, bad --trace-format, a
/// number -- --chain, --x0, a --param value, maxSteps, threads -- that is
/// not entirely a base-10 integer) surface here; semantic problems (missing positionals, unparsable specs,
/// --resume without --store) are diagnosed by run() so that trace/report
/// files are still written, as the CLI always did.
[[nodiscard]] ParseOutcome parseArgs(int argc, const char* const* argv);

/// Executes a request.  With `core`, the run's EngineSession shares that
/// core's caches (cache hits are bit-identical to cold computes); with
/// nullptr it runs against a fresh private core.  Never throws for request
/// problems -- failures come back as status + diagnostics.
[[nodiscard]] RunResult run(const RunRequest& request,
                            std::shared_ptr<re::EngineCore> core = nullptr);

}  // namespace relb::driver
