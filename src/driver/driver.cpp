#include "driver/driver.hpp"

#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/sequence.hpp"
#include "family/builtin.hpp"
#include "family/derive.hpp"
#include "family/text.hpp"
#include "io/certificate.hpp"
#include "io/file.hpp"
#include "io/verify.hpp"
#include "obs/chrome_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "re/autobound.hpp"
#include "re/diagram.hpp"
#include "re/engine.hpp"
#include "re/problem.hpp"
#include "re/zero_round.hpp"
#include "store/step_store.hpp"
#include "util/parse.hpp"
#include "util/shutdown.hpp"
#include "util/thread_pool.hpp"

namespace relb::driver {

namespace {

std::string splitLines(std::string spec) {
  for (char& ch : spec) {
    if (ch == ';') ch = '\n';
  }
  return spec;
}

// Owns the observability wiring for one run: the sinks selected by
// --trace/--report, the root phase spans' aggregation, and the finalization
// (flush trace, assemble + save the run report) every exit path goes
// through.  Sinks attach to the process-global tracer -- the engine session
// of a scope-less run emits there, and so do the free-function kernels, so
// the trace and report cover the whole run exactly as before the split.
struct ObsWiring {
  const RunRequest& request;
  int threads = 1;

  std::shared_ptr<obs::TextSink> text;
  std::shared_ptr<obs::ChromeTraceSink> chrome;
  std::shared_ptr<obs::SpanAggregator> aggregator;
  std::chrono::steady_clock::time_point start;

  // Filled in by the run paths; copied into the report verbatim.
  long chainDelta = -1;
  long chainX0 = 1;
  std::vector<obs::RunReport::ChainStep> chainSteps;
  std::vector<std::string> opsWalked;

  explicit ObsWiring(const RunRequest& req) : request(req) {}

  void attach() {
    start = std::chrono::steady_clock::now();
    auto& tracer = obs::Tracer::global();
    if (!request.tracePath.empty()) {
      if (request.traceFormat == "chrome") {
        chrome = std::make_shared<obs::ChromeTraceSink>(request.tracePath);
        tracer.addSink(chrome);
      } else {
        text = std::make_shared<obs::TextSink>();
        tracer.addSink(text);
      }
    }
    if (!request.reportPath.empty()) {
      aggregator = std::make_shared<obs::SpanAggregator>();
      tracer.addSink(aggregator);
    }
  }

  // Finalizes observability and passes the exit code through, so call sites
  // read `return finish(code)`.
  int finish(int code, std::ostream& out, std::ostream& err) {
    auto& tracer = obs::Tracer::global();
    const std::int64_t totalMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    try {
      tracer.flush();  // the chrome sink writes its file here
      if (text != nullptr) {
        io::atomicWriteFile(request.tracePath, text->render());
      }
      if (!request.tracePath.empty()) {
        out << "trace (" << request.traceFormat << ") written to "
            << request.tracePath << "\n";
      }
      if (aggregator != nullptr) {
        obs::RunReport report =
            obs::buildRunReport(*aggregator, obs::Registry::global());
        // Phases are the driver's own root spans; they run back-to-back on
        // the calling thread, so their wall times tile the run.  Depth-0
        // spans on pool workers (e.g. chain.certify.step) do not, and stay
        // in the all-spans table only.
        std::erase_if(report.phases, [](const obs::RunReport::Row& row) {
          return row.name.rfind("phase.", 0) != 0;
        });
        report.command = request.commandLine;
        report.totalWallMicros = totalMicros;
        report.threads = threads;
        report.chainDelta = chainDelta;
        report.chainX0 = chainX0;
        report.chainSteps = chainSteps;
        report.opsWalked = opsWalked;
        obs::saveRunReport(request.reportPath, report);
        out << "run report written to " << request.reportPath << "\n";
      }
    } catch (const re::Error& e) {
      err << "observability error: " << e.what() << "\n";
      if (code == 0) code = 1;
    }
    // Only this run's sinks (a null one matches nothing): others on the
    // global tracer belong to the embedder or to a concurrent run.
    tracer.removeSink(text.get());
    tracer.removeSink(chrome.get());
    tracer.removeSink(aggregator.get());
    return code;
  }
};

RunStatus toStatus(int code) {
  switch (code) {
    case 0:
      return RunStatus::kOk;
    case 2:
      return RunStatus::kUsage;
    default:
      return RunStatus::kFailure;
  }
}

}  // namespace

std::string usageText(std::string_view prog) {
  std::string p(prog);
  return "usage: " + p +
         " [flags] \"<node configs>\" \"<edge configs>\" [maxSteps] "
         "[threads]\n"
         "       " +
         p +
         " [flags] --chain DELTA [--x0 K]\n"
         "       " +
         p +
         " [flags] --family NAME | --family-def FILE [maxSteps] [threads]\n"
         "       " +
         p +
         " --verify-cert FILE\n"
         "configurations separated by ';', e.g. \"M^3; P O^2\"\n"
         "threads: 0 = hardware concurrency (default), 1 = serial\n"
         "flags: --stats --store DIR --resume --save-cert FILE\n"
         "       --verify-cert FILE --chain DELTA --x0 K\n"
         "       --family NAME --family-def FILE --param NAME=VALUE\n"
         "       --trace FILE --trace-format {chrome,text} --report FILE\n";
}

ParseOutcome parseArgs(int argc, const char* const* argv) {
  ParseOutcome outcome;
  RunRequest& req = outcome.request;
  if (argc > 0) req.programName = argv[0];
  {
    std::string command;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) command += ' ';
      command += argv[i];
    }
    req.commandLine = std::move(command);
  }

  std::vector<std::string> positional;
  const auto flagValue = [&](int& i, const std::string& flag,
                             std::string& dest) {
    if (i + 1 >= argc) {
      outcome.error = flag + " requires a value";
      return false;
    }
    dest = argv[++i];
    return true;
  };
  const auto number = [&](std::string_view text, auto& dest,
                          const std::string& what) {
    if (util::parseNumber(text, dest)) return true;
    outcome.error = "bad value for " + what;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--stats") {
      req.showStats = true;
    } else if (arg == "--resume") {
      req.resume = true;
    } else if (arg == "--store") {
      if (!flagValue(i, arg, req.storeDir)) return outcome;
    } else if (arg == "--save-cert") {
      if (!flagValue(i, arg, req.saveCertPath)) return outcome;
    } else if (arg == "--verify-cert") {
      if (!flagValue(i, arg, req.verifyCertPath)) return outcome;
    } else if (arg == "--chain") {
      if (!flagValue(i, arg, value) || !number(value, req.chainDelta, arg)) {
        return outcome;
      }
      if (req.chainDelta < 1) {  // < 0 would read as "no chain"
        outcome.error = "bad value for " + arg;
        return outcome;
      }
    } else if (arg == "--x0") {
      if (!flagValue(i, arg, value) || !number(value, req.chainX0, arg)) {
        return outcome;
      }
    } else if (arg == "--family") {
      if (!flagValue(i, arg, req.familyName)) return outcome;
    } else if (arg == "--family-def") {
      if (!flagValue(i, arg, req.familyDefPath)) return outcome;
    } else if (arg == "--param") {
      if (!flagValue(i, arg, value)) return outcome;
      const std::size_t eq = value.find('=');
      if (eq == 0 || eq == std::string::npos || eq + 1 == value.size()) {
        outcome.error = "--param expects NAME=VALUE, got '" + value + "'";
        return outcome;
      }
      long paramValue = 0;
      if (!number(std::string_view(value).substr(eq + 1), paramValue, arg)) {
        return outcome;
      }
      req.familyParams.emplace_back(value.substr(0, eq), paramValue);
    } else if (arg == "--trace") {
      if (!flagValue(i, arg, req.tracePath)) return outcome;
    } else if (arg == "--trace-format") {
      if (!flagValue(i, arg, req.traceFormat)) return outcome;
      if (req.traceFormat != "chrome" && req.traceFormat != "text") {
        outcome.error = "--trace-format must be 'chrome' or 'text'";
        return outcome;
      }
    } else if (arg == "--report") {
      if (!flagValue(i, arg, req.reportPath)) return outcome;
    } else if (arg == "--help" || arg == "-h") {
      outcome.helpRequested = true;
      return outcome;
    } else {
      positional.push_back(arg);
    }
  }

  if (!req.verifyCertPath.empty()) {
    req.mode = RunRequest::Mode::kVerifyCertificate;
  } else if (req.chainDelta >= 0) {
    req.mode = RunRequest::Mode::kChain;
  } else if (!req.familyName.empty() || !req.familyDefPath.empty()) {
    req.mode = RunRequest::Mode::kFamily;
  } else {
    req.mode = RunRequest::Mode::kProblem;
  }

  // In --chain and --family modes the problem text is implied, so
  // [maxSteps] [threads] shift to the front of the positional list.
  const std::size_t stepsIdx = (req.mode == RunRequest::Mode::kChain ||
                                req.mode == RunRequest::Mode::kFamily)
                                   ? 0
                                   : 2;
  if (positional.size() > 0 && stepsIdx >= 1) req.nodeSpec = positional[0];
  if (positional.size() > 1 && stepsIdx >= 2) req.edgeSpec = positional[1];
  if (positional.size() > stepsIdx &&
      !number(positional[stepsIdx], req.maxSteps, "maxSteps")) {
    return outcome;
  }
  if (positional.size() > stepsIdx + 1 &&
      !number(positional[stepsIdx + 1], req.numThreads, "threads")) {
    return outcome;
  }
  return outcome;
}

RunResult run(const RunRequest& request, std::shared_ptr<re::EngineCore> core) {
  RunResult result;
  std::ostringstream out;
  std::ostringstream err;

  // Cooperative drain: reuse an externally installed ShutdownSignal (the
  // daemon's, a test's) or install one for the duration of this run.  The
  // checkpoints below stop the run between phases/steps, so the finish()
  // path still flushes trace/report output on ^C.
  std::optional<util::ShutdownSignal> ownGuard;
  if (request.drainOnSignal && util::ShutdownSignal::active() == nullptr) {
    ownGuard.emplace();
  }
  const auto interrupted = [&] {
    return request.drainOnSignal && util::ShutdownSignal::drainRequested();
  };

  re::EngineSession* sessionStatsFrom = nullptr;
  ObsWiring session(request);
  session.attach();
  const auto finish = [&](int code) {
    if (sessionStatsFrom != nullptr) {
      result.sessionStats = sessionStatsFrom->stats();
    }
    result.status = toStatus(session.finish(code, out, err));
    result.output = out.str();
    result.diagnostics = err.str();
    return result;
  };
  const auto finishInterrupted = [&] {
    err << "interrupted: shutdown requested; partial output flushed\n";
    return finish(1);
  };

  // Certificate verification stands alone: load, re-verify, report.
  //
  // Every phase span below closes before finish() runs (finish snapshots
  // the aggregator, so an open span would be invisible to the report).
  if (request.mode == RunRequest::Mode::kVerifyCertificate) {
    int code = 0;
    try {
      const obs::ScopedSpan phase("phase.verify");
      const io::Certificate cert =
          io::loadCertificate(request.verifyCertPath);
      const io::VerifyReport report = io::verifyCertificate(cert);
      out << report.describe() << "\n";
      code = report.ok ? 0 : 1;
    } catch (const re::Error& e) {
      err << "verify error: " << e.what() << "\n";
      code = 1;
    }
    return finish(code);
  }

  if (request.resume && request.storeDir.empty()) {
    err << "--resume requires --store DIR\n";
    err << usageText(request.programName);
    return finish(2);
  }
  std::shared_ptr<store::DiskStepStore> stepStore;
  if (!request.storeDir.empty()) {
    if (request.resume &&
        !std::filesystem::exists(std::filesystem::path(request.storeDir) /
                                 "FORMAT")) {
      err << "--resume: no step store at '" << request.storeDir << "'\n";
      return finish(2);
    }
    try {
      stepStore = std::make_shared<store::DiskStepStore>(request.storeDir);
    } catch (const re::Error& e) {
      err << "store error: " << e.what() << "\n";
      return finish(1);
    }
  }

  const int maxSteps = request.maxSteps;
  const int numThreads = request.numThreads;
  session.threads = util::resolveThreadCount(numThreads);

  re::StepOptions stepOptions;
  stepOptions.numThreads = numThreads;
  if (core == nullptr) core = std::make_shared<re::EngineCore>();
  re::EngineSession ctx(core, stepOptions, request.scope);
  if (stepStore != nullptr) ctx.attachStore(stepStore);
  sessionStatsFrom = &ctx;
  const auto printStats = [&] {  // --stats: engine caches, then the store
    if (!request.showStats) return;
    out << "\nengine cache statistics:\n" << ctx.stats().describe();
    if (stepStore != nullptr) out << stepStore->stats().describe();
  };

  // Chain mode: build, certify, and optionally persist the family chain.
  if (request.mode == RunRequest::Mode::kChain) {
    int code = 0;
    try {
      core::Chain chain;
      {
        const obs::ScopedSpan phase("phase.chain.build");
        chain = core::exactChain(request.chainDelta, request.chainX0);
      }
      out << "exact chain for Pi_" << request.chainDelta << "(a, x), x0 = "
          << request.chainX0 << ":\n";
      for (std::size_t i = 0; i < chain.steps.size(); ++i) {
        out << "  step " << i << ": a = " << chain.steps[i].a
            << ", x = " << chain.steps[i].x << "\n";
      }
      session.chainDelta = request.chainDelta;
      session.chainX0 = request.chainX0;
      for (const core::ChainStep& step : chain.steps) {
        session.chainSteps.push_back({step.a, step.x});
      }
      if (interrupted()) return finishInterrupted();
      io::Certificate cert;
      {
        const obs::ScopedSpan phase("phase.chain.certify");
        cert = core::buildChainCertificate(chain, ctx, numThreads);
      }
      out << "chain certified: >= " << cert.claimedRounds()
          << " rounds (deterministic PN model)\n";
      if (!request.saveCertPath.empty()) {
        const obs::ScopedSpan phase("phase.cert.save");
        io::saveCertificate(request.saveCertPath, cert);
        out << "certificate written to " << request.saveCertPath << "\n";
      }
      if (request.captureCert) {
        result.certificateBytes = io::certificateToJson(cert).dumpPretty();
      }
      printStats();
    } catch (const re::Error& e) {
      err << "chain error: " << e.what() << "\n";
      code = 1;
    }
    return finish(code);
  }

  // Family mode: load or look up the definition, instantiate it, re-derive
  // its lower bound, and gate on the published bound.
  if (request.mode == RunRequest::Mode::kFamily) {
    int code = 0;
    try {
      family::FamilyDef def;
      {
        const obs::ScopedSpan phase("phase.family.load");
        if (!request.familyDefPath.empty()) {
          def = family::loadFamilyFile(request.familyDefPath);
        } else if (auto builtin = family::findBuiltin(request.familyName)) {
          def = std::move(*builtin);
        } else {
          std::string known;
          for (const family::FamilyDef& b : family::builtinFamilies()) {
            known += known.empty() ? b.name : ", " + b.name;
          }
          throw re::Error("unknown built-in family '" + request.familyName +
                          "' (known: " + known + ")");
        }
      }
      family::Env overrides;
      for (const auto& [name, value] : request.familyParams) {
        overrides[name] = value;
      }
      family::DeriveOptions options;
      options.maxSteps = maxSteps;
      std::optional<family::FamilyDerivation> derived;
      {
        const obs::ScopedSpan phase("phase.family.derive");
        derived.emplace(family::deriveFamilyBound(def, overrides, ctx,
                                                  options));
      }
      const family::FamilyDerivation& d = *derived;
      out << "family " << def.name;
      if (!def.title.empty()) out << ": " << def.title;
      out << "\n";
      if (!def.model.empty()) out << "model: " << def.model << "\n";
      if (!def.cite.empty()) out << "source: " << def.cite << "\n";
      out << "parameters:";
      for (const auto& [name, value] : d.params) {
        out << " " << name << "=" << value;
      }
      out << "\n\ninstantiated problem (Delta = " << d.problem.delta()
          << ", " << d.problem.alphabet.size() << " labels):\n"
          << d.problem.render() << "\n";
      out << "automatic lower bound: >= " << d.bound.rounds
          << " rounds (deterministic PN, high girth)\n";
      if (d.published.has_value()) {
        out << "published bound at these parameters: >= " << *d.published
            << " rounds\n";
        if (!d.meetsPublishedBound()) {
          err << "family error: derived bound " << d.bound.rounds
              << " falls short of the published bound " << *d.published
              << "\n";
          code = 1;
        }
      }
      if (!request.saveCertPath.empty()) {
        const obs::ScopedSpan phase("phase.cert.save");
        io::saveCertificate(request.saveCertPath, d.certificate);
        out << "speedup-trace certificate (" << d.certificate.steps.size()
            << " steps) written to " << request.saveCertPath << "\n";
      }
      if (request.captureCert) {
        result.certificateBytes =
            io::certificateToJson(d.certificate).dumpPretty();
      }
      printStats();
    } catch (const re::Error& e) {
      err << "family error: " << e.what() << "\n";
      code = 1;
    }
    return finish(code);
  }

  if (request.nodeSpec.empty() || request.edgeSpec.empty()) {
    err << usageText(request.programName);
    return finish(2);
  }
  re::Problem p;
  try {
    p = re::Problem::parse(splitLines(request.nodeSpec),
                           splitLines(request.edgeSpec));
  } catch (const re::Error& e) {
    err << "parse error: " << e.what() << "\n";
    return finish(2);
  }

  out << "problem (Delta = " << p.delta() << ", " << p.alphabet.size()
      << " labels):\n"
      << p.render() << "\n";

  try {
    if (interrupted()) return finishInterrupted();
    {
      const obs::ScopedSpan phase("phase.analyze");
      const auto edgeRel = re::computeStrength(p.edge, p.alphabet.size());
      out << "edge diagram:\n" << edgeRel.renderDiagram(p.alphabet);
      try {
        const auto nodeRel =
            re::computeStrengthScalable(p.node, p.alphabet.size());
        out << "node diagram:\n" << nodeRel.renderDiagram(p.alphabet);
      } catch (const re::Error&) {
        out << "node diagram: (undecided at this size)\n";
      }

      out << "\n0-round solvable: symmetric ports "
          << (re::zeroRoundSolvableSymmetricPorts(p) ? "yes" : "no")
          << ", adversarial ports "
          << (re::zeroRoundSolvableAdversarialPorts(p) ? "yes" : "no")
          << ", with edge-port inputs "
          << (re::zeroRoundSolvableWithEdgeInputs(p) ? "yes" : "no")
          << "\n\n";
    }

    if (request.showStats) {
      // One stats table per speedup step.
      const obs::ScopedSpan phase("phase.pipeline");
      re::Problem current = p;
      for (int step = 1; step <= maxSteps; ++step) {
        if (interrupted()) return finishInterrupted();
        try {
          auto stepResult = ctx.speedupStepWithStats(current);
          out << "speedup step " << step << ":\n"
              << stepResult.renderStatsTable() << "\n";
          current = std::move(stepResult.problem);
        } catch (const re::Error& e) {
          out << "speedup step " << step << ": engine guard (" << e.what()
              << ")\n\n";
          break;
        }
        if (current.alphabet.size() > 16) break;
      }
    }

    if (interrupted()) return finishInterrupted();
    {
      const obs::ScopedSpan phase("phase.iterate");
      re::IterateOptions options;
      options.maxSteps = maxSteps;
      options.maxLabels = 16;
      const auto trace = re::iterateSpeedup(ctx, p, options);
      out << trace.describe() << "\n\n";
      if (trace.last.alphabet.size() <= 16) {
        out << "last problem reached:\n" << trace.last.render();
      }
      session.opsWalked.push_back("input");
      for (std::size_t i = 1; i < trace.steps.size(); ++i) {
        session.opsWalked.push_back("speedup");
      }
    }

    if (!request.saveCertPath.empty() || request.captureCert) {
      const obs::ScopedSpan phase("phase.cert.save");
      const io::Certificate cert =
          family::buildTraceCertificate(p, ctx, maxSteps, 16);
      if (!request.saveCertPath.empty()) {
        io::saveCertificate(request.saveCertPath, cert);
        out << "\nspeedup-trace certificate (" << cert.steps.size()
            << " steps) written to " << request.saveCertPath << "\n";
      }
      if (request.captureCert) {
        result.certificateBytes = io::certificateToJson(cert).dumpPretty();
      }
    }

    if (interrupted()) return finishInterrupted();
    // Automatic lower bound: speedup + hardness-preserving label merging.
    try {
      const obs::ScopedSpan phase("phase.autobound");
      re::AutoLowerBoundOptions lbOptions;
      lbOptions.maxSteps = maxSteps;
      lbOptions.maxLabels = 10;
      const auto lb = ctx.autoLowerBound(p, lbOptions);
      out << "\nautomatic lower bound: >= " << lb.rounds
          << " rounds (deterministic PN, high girth)\n";
    } catch (const re::Error& e) {
      out << "\nautomatic lower bound: engine guard (" << e.what() << ")\n";
    }
  } catch (const re::Error& e) {
    err << "step error: " << e.what() << "\n";
    return finish(1);
  }

  printStats();
  return finish(0);
}

}  // namespace relb::driver
