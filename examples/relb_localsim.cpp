// relb-localsim: the massive-scale LOCAL-model simulator CLI.
//
// Generates a tree family instance on the compact CSR layout, runs one of
// the upper-bound kernels (Luby MIS, Cole-Vishkin color reduction, or the
// Section 1.1 MIS -> 0-outdegree dominating set reduction), verifies the
// per-node output, and prints the measured round count plus a state
// checksum that is bit-identical across --threads widths for a fixed seed.
//
// The measured rounds are the *upper* bounds tools/gap_figure.py joins
// against the engine-certified lower bounds (docs/simulator.md).
//
//   relb_localsim [--family F] [--nodes N] [--max-degree D] [--algo A]
//                 [--seed S] [--threads T] [--no-verify]
//                 [--report FILE] [--trace FILE] [--trace-format {chrome,text}]
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "local/sim.hpp"
#include "obs/chrome_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "re/types.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: relb_localsim [options]\n"
         "  --family F           instance family: random-tree, bounded-tree,\n"
         "                       complete-tree, path, broom "
         "(default random-tree)\n"
         "  --nodes N            number of nodes (default 1000000)\n"
         "  --max-degree D       family degree cap; 0 = family default "
         "(default 0)\n"
         "  --algo A             kernel: luby-mis, color-reduction,\n"
         "                       domset-reduction (default luby-mis)\n"
         "  --seed S             deterministic seed (default 1)\n"
         "  --threads T          0 = one lane per core, 1 = serial "
         "(default 0)\n"
         "  --no-verify          skip the CSR output verifier\n"
         "  --report FILE        write a relb-run-report JSON to FILE\n"
         "  --trace FILE         write a span trace to FILE\n"
         "  --trace-format FMT   'chrome' or 'text' (default chrome)\n"
         "  --help               this text\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  relb::local::SimOptions options;
  std::string reportPath;
  std::string tracePath;
  std::string traceFormat = "chrome";
  std::string command;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command += ' ';
    command += argv[i];
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "relb_localsim: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers are read whole: a trailing character, a sign on an unsigned
    // flag or an out-of-range value is a bad value.
    const auto number = [&](auto& dest) {
      if (!relb::util::parseNumber(value(), dest)) {
        throw std::invalid_argument(arg);
      }
    };
    try {
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--family") {
        const std::string name = value();
        const auto family = relb::local::familyFromName(name);
        if (!family) {
          std::cerr << "relb_localsim: unknown family '" << name << "'\n";
          return usage(std::cerr, 2);
        }
        options.family = *family;
      } else if (arg == "--nodes") {
        number(options.nodes);
      } else if (arg == "--max-degree") {
        number(options.maxDegree);
      } else if (arg == "--algo") {
        const std::string name = value();
        const auto algo = relb::local::algoFromName(name);
        if (!algo) {
          std::cerr << "relb_localsim: unknown algo '" << name << "'\n";
          return usage(std::cerr, 2);
        }
        options.algo = *algo;
      } else if (arg == "--seed") {
        number(options.seed);
      } else if (arg == "--threads") {
        number(options.numThreads);
      } else if (arg == "--no-verify") {
        options.verify = false;
      } else if (arg == "--report") {
        reportPath = value();
      } else if (arg == "--trace") {
        tracePath = value();
      } else if (arg == "--trace-format") {
        traceFormat = value();
        if (traceFormat != "chrome" && traceFormat != "text") {
          std::cerr << "relb_localsim: --trace-format must be 'chrome' or "
                       "'text'\n";
          return 2;
        }
      } else {
        std::cerr << "relb_localsim: unknown flag '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    } catch (const std::exception&) {
      std::cerr << "relb_localsim: bad value for " << arg << "\n";
      return 2;
    }
  }

  // Observability wiring, same shape as the driver's: sinks on the global
  // tracer, a span aggregator when a report is requested, and a finalize
  // path every exit goes through.
  auto& tracer = relb::obs::Tracer::global();
  std::shared_ptr<relb::obs::TextSink> text;
  std::shared_ptr<relb::obs::ChromeTraceSink> chrome;
  std::shared_ptr<relb::obs::SpanAggregator> aggregator;
  if (!tracePath.empty()) {
    if (traceFormat == "chrome") {
      chrome = std::make_shared<relb::obs::ChromeTraceSink>(tracePath);
      tracer.addSink(chrome);
    } else {
      text = std::make_shared<relb::obs::TextSink>();
      tracer.addSink(text);
    }
  }
  if (!reportPath.empty()) {
    aggregator = std::make_shared<relb::obs::SpanAggregator>();
    tracer.addSink(aggregator);
  }
  const auto start = std::chrono::steady_clock::now();

  int code = 0;
  try {
    std::cout << "family: " << relb::local::familyName(options.family)
              << "  algo: " << relb::local::algoName(options.algo)
              << "  seed: " << options.seed
              << "  threads: " << relb::util::resolveThreadCount(
                                      options.numThreads)
              << "\n";
    const relb::local::SimResult result = relb::local::runSim(options);
    std::cout << "nodes: " << result.nodes
              << "  half-edges: " << result.halfEdges
              << "  max-degree: " << result.maxDegree
              << "  graph-mib: " << (result.graphBytes >> 20) << "\n"
              << result.summary() << "\n";
  } catch (const relb::re::Error& e) {
    std::cerr << "relb_localsim: " << e.what() << "\n";
    code = 1;
  }

  const std::int64_t totalMicros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  try {
    tracer.flush();  // the chrome sink writes its file here
    if (text != nullptr) {
      std::ofstream file(tracePath, std::ios::binary);
      file << text->render();
      if (!file) {
        throw relb::re::Error("cannot write trace to '" + tracePath + "'");
      }
    }
    if (!tracePath.empty()) {
      std::cout << "trace (" << traceFormat << ") written to " << tracePath
                << "\n";
    }
    if (aggregator != nullptr) {
      relb::obs::RunReport report = relb::obs::buildRunReport(
          *aggregator, relb::obs::Registry::global());
      // The simulator's root phases are the local.build / local.algo /
      // local.verify spans; per-round spans nest below them and stay in
      // the all-spans table.
      std::erase_if(report.phases, [](const relb::obs::RunReport::Row& row) {
        return row.name.rfind("local.", 0) != 0;
      });
      report.command = command;
      report.totalWallMicros = totalMicros;
      report.threads = relb::util::resolveThreadCount(options.numThreads);
      report.opsWalked.push_back(relb::local::algoName(options.algo));
      relb::obs::saveRunReport(reportPath, report);
      std::cout << "run report written to " << reportPath << "\n";
    }
  } catch (const relb::re::Error& e) {
    std::cerr << "relb_localsim: observability error: " << e.what() << "\n";
    if (code == 0) code = 1;
  }
  tracer.clearSinks();
  return code;
}
