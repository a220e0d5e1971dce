// A miniature command-line round eliminator (in the spirit of Olivetti's
// tool [36]): give it a problem in the text format, it prints diagrams,
// 0-round analysis, and iterates the speedup until a fixed point, a
// 0-round-solvable problem, or a label blow-up.
//
//   ./round_eliminator_cli [flags] "<node configs>" "<edge configs>"
//       [maxSteps] [threads]
//   ./round_eliminator_cli [flags] --chain DELTA [--x0 K]
//   ./round_eliminator_cli --verify-cert FILE
//
// Configurations are separated by ';'.  `threads` is the engine fan-out
// width (0 = one thread per core, the default; results are identical for
// every value).  Flags:
//
//   --stats            print per-operator tables and the engine cache counters
//   --store DIR        attach the on-disk step store at DIR (created on
//                      first use); results persist across runs
//   --resume           require an existing store at --store DIR (refuses to
//                      start cold; use for "continue where I left off")
//   --chain DELTA      family-chain mode: build and certify the exact
//                      Lemma 13 chain for Pi_DELTA(DELTA, x0)
//   --x0 K             chain start parameter (default 1)
//   --save-cert FILE   write a certificate: the certified family chain in
//                      --chain mode, a speedup trace otherwise
//   --verify-cert FILE load and re-verify a certificate, print the report
//   --trace FILE       write a structured trace of the run to FILE
//   --trace-format F   trace format: chrome (trace_event JSON, loadable in
//                      Perfetto / chrome://tracing; the default) or text
//   --report FILE      write a versioned, checksummed JSON run report:
//                      per-phase wall time, counter totals, the chain walked
//
// Exit codes: 0 = success, 1 = step/certification/verification failure,
// 2 = usage or parse error.
//
// The entire behavior lives in src/driver (parse -> RunRequest, execute ->
// RunResult); this file only connects argv and the two output streams.
//
// Examples:
//
//   ./round_eliminator_cli "M^3; P O^2" "M [PO]; O O"         # MIS
//   ./round_eliminator_cli --stats "O [IO]^2" "I O" 4         # sinkless or.
//   ./round_eliminator_cli --chain 32 --store /tmp/relb-store
//       --save-cert chain32.json --stats
//   ./round_eliminator_cli --chain 32 --trace chain32.trace.json
//       --report chain32.report.json
//   ./round_eliminator_cli --verify-cert chain32.json
#include <iostream>

#include "driver/driver.hpp"

int main(int argc, char** argv) {
  using namespace relb;
  const driver::ParseOutcome parsed = driver::parseArgs(argc, argv);
  if (!parsed.error.empty()) {
    std::cerr << parsed.error << "\n"
              << driver::usageText(parsed.request.programName);
    return 2;
  }
  if (parsed.helpRequested) {
    std::cerr << driver::usageText(parsed.request.programName);
    return 2;
  }
  driver::RunRequest request = parsed.request;
  // ^C / SIGTERM drain instead of dying mid-run: long runs stop at the next
  // phase boundary and still flush partial --report/--trace output.
  request.drainOnSignal = true;
  const driver::RunResult result = driver::run(request);
  std::cout << result.output;
  std::cerr << result.diagnostics;
  return result.exitCode();
}
