// The massive-scale LOCAL simulation driver: family + algorithm -> one
// instrumented, verified, checksummed run.
//
// runSim is the single entry point behind examples/relb_localsim.cpp and
// the simulator CI job: it generates the instance (local/families.hpp),
// executes the chosen kernel (local/kernels.hpp), verifies the per-node
// output with the CSR verifiers (local/verify.hpp), and reports the
// measured LOCAL round count -- the number the gap figure
// (tools/gap_figure.py) joins against the engine-certified lower bounds.
//
// Observability: the three phases emit the root spans local.build /
// local.algo / local.verify (local.build splits into the child spans
// local.build.parents and local.build.csr); every kernel round ticks the counters
// local.rounds.total and local.frontier.processed and (when a sink is
// attached) a local.frontier tracer counter sample, and the instance shape
// lands in the local.nodes / local.half_edges / local.max_degree gauges.
// docs/observability.md lists the taxonomy; docs/simulator.md the contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "local/families.hpp"

namespace relb::local {

enum class Algo {
  kLubyMis,         // Luby's randomized MIS, O(log n) rounds whp
  kColorReduction,  // CV + shift-down to a proper 3-coloring, log* n + O(1)
  kDomsetReduction, // Luby MIS + the one-round Section 1.1 domset reduction
};

[[nodiscard]] std::optional<Algo> algoFromName(std::string_view name);
[[nodiscard]] const char* algoName(Algo algo);

struct SimOptions {
  Family family = Family::kRandomTree;
  std::uint64_t nodes = 1'000'000;
  /// 0 = family default (families.hpp).
  std::uint32_t maxDegree = 0;
  Algo algo = Algo::kLubyMis;
  std::uint64_t seed = 1;
  /// Thread-pool width: 0 = one lane per core, 1 = serial (the repo-wide
  /// convention).  Purely a performance knob -- output is bit-identical.
  int numThreads = 0;
  /// Run the CSR verifier over the final state (skippable for benchmarks).
  bool verify = true;
};

struct SimResult {
  std::uint64_t nodes = 0;
  std::uint64_t halfEdges = 0;
  std::uint32_t maxDegree = 0;
  std::size_t graphBytes = 0;  // CSR layout bytes (offsets + neighbors)

  /// Measured LOCAL rounds of the algorithm (for the domset reduction:
  /// the MIS rounds plus the one reduction round).
  int rounds = 0;
  /// MIS / dominating-set size; for color reduction, the number of colors.
  std::uint64_t solutionSize = 0;
  /// True when options.verify was set and the verifier accepted (always
  /// false when verification was skipped).
  bool verified = false;

  /// FNV-1a over the final per-node output (MIS flags, colors, or
  /// inSet + dominator).  Equal checksums across thread widths are the
  /// cheap bit-identity witness the CI smoke and the parallel tests use.
  std::uint64_t stateChecksum = 0;

  /// One-line human summary (the CLI prints it plus the shape lines).
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] SimResult runSim(const SimOptions& options);

}  // namespace relb::local
