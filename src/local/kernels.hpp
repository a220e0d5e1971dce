// Frontier-based parallel round kernels for the paper's upper bounds.
//
// Three algorithm families, each written as runRound(frontier) -> frontier
// sweeps over the CSR vertex table (local/frontier.hpp has the blocked-range
// discipline and the determinism contract):
//
//   * Luby's randomized MIS.  Per round, an UNDECIDED vertex joins the MIS
//     iff its (priority, id) pair beats every UNDECIDED neighbor's, where
//     priority = splitmix64(seed, round, vertex) -- counter-based randomness,
//     so the coin flips are a pure function of (seed, round, vertex) and the
//     run is reproducible at any thread width.  O(log n) rounds whp.
//
//   * Cole-Vishkin color reduction on rooted trees: iterate the bit-index
//     step from the id-coloring down to <= 6 colors in log* n + O(1) rounds,
//     then three shift-down + recolor round pairs remove the classes 5, 4, 3
//     for a proper 3-coloring.  Fully deterministic -- the measured-round
//     counterpart of the paper's O(Delta + log* n) MIS upper bound.
//
//   * The Section 1.1 MIS -> bounded-out-degree dominating set reduction:
//     one round in which every non-MIS vertex points at an MIS neighbor.
//     The MIS is the dominating set, G[S] is edgeless, so the empty
//     orientation has outdegree 0 <= k for every admissible k.
//
// Kernels return plain data; observability is the caller's job (sim.cpp
// wires RoundHook into obs counters and tracer spans).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "local/csr.hpp"
#include "local/frontier.hpp"

namespace relb::local {

/// Called after every completed round with (round index, vertices processed
/// this round).  Hooks must be cheap; they run on the calling thread.
using RoundHook = std::function<void(int round, std::uint64_t active)>;

/// The per-(seed, round, vertex) priority driving Luby's coin flips.
[[nodiscard]] std::uint64_t lubyPriority(std::uint64_t seed, int round,
                                         Vertex v);

struct MisRun {
  std::vector<MisFlag> state;  // every vertex kIn or kOut on return
  int rounds = 0;
  std::uint64_t misSize = 0;
};

/// One Luby round over `frontier`: phase 1 marks local priority maxima into
/// `inMark` (reading only round-start state), phase 2 commits kIn/kOut and
/// collects the surviving frontier.  `state` and `inMark` must have one slot
/// per vertex; `inMark` is scratch reused across rounds.
[[nodiscard]] Frontier lubyMisRound(const CsrGraph& g, const Frontier& frontier,
                                    std::vector<MisFlag>& state,
                                    std::vector<std::uint8_t>& inMark,
                                    std::uint64_t seed, int round,
                                    int numThreads);

/// Runs Luby rounds until every vertex is decided.
[[nodiscard]] MisRun lubyMis(const CsrGraph& g, std::uint64_t seed,
                             int numThreads, const RoundHook& hook = {});

struct ColorRun {
  // Values in [0, numColors); proper, except for the (arb)defective
  // colorings of upper_bounds.hpp.
  std::vector<std::uint32_t> colors;
  int rounds = 0;
  std::uint32_t numColors = 0;
};

/// One Cole-Vishkin step: next[v] = 2 * i + bit_i(cur[v]) for the lowest bit
/// i where cur[v] differs from the parent's color (the root uses a virtual
/// parent differing in bit 0).  Exposed for tests and the round benchmarks.
void cvColorRound(const CsrGraph& g, std::span<const Vertex> parents,
                  std::span<const std::uint32_t> cur,
                  std::span<std::uint32_t> next, int numThreads);

/// Full color reduction to a proper 3-coloring of the rooted tree.
[[nodiscard]] ColorRun treeColorReduce(const CsrGraph& g,
                                       std::span<const Vertex> parents,
                                       int numThreads,
                                       const RoundHook& hook = {});

struct DomsetRun {
  std::vector<std::uint8_t> inSet;  // 1 = in the dominating set
  /// dominator[v]: v itself for members, else the chosen MIS neighbor
  /// (kInvalidVertex marks a domination failure -- the verifier rejects).
  std::vector<Vertex> dominator;
  int rounds = 0;  // rounds of the reduction itself (1), MIS not included
  std::uint64_t setSize = 0;
};

/// The one-round MIS -> 0-outdegree dominating set reduction.
[[nodiscard]] DomsetRun domsetFromMis(const CsrGraph& g,
                                      std::span<const MisFlag> mis,
                                      int numThreads,
                                      const RoundHook& hook = {});

}  // namespace relb::local
