// The Section 1.1 upper bounds as serial round-counting algorithms over
// CsrGraph: vertex colorings, defective and arbdefective colorings, and the
// class sweeps that turn them into (bounded-(out)degree) dominating sets.
// Their callers are gadget-sized; the 10^7-node kernels are in kernels.hpp.
//
//   * linialColorReduction starts from the unique node identifiers (an
//     n-proper coloring) and iterates the polynomial set-system step: colors
//     are encoded as degree-d polynomials over F_q; a node picks an
//     evaluation point where it differs from every neighbor, and (x, p(x)) is
//     its new color.  Each iteration takes one round and reaches O(Delta^2)
//     colors after O(log* n) rounds (Linial '92).  reduceToDeltaPlusOne then
//     removes one color class per round.
//   * kDefectiveColoring is the one-round polynomial construction (Kuhn '09
//     flavor): a node re-encodes its proper color as a linear polynomial over
//     F_q (q ~ Delta/k prime) and keeps the evaluation point with the fewest
//     agreements with its neighbors; O((Delta/k)^2) classes, defect <= k.
//   * kArbdefectiveColoring processes the proper color classes in order; each
//     node picks the bin (of ceil((Delta+1)/(k+1))) least used by its
//     already-processed neighbors and orients its intra-bin edges towards
//     them, so pigeonhole gives outdegree <= k.  One round per proper class.
//   * The class sweep iterates over the classes of a coloring; a node of the
//     current class with no dominating neighbor yet joins the set.  Edges
//     inside the set join nodes of one class, so the class's (out)degree
//     bound carries over to G[S].
//
// Sets are one byte per node and orientations one byte per half-edge, as in
// verify.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "local/csr.hpp"
#include "local/kernels.hpp"

namespace relb::local {

/// The smallest prime >= v (v <= ~10^9; trial division).
[[nodiscard]] std::uint64_t nextPrime(std::uint64_t v);

/// One round of Linial reduction from an m-coloring; returns the new
/// coloring with q^2 colors.  Exposed for tests.
[[nodiscard]] ColorRun linialStep(const CsrGraph& g,
                                  std::span<const std::uint32_t> color,
                                  std::uint32_t m);

/// Full Linial reduction from unique ids to O(Delta^2) colors.
[[nodiscard]] ColorRun linialColorReduction(const CsrGraph& g);

/// Color-class elimination down to Delta+1 colors; one round per removed
/// class.  `start` must be proper.
[[nodiscard]] ColorRun reduceToDeltaPlusOne(const CsrGraph& g, ColorRun start);

/// ids -> O(Delta^2) -> Delta+1 colors.
[[nodiscard]] ColorRun properColoring(const CsrGraph& g);

/// A k-defective coloring; `rounds` counts this stage only.
[[nodiscard]] ColorRun kDefectiveColoring(const CsrGraph& g,
                                          const ColorRun& proper, int k);

struct ArbdefectiveRun {
  ColorRun classes;  // `rounds` counts this stage only
  /// Orientation of the intra-class edges, one byte per half-edge.
  std::vector<std::uint8_t> outgoing;
};

[[nodiscard]] ArbdefectiveRun kArbdefectiveColoring(const CsrGraph& g,
                                                    const ColorRun& proper,
                                                    int k);

struct DomSetResult {
  std::vector<std::uint8_t> inSet;
  std::vector<std::uint8_t> outgoing;  // meaningful for the outdegree variant
  int roundsColoring = 0;   // proper coloring stage (O(Delta^2 + log* n))
  int roundsDefective = 0;  // defective / arbdefective stage
  int roundsSweep = 0;      // class-sweep stage
  [[nodiscard]] int totalRounds() const {
    return roundsColoring + roundsDefective + roundsSweep;
  }
};

/// Maximal independent set by sweeping the classes of a proper coloring
/// (the k = 0 case; O(Delta^2 + log* n) rounds overall).
[[nodiscard]] DomSetResult misFromColoring(const CsrGraph& g);

/// k-outdegree dominating set via the arbdefective-coloring route.
[[nodiscard]] DomSetResult kOutdegreeDominatingSet(const CsrGraph& g, int k);

/// k-degree dominating set via the defective-coloring route
/// (O((Delta/k)^2) sweep rounds).
[[nodiscard]] DomSetResult kDegreeDominatingSet(const CsrGraph& g, int k);

/// Sequential greedy baselines (not distributed; used for validation and
/// set-size comparisons).
[[nodiscard]] std::vector<std::uint8_t> greedyMis(const CsrGraph& g);
[[nodiscard]] std::vector<std::uint8_t> greedyDominatingSet(const CsrGraph& g);

}  // namespace relb::local
