// The paper's explicit algorithmic conversions, implemented as real
// (0- or 1-round) procedures on labeled graphs:
//
//   * Lemma 5  — a k-outdegree dominating set yields a solution of
//                Pi_Delta(a, k) in one round;
//   * Lemma 9  — a Delta-edge coloring converts any solution of
//                Pi+_Delta(a, x) into a solution of
//                Pi_Delta(floor((a-2x-1)/2), x+1) in zero rounds;
//   * Lemma 11 — monotonicity: a solution of Pi_Delta(a', x') yields one of
//                Pi_Delta(a, x) for a <= a', x >= x' in zero rounds.
//
// All procedures are strictly local: the output half-edge labels of a node
// depend only on that node's own labels, its edge colors, and (for Lemma 5)
// its neighbors' set membership, learned in the lemma's one round.
// Labelings, edge colors and orientations are half-edge arrays over a
// CsrGraph (local/csr.hpp).  Synthetic Pi+ solution generators are provided
// so Lemma 9 can be exercised on concrete trees, including the C/A adjacency
// case that motivates the edge-coloring trick.
#pragma once

#include <cstdint>
#include <span>

#include "core/family.hpp"
#include "local/halfedge.hpp"

namespace relb::core {

/// Lemma 5.  `inSet` (one byte per node) and `outgoing` (one byte per
/// half-edge) must form a k-outdegree dominating set.  Produces a labeling
/// that solves Pi_Delta(a, k) for every a (checked at full-degree nodes; the
/// A configuration is not used).
[[nodiscard]] local::HalfEdgeLabeling lemma5Labeling(
    const local::CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const std::uint8_t> outgoing, re::Count k);

/// Lemma 9.  `plusLabeling` must solve Pi+_Delta(a, x) on `g`, and
/// `edgeColors` (one per half-edge) must be a proper edge coloring with at
/// least floor((a-1)/2) colors.  Returns a labeling of
/// Pi_Delta(floor((a-2x-1)/2), x+1).  Zero rounds: the rewrite of a node's
/// labels uses only local information.
[[nodiscard]] local::HalfEdgeLabeling lemma9Convert(
    const local::CsrGraph& g, std::span<const std::uint32_t> edgeColors,
    const local::HalfEdgeLabeling& plusLabeling, re::Count a, re::Count x);

/// Lemma 11.  `labeling` must solve Pi_Delta(aFrom, xFrom); returns a
/// labeling of Pi_Delta(aTo, xTo) for aTo <= aFrom, xTo >= xFrom.
[[nodiscard]] local::HalfEdgeLabeling lemma11Relax(
    const local::CsrGraph& g, const local::HalfEdgeLabeling& labeling,
    re::Count aFrom, re::Count xFrom, re::Count aTo, re::Count xTo);

/// Synthetic Pi+_Delta(a, x) solution that exercises the C label: nodes at
/// even BFS depth output C^{deg-x'} X^{x'}, odd-depth nodes output
/// A^{a-x-1} X^{...}.  Requires a tree.
[[nodiscard]] local::HalfEdgeLabeling syntheticPlusLabelingAlternating(
    const local::CsrGraph& g, re::Count a, re::Count x);

/// Embeds a Pi_Delta(a, x) solution into Pi+_Delta(a, x) (M-nodes flip one
/// extra M to X; A-nodes keep only a-x-1 labels A).  Zero rounds.
[[nodiscard]] local::HalfEdgeLabeling plusFromFamilyLabeling(
    const local::CsrGraph& g, const local::HalfEdgeLabeling& labeling,
    re::Count a, re::Count x);

}  // namespace relb::core
