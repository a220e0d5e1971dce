// Pre-rewrite reference implementations of the R/Rbar hot paths and of the
// edge-input zero-round analysis, kept compilable under the property-test
// target only.
//
// The bit-parallel kernels in src/re (packed-word enumeration, SWAR
// domination, bitmask Kuhn matching, shape-based edge compatibility, the
// closure-table right-closed-set sweep) promise *bit-identical* results to
// the straightforward container-based implementations they replaced.  This
// header preserves those originals verbatim-in-spirit -- std::set / std::map
// / std::function and all -- as differential oracles; prop_kernels_test.cpp
// compares them against the production code across generated problems.
//
// Nothing here is optimized, and nothing here should ever be "improved" to
// match a production change: if the two sides diverge, the production side
// is wrong (or the semantics changed, in which case the reference must be
// re-derived from first principles, not patched to agree).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "re/diagram.hpp"
#include "re/re_step.hpp"

namespace relb::refimpl {

/// Word-based pairwise edge compatibility (the original of
/// re::edgeCompatibility): label b is compatible with a iff the edge
/// constraint contains the two-slot word {a, b}.
std::vector<re::LabelSet> edgeCompatibility(const re::Constraint& edge,
                                            int alphabetSize);

/// Enumeration-based strength relation (the original of re::computeStrength):
/// materializes the full word language into a std::set and tests every
/// weak -> strong substitution against it.
re::StrengthRelation computeStrength(const re::Constraint& constraint,
                                     int alphabetSize, std::size_t limit);

/// Subset sweep over the universe testing each candidate with
/// StrengthRelation::rightClosure (the original of
/// StrengthRelation::allRightClosedSets).
std::vector<re::LabelSet> allRightClosedSets(const re::StrengthRelation& rel,
                                             re::LabelSet universe);

/// The 2^n subset sweep with Galois closure, then an all-pairs
/// swapped-orientation domination filter (the original of
/// re::detail::maximalEdgePairsFromCompat, which enumerates the closed sets
/// by intersecting compatibility rows).  Throws the production guard text
/// above 20 labels.
std::vector<std::pair<re::LabelSet, re::LabelSet>> maximalEdgePairs(
    const std::vector<re::LabelSet>& compat, int alphabetSize);

/// Per-label containsWord probe (the original of re::selfCompatibleLabels).
re::LabelSet selfCompatibleLabels(const re::Problem& p);

/// The (Delta+1)-pattern flow formulation of the edge-input zero-round
/// analysis (the original of re::zeroRoundSolvableWithEdgeInputs, which
/// covers [0, Delta] with one interval per node configuration): for every
/// maximal pair, in both orientations, one Configuration::intersects
/// max-flow per side-bit pattern [A]^m [B]^(Delta-m), m = 0..Delta.  Linear
/// in Delta, so small-Delta problems only.
bool zeroRoundSolvableWithEdgeInputs(const re::Problem& p);

/// Definition 7 on explicit slot vectors via std::function Kuhn matching
/// (the original of the bitmask kernels::slotsRelaxTo).
bool slotsRelaxTo(const std::vector<re::LabelSet>& a,
                  const std::vector<re::LabelSet>& b);

/// The full pre-rewrite R operator: word-probed compatibility, a serial
/// subset sweep for maximal pairs, std::set-ordered fresh alphabet.
re::StepResult applyR(const re::Problem& p);

/// The full pre-rewrite Rbar operator (serial): std::vector<LabelSet> slot
/// DFS with an unordered_map completability memo, linear-scan domination,
/// std::map run-length grouping, plain all-pairs antichain filter.
re::StepResult applyRbar(const re::Problem& p,
                         const re::StepOptions& options = {});

}  // namespace relb::refimpl
