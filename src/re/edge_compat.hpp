// Low-level edge-constraint analyses: the degree-2 compatibility matrix and
// the maximal compatible pairs (the edge side of the R operator, but also a
// plain combinatorial fact about an edge constraint).
//
// These live below the speedup engine: zero-round analysis (zero_round.cpp)
// and the independent certificate verifier link them without pulling in
// re_step.cpp / engine.cpp.
#pragma once

#include <utility>
#include <vector>

#include "re/constraint.hpp"

namespace relb::re {

/// The largest alphabet maximalEdgePairs enumerates; above it the analysis
/// refuses (re::Error), and so does every caller that needs the pairs (R,
/// the edge-input zero-round analysis).
inline constexpr int kMaxEdgePairLabels = 20;

/// The degree-2 compatibility matrix of an edge constraint:
/// compat[a] = set of labels b such that the word {a, b} is allowed.
[[nodiscard]] std::vector<LabelSet> edgeCompatibility(const Constraint& edge,
                                                      int alphabetSize);

/// The maximal edge configurations of R(Pi) as unordered pairs of label sets
/// (before renaming): the Galois-closed pairs (A, B) with A x B
/// edge-compatible, none dominated by another in either orientation (the
/// matrix is symmetric; edge_compat.cpp has the proof).  Exact for any
/// Delta.  Serial: the closed sets are enumerated in time proportional
/// to their number, so a fan-out would cost more than it saves.  Throws
/// re::Error above kMaxEdgePairLabels labels.
[[nodiscard]] std::vector<std::pair<LabelSet, LabelSet>> maximalEdgePairs(
    const Constraint& edge, int alphabetSize);

namespace detail {

/// Body of maximalEdgePairs on a precomputed compatibility matrix; shared
/// with applyR, whose engine context may have the matrix cached.
[[nodiscard]] std::vector<std::pair<LabelSet, LabelSet>>
maximalEdgePairsFromCompat(const std::vector<LabelSet>& compat,
                           int alphabetSize);

}  // namespace detail

}  // namespace relb::re
