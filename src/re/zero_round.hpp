// Zero-round solvability analysis in the port-numbering model
// (Lemmas 12 and 15 of the paper, stated for arbitrary problems).
//
// The hard instance family: a Delta-edge-colored, Delta-regular graph whose
// ports are numbered so that an edge of color i uses port i at *both*
// endpoints.  In that family all nodes have identical 0-round views, so a
// deterministic 0-round algorithm outputs one fixed word with one fixed
// port assignment, and every edge receives the same label on both sides.
// The algorithm succeeds iff some node-constraint word uses only
// self-compatible labels.
#pragma once

#include <optional>

#include "re/problem.hpp"

namespace relb::re {

/// True iff the word {l, l} is allowed by the edge constraint.
[[nodiscard]] bool selfCompatible(const Problem& p, Label l);

/// Set of self-compatible labels.
[[nodiscard]] LabelSet selfCompatibleLabels(const Problem& p);

/// A witness word (if any) proving 0-round solvability on the symmetric-port
/// family: a node-constraint word all of whose labels are self-compatible.
[[nodiscard]] std::optional<Word> zeroRoundSymmetricWitness(const Problem& p);

/// Deterministic 0-round solvability on the symmetric-port family
/// (the negation is the premise of Lemma 12).
[[nodiscard]] bool zeroRoundSolvableSymmetricPorts(const Problem& p);

/// A witness word (if any) for the adversarial-ports model: a
/// node-constraint word whose *support* is pairwise (and self-) compatible.
/// Such a word solves the problem on ANY graph with any port numbering
/// (every node outputs the word in port order); the differential oracles in
/// tests/prop realize it on concrete shuffled trees via src/local.
[[nodiscard]] std::optional<Word> zeroRoundAdversarialWitness(const Problem& p);

/// Deterministic 0-round solvability against fully adversarial ports: some
/// node-constraint word whose *support* is pairwise (and self-) compatible,
/// so that any two facing labels are allowed.
[[nodiscard]] bool zeroRoundSolvableAdversarialPorts(const Problem& p);

/// Exact deterministic 0-round solvability in the full PN model *with edge
/// ports* (each node sees, per incident edge, whether it is the edge's side
/// 0) -- the model of Theorem 3.  A 0-round algorithm induces label sets
/// (A, B) used on side-0 / side-1 half-edges with A x B edge-compatible;
/// w.l.o.g. (A, B) is a maximal compatible pair, and the algorithm exists
/// iff for some maximal pair every side-bit pattern admits an allowed word,
/// i.e. N intersects [A]^m [B]^{Delta-m} for every m.  Exact for any Delta:
/// each node configuration admits an interval of m, and a pair works iff
/// the intervals cover [0, Delta] (zero_round.cpp has the derivation).
/// Throws re::Error where maximalEdgePairs does (an edge degree other than
/// 2, or more than kMaxEdgePairLabels labels).
[[nodiscard]] bool zeroRoundSolvableWithEdgeInputs(const Problem& p);

/// Lemma 15 generalized: if the problem is not 0-round solvable on the
/// symmetric-port family, every randomized 0-round algorithm fails with
/// probability at least 1 / (q * Delta)^2 where q is the number of node
/// configurations.  Returns that bound, or 0 if the problem is solvable.
[[nodiscard]] double randomizedFailureLowerBound(const Problem& p);

}  // namespace relb::re
