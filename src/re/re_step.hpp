// The round-elimination operators R and Rbar (Section 2.3, following
// Brandt [PODC'19], Theorem 4.3).
//
// Given a problem Pi with complexity T on high-girth Delta-regular graphs,
// Rbar(R(Pi)) has complexity exactly max{T-1, 0}.  R replaces labels by sets
// of labels and maximizes the *edge* constraint; Rbar does the same on the
// *node* constraint.  The sets of the output become fresh labels of the
// output problem; `StepResult::meaning` records which set of input labels
// each fresh label stands for.
//
// Scalability:
//   * applyR is exact for every Delta: the edge side is degree-2 (and thus
//     Delta-independent), and the node side uses the replacement method on
//     condensed configurations.
//   * applyRbar must maximize over node configurations; this is done exactly
//     by enumerating multisets of right-closed label sets with a
//     deduplicating all-choices check, which is feasible for small Delta
//     (the number of distinct choice words is bounded by the number of
//     multisets, not by |set|^Delta).  Guarded by `options.maxRbarDelta`.
//
// Parallelism: the subset sweep of maximalEdgePairs, the top-level branches
// of the Rbar multiset enumeration, and both maximality filters fan out over
// a thread pool (see util/thread_pool.hpp) when StepOptions::numThreads
// resolves to more than one thread.  Partial results are merged in a fixed
// index order and the domination filters are pure per-candidate predicates,
// so the output is bit-identical for every thread count; numThreads == 1
// runs the original serial code paths.  Independently of threading, the
// quadratic domination filters are pruned by union-signature bucketing:
// a candidate can only be dominated by one whose label-set union is a
// superset, so candidates are compared against plausibly-dominating buckets
// only (an antichain prune that helps even at one thread).
#pragma once

#include <functional>
#include <vector>

#include "re/diagram.hpp"
#include "re/edge_compat.hpp"
#include "re/problem.hpp"
#include "util/thread_pool.hpp"

namespace relb::re {

struct StepResult {
  Problem problem;
  /// meaning[newLabel] = the set of input labels this fresh label denotes.
  std::vector<LabelSet> meaning;
};

struct StepOptions {
  /// applyRbar refuses node degrees above this (enumeration guard).
  Count maxRbarDelta = 8;
  /// Word-enumeration cap used for strength computation inside applyRbar.
  std::size_t enumerationLimit = 2'000'000;
  /// Fan-out width for the parallel sections of applyR / applyRbar:
  /// 0 = one thread per hardware core, 1 = fully serial, k >= 2 = exactly k
  /// lanes.  Results are bit-identical for every value.
  int numThreads = util::kDefaultNumThreads;
};

/// Computes Pi' = R(Pi).  Exact for arbitrary Delta.
[[nodiscard]] StepResult applyR(const Problem& p,
                                const StepOptions& options = {});

/// Computes Pi'' = Rbar(Pi').  Exact; requires small Delta (see above).
[[nodiscard]] StepResult applyRbar(const Problem& p,
                                   const StepOptions& options = {});

/// One full speedup step Rbar(R(Pi)).
[[nodiscard]] Problem speedupStep(const Problem& p,
                                  const StepOptions& options = {});

// edgeCompatibility and maximalEdgePairs moved to re/edge_compat.hpp
// (included above): they are plain combinatorial facts about an edge
// constraint, usable by consumers -- zero-round analysis, the certificate
// verifier -- that must not link the speedup engine.

namespace detail {

/// Supplies the one sub-result an operator caches: the free functions above
/// compute it directly, EngineSession returns its memoized copy.  The result
/// is bit-identical either way.
using SubResult = std::function<std::vector<LabelSet>()>;

/// The operators with their sub-result supplied by the caller.  Each runs its
/// guards in a fixed order around the sub-result, so a refused step throws
/// the same message on every path (the step store persists these texts):
///   R:     p.validate(), then compat() = edgeCompatibility(p.edge, |alphabet|);
///   Rbar:  p.validate() and the maxRbarDelta guard, then rightClosedSets() =
///          the non-empty right-closed subsets of p's alphabet under the node
///          constraint's strength relation, then the packed-word guard
///          (<= 16 labels, delta <= 15).
[[nodiscard]] StepResult applyR(const Problem& p, const StepOptions& options,
                                const SubResult& compat);
[[nodiscard]] StepResult applyRbar(const Problem& p,
                                   const StepOptions& options,
                                   const SubResult& rightClosedSets);

}  // namespace detail

}  // namespace relb::re
