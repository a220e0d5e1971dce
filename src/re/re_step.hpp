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
//     completable partial words, not by |set|^Delta), then keeping the
//     maximal ones largest-first.  Guarded by `options.maxRbarDelta`.
//
// Parallelism: Rbar's top-level enumeration branches and its maximality
// filter (within each size class) fan out over a thread pool (see
// util/thread_pool.hpp) when StepOptions::numThreads resolves to more than
// one thread; partial results merge in a fixed index order, so the output
// is bit-identical for every thread count.  R is serial, and its closed
// edge pairs need no domination filter (edge_compat.cpp); Rbar's filter
// tests each candidate only against the maximal candidates of strictly
// larger total slot size.
#pragma once

#include <cstdint>
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
  /// Fan-out width for the parallel sections of applyRbar:
  /// 0 = one thread per hardware core, 1 = fully serial, k >= 2 = exactly k
  /// lanes.  Results are bit-identical for every value.
  int numThreads = util::kDefaultNumThreads;
};

/// Computes Pi' = R(Pi).  Exact for arbitrary Delta, and serial: R reads no
/// option, the parameter keeps it call-compatible with applyRbar.
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
///   Rbar:  p.validate() and the maxRbarDelta guard, then the right-closed
///          universe guard (<= 20 labels), then the packed-word guard
///          (<= 16 labels, delta <= 15), and only then rightClosedSets() =
///          the non-empty right-closed subsets of p's alphabet under the node
///          constraint's strength relation.
[[nodiscard]] StepResult applyR(const Problem& p, const SubResult& compat);
[[nodiscard]] StepResult applyRbar(const Problem& p,
                                   const StepOptions& options,
                                   const SubResult& rightClosedSets);

/// Rbar's maximality filter.  `records` holds delta-strided slot records
/// (each slot a LabelSet::bits() value), pairwise distinct as multisets.
/// Returns the indices of the records no other record strictly relaxes to
/// (Definition 7), by decreasing total slot size and in input order within
/// one size.
[[nodiscard]] std::vector<std::size_t> maximalSlotRecords(
    const std::vector<std::uint32_t>& records, Count delta, int numThreads);

}  // namespace detail

}  // namespace relb::re
