// Direct verifiers for the concrete graph problems of the paper over the
// CSR layout: independent sets, dominating sets, MIS, proper and defective
// colorings, and k-(out)degree dominating sets (Section 1: a k-outdegree
// dominating set is a dominating set S together with an orientation of G[S]
// in which every node of S has outdegree at most k; for k = 0 both notions
// coincide with MIS).
//
// Each sweeps the vertex table in parallel -- the verdict is a pure AND (or
// max) over per-node checks, so it is deterministic at every thread width --
// and each check reads only the node's own slot and its neighbors' slots,
// exactly the locality a LOCAL-model checker is allowed (docs/simulator.md).
//
// Sets are one byte per node (1 = member).  An orientation is one byte per
// half-edge (1 = the edge points away from this end, see csr.hpp); a G[S]
// edge is oriented iff exactly one of its halves is marked.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "local/csr.hpp"

namespace relb::local {

/// No kIn vertex has a kIn neighbor, and no vertex is kUndecided.
[[nodiscard]] bool csrIsIndependentSet(const CsrGraph& g,
                                       std::span<const MisFlag> state,
                                       int numThreads);

/// Every kOut vertex has a kIn neighbor, and no vertex is kUndecided.
[[nodiscard]] bool csrIsDominatingSet(const CsrGraph& g,
                                      std::span<const MisFlag> state,
                                      int numThreads);

/// Independent + dominating.
[[nodiscard]] bool csrIsMaximalIndependentSet(const CsrGraph& g,
                                              std::span<const MisFlag> state,
                                              int numThreads);

/// Colors are < numColors and no edge is monochromatic.
[[nodiscard]] bool csrIsProperColoring(const CsrGraph& g,
                                       std::span<const std::uint32_t> colors,
                                       std::uint32_t numColors,
                                       int numThreads);

/// The Section 1.1 reduction's certificate: members dominate themselves,
/// every non-member's `dominator` is an adjacent member, and G[S] is
/// edgeless -- so the (empty) orientation has outdegree 0, making `inSet` a
/// 0-outdegree (hence k-outdegree, for every k >= 0) dominating set.
[[nodiscard]] bool csrIsZeroOutdegreeDominatingSet(
    const CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const Vertex> dominator, int numThreads);

/// Largest number of G[S] neighbors of a member of S (0 for an empty S).
[[nodiscard]] int csrInducedMaxDegree(const CsrGraph& g,
                                      std::span<const std::uint8_t> inSet,
                                      int numThreads);

/// Largest number of outgoing G[S] half-edges at a member of S; -1 if some
/// G[S] edge is not oriented.
[[nodiscard]] int csrInducedMaxOutdegree(
    const CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const std::uint8_t> outgoing, int numThreads);

/// The defect of a coloring: the largest number of same-colored neighbors.
[[nodiscard]] int csrDefect(const CsrGraph& g,
                            std::span<const std::uint32_t> colors,
                            int numThreads);

/// The arbdefect of a coloring under `outgoing`: the largest number of
/// outgoing half-edges to same-colored neighbors; -1 if an edge inside a
/// color class is not oriented.
[[nodiscard]] int csrArbdefect(const CsrGraph& g,
                               std::span<const std::uint32_t> colors,
                               std::span<const std::uint8_t> outgoing,
                               int numThreads);

/// k-degree dominating set: dominating, and G[S] has max degree <= k.
/// With k = 0 this is the MIS check.
[[nodiscard]] bool csrIsKDegreeDominatingSet(const CsrGraph& g,
                                             std::span<const std::uint8_t> inSet,
                                             int k, int numThreads);

/// k-outdegree dominating set: dominating, every G[S] edge oriented, and
/// every member has outdegree <= k.
[[nodiscard]] bool csrIsKOutdegreeDominatingSet(
    const CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const std::uint8_t> outgoing, int k, int numThreads);

/// Orients every G[S] edge from the smaller to the larger node id (the
/// paper's remark after Corollary 2: a k-degree dominating set becomes a
/// k-outdegree dominating set under *any* orientation).
[[nodiscard]] std::vector<std::uint8_t> orientInduced(
    const CsrGraph& g, std::span<const std::uint8_t> inSet);

}  // namespace relb::local
