// Deterministic seeded tree generators for the massive-scale simulator.
//
// Every family is generated as a parent array (parents[v] < v, node 0 the
// root) and converted to CSR by CsrGraph::fromParents, so a (family, nodes,
// maxDegree, seed) tuple names one exact graph on every machine and at
// every thread width -- the precondition for the kernels' bit-identity
// contract.  Generation and the CSR build both run on the thread pool.
// The same generators build the gadget-sized trees of the port-numbering
// arguments; the non-tree gadget of Lemmas 12/15 comes from fromEdges.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "local/csr.hpp"

namespace relb::local {

enum class Family {
  /// Uniform random attachment, unbounded degree (max degree O(log n) whp).
  kRandomTree,
  /// Uniform random attachment with a hard degree cap (default 8).
  kBoundedDegreeTree,
  /// Complete Delta-regular tree (default Delta 3): every internal node has
  /// degree exactly Delta -- the host family of the paper's Theorem 1
  /// lower-bound instances.
  kCompleteTree,
  /// Path on n nodes (Delta = 2 extreme of the lower-bound family).
  kPath,
  /// Path whose far end carries n/2 leaves -- the classic MIS adversary.
  kBroom,
};

[[nodiscard]] std::optional<Family> familyFromName(std::string_view name);
[[nodiscard]] const char* familyName(Family family);
/// All families, in CLI listing order.
[[nodiscard]] std::vector<Family> allFamilies();

/// One generated instance: the CSR graph plus the rooted-tree structure the
/// color-reduction kernel consumes (parents[root] == root == 0).
struct TreeInstance {
  CsrGraph graph;
  std::vector<Vertex> parents;
};

/// The parent array of `family` on `nodes` nodes.  `maxDegree` 0 picks the
/// family default (8 for bounded-degree, 3 for complete trees; ignored by
/// path and broom).  `seed` only matters for the randomized families.
/// Every family but bounded-tree is a closed form in v and is filled on up
/// to `numThreads` lanes; bounded-tree's capped probe reads the degrees of
/// all earlier choices and stays serial.  The array is the same at every
/// width.
[[nodiscard]] std::vector<Vertex> makeParents(
    Family family, std::uint64_t nodes, std::uint32_t maxDegree,
    std::uint64_t seed, int numThreads = util::kDefaultNumThreads);

/// makeParents followed by CsrGraph::fromParents, both at the default
/// width.
[[nodiscard]] TreeInstance makeTree(Family family, std::uint64_t nodes,
                                    std::uint32_t maxDegree,
                                    std::uint64_t seed);

/// Node count of the complete Delta-regular tree whose leaves sit at
/// distance `depth` from the root (the complete-tree family at exactly that
/// many nodes); saturates at UINT64_MAX, which makeParents rejects.
[[nodiscard]] std::uint64_t completeTreeNodes(std::uint32_t delta,
                                              std::uint32_t depth);

/// The symmetric-port gadget of Lemmas 12/15: K_{Delta,Delta} (girth 4),
/// Delta-regular, where the edge of color i uses port i at *both* endpoints
/// -- so a node's port number is the edge's color.
[[nodiscard]] CsrGraph symmetricPortGadget(std::uint32_t delta);

}  // namespace relb::local
