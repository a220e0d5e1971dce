// Half-edge labelings, edge colorings and the generic
// locally-checkable-labeling checker.
//
// A solution of a problem in the round-elimination formalism assigns a label
// to every (node, incident edge) pair.  Like every half-edge array over a
// CsrGraph, a labeling has one slot per half-edge, indexed by
// g.halfEdge(v, port).  The checker verifies the node constraint at every
// node of full degree and the edge constraint at every edge, reporting all
// violations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "local/csr.hpp"
#include "re/problem.hpp"

namespace relb::local {

/// Labels on half-edges: labeling[g.halfEdge(v, p)] is the label node v
/// writes on its port p.
using HalfEdgeLabeling = std::vector<re::Label>;

struct CheckOptions {
  /// Check the node constraint only at nodes whose degree equals the
  /// problem's Delta (finite trees have boundary nodes of smaller degree; the
  /// round-elimination guarantees only concern full-degree nodes).
  bool fullDegreeNodesOnly = true;
  /// Stop after this many recorded violations.
  int maxViolations = 16;
};

struct CheckResult {
  int nodeViolations = 0;
  int edgeViolations = 0;
  std::vector<std::string> messages;

  [[nodiscard]] bool ok() const {
    return nodeViolations == 0 && edgeViolations == 0;
  }
};

/// Verifies `labeling` against `problem` on `g`.
[[nodiscard]] CheckResult checkLabeling(const CsrGraph& g,
                                        const re::Problem& problem,
                                        const HalfEdgeLabeling& labeling,
                                        const CheckOptions& options = {});

/// The Delta-edge coloring of a tree in the CsrGraph::fromParents layout
/// (port 0 of every non-root node is its parent): child i of a node takes
/// the i-th color that skips the color of the node's parent edge.  One color
/// per half-edge; both halves of an edge carry the same color.
[[nodiscard]] std::vector<std::uint32_t> treeEdgeColoring(const CsrGraph& g);

/// True iff `colors` (one per half-edge) gives both halves of every edge the
/// same color, below `numColors`, and no node two edges of one color.
[[nodiscard]] bool isProperEdgeColoring(const CsrGraph& g,
                                        std::span<const std::uint32_t> colors,
                                        std::uint32_t numColors);

}  // namespace relb::local
