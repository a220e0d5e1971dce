#include "local/halfedge.hpp"

#include <algorithm>

namespace relb::local {

CheckResult checkLabeling(const CsrGraph& g, const re::Problem& problem,
                          const HalfEdgeLabeling& labeling,
                          const CheckOptions& options) {
  if (labeling.size() != g.numHalfEdges()) {
    throw re::Error("checkLabeling: labeling size does not match half-edges");
  }
  CheckResult result;
  const int n = problem.alphabet.size();
  const auto record = [&](std::string msg, bool nodeSide) {
    if (nodeSide) {
      ++result.nodeViolations;
    } else {
      ++result.edgeViolations;
    }
    if (static_cast<int>(result.messages.size()) < options.maxViolations) {
      result.messages.push_back(std::move(msg));
    }
  };

  for (Vertex v = 0; v < g.numNodes(); ++v) {
    if (options.fullDegreeNodesOnly &&
        static_cast<re::Count>(g.degree(v)) != problem.delta()) {
      continue;
    }
    re::Word w(static_cast<std::size_t>(n), 0);
    bool badLabel = false;
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const re::Label l = labeling[g.halfEdge(v, p)];
      if (l >= n) {
        badLabel = true;
        break;
      }
      ++w[l];
    }
    if (badLabel || !problem.node.containsWord(w)) {
      record("node " + std::to_string(v) + ": configuration not allowed",
             /*nodeSide=*/true);
    }
  }

  // Every edge once, from its lower endpoint.
  for (Vertex u = 0; u < g.numNodes(); ++u) {
    const auto row = g.neighbors(u);
    for (std::uint32_t p = 0; p < row.size(); ++p) {
      const Vertex v = row[p];
      if (v < u) continue;
      const re::Label lu = labeling[g.halfEdge(u, p)];
      const re::Label lv = labeling[g.halfEdge(v, g.portOf(v, u))];
      const std::string edge =
          "edge (" + std::to_string(u) + "," + std::to_string(v) + ")";
      if (lu >= n || lv >= n) {
        record(edge + ": label out of range", /*nodeSide=*/false);
        continue;
      }
      re::Word w(static_cast<std::size_t>(n), 0);
      ++w[lu];
      ++w[lv];
      if (!problem.edge.containsWord(w)) {
        record(edge + ": " + problem.alphabet.name(lu) +
                   problem.alphabet.name(lv) + " not allowed",
               /*nodeSide=*/false);
      }
    }
  }
  return result;
}

std::vector<std::uint32_t> treeEdgeColoring(const CsrGraph& g) {
  std::vector<std::uint32_t> colors(g.numHalfEdges(), 0);
  // Ids grow away from the root, so a node's parent edge is colored before
  // the node colors its children.
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    const std::uint32_t first = v == 0 ? 0 : 1;
    if (v > 0 && (row.empty() || row[0] >= v)) {
      throw re::Error("treeEdgeColoring: port 0 must lead to the parent");
    }
    for (std::uint32_t p = first; p < row.size(); ++p) {
      const std::uint32_t i = p - first;
      const std::uint32_t color =
          v == 0 || i < colors[g.halfEdge(v, 0)] ? i : i + 1;
      colors[g.halfEdge(v, p)] = color;
      colors[g.halfEdge(row[p], 0)] = color;
    }
  }
  return colors;
}

bool isProperEdgeColoring(const CsrGraph& g,
                          std::span<const std::uint32_t> colors,
                          std::uint32_t numColors) {
  if (colors.size() != g.numHalfEdges()) return false;
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    std::vector<bool> seen(numColors, false);
    for (std::uint32_t p = 0; p < row.size(); ++p) {
      const std::uint32_t c = colors[g.halfEdge(v, p)];
      if (c >= numColors || seen[c]) return false;
      if (colors[g.halfEdge(row[p], g.portOf(row[p], v))] != c) return false;
      seen[c] = true;
    }
  }
  return true;
}

}  // namespace relb::local
