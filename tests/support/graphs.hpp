// Small CsrGraph instances for the gadget-sized tests: trees come from a
// parent array (a literal one or a family's), cycles from an edge list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "local/csr.hpp"
#include "local/families.hpp"

namespace relb::testsupport {

using local::CsrGraph;
using local::Vertex;

inline CsrGraph treeOf(const std::vector<Vertex>& parents) {
  return CsrGraph::fromParents(parents, 1);
}

inline std::vector<Vertex> familyParents(local::Family family, std::uint64_t n,
                                         std::uint32_t maxDegree = 0,
                                         std::uint64_t seed = 0) {
  return local::makeParents(family, n, maxDegree, seed, 1);
}

/// Complete Delta-regular tree with leaves at distance `depth` from node 0.
inline CsrGraph completeTree(std::uint32_t delta, std::uint32_t depth) {
  return treeOf(familyParents(local::Family::kCompleteTree,
                              local::completeTreeNodes(delta, depth), delta));
}

/// Random tree with degrees <= maxDegree (the bounded-tree family).
inline CsrGraph randomTree(Vertex n, std::uint32_t maxDegree,
                           std::uint64_t seed) {
  return treeOf(
      familyParents(local::Family::kBoundedDegreeTree, n, maxDegree, seed));
}

inline CsrGraph pathGraph(Vertex n) {
  return treeOf(familyParents(local::Family::kPath, n));
}

/// Star: node 0 with `leaves` leaves.
inline CsrGraph starGraph(Vertex leaves) {
  return treeOf(std::vector<Vertex>(leaves + 1, 0));
}

/// A path 0..handle-1 whose last node carries `bristles` extra leaves.
inline CsrGraph broomGraph(Vertex handle, Vertex bristles) {
  std::vector<Vertex> parents(handle + bristles, handle - 1);
  for (Vertex v = 0; v < handle; ++v) parents[v] = v == 0 ? 0 : v - 1;
  return treeOf(parents);
}

/// Cycle 0-1-...-(n-1)-0; node v's ports lead to v-1 and v+1 (node 0: 1,
/// then n-1).
inline CsrGraph cycleGraph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return CsrGraph::fromEdges(n, edges);
}

/// The tree of `parents` with every node's port order randomized -- the
/// adversary's power in the PN model -- by shuffling the edge list.
inline CsrGraph shuffledTree(const std::vector<Vertex>& parents,
                             std::mt19937& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < parents.size(); ++v) edges.emplace_back(parents[v], v);
  std::shuffle(edges.begin(), edges.end(), rng);
  return CsrGraph::fromEdges(static_cast<Vertex>(parents.size()), edges);
}

/// A set or orientation byte vector from a '0'/'1' string.
inline std::vector<std::uint8_t> bits(const std::string& s) {
  std::vector<std::uint8_t> out;
  for (const char c : s) out.push_back(c == '1' ? 1 : 0);
  return out;
}

inline std::size_t count(const std::vector<std::uint8_t>& set) {
  return static_cast<std::size_t>(std::count(set.begin(), set.end(), 1));
}

}  // namespace relb::testsupport
