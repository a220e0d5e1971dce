#include "local/families.hpp"

#include "local/frontier.hpp"
#include "re/types.hpp"

namespace relb::local {

namespace {

/// splitmix64: the simulator's only randomness primitive.  A counter-based
/// generator (no sequential state) keeps generation order-free and the
/// kernels' per-(seed, round, vertex) priorities reproducible.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Vertex checkedNodeCount(std::uint64_t nodes) {
  if (nodes == 0) throw re::Error("makeTree: need at least one node");
  if (nodes >= kInvalidVertex) {
    throw re::Error("makeTree: too many nodes for uint32 ids");
  }
  return static_cast<Vertex>(nodes);
}

/// Uniform attachment draw: node v's candidate parent, an earlier node.
Vertex attachmentDraw(std::uint64_t seed, Vertex v) {
  return static_cast<Vertex>(splitmix64(seed ^ (0xa11ac4edull << 20) ^ v) % v);
}

/// Families whose parents[v] is a pure function of v: filled over the fixed
/// frontier blocks, so every width writes the same array.
template <typename ParentOf>
std::vector<Vertex> closedFormParents(Vertex n, int numThreads,
                                      ParentOf&& parentOf) {
  std::vector<Vertex> parents(n, 0);
  forBlocks(n, numThreads,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t v = begin == 0 ? 1 : begin; v < end; ++v) {
                parents[v] = parentOf(static_cast<Vertex>(v));
              }
            });
  return parents;
}

/// Capped uniform attachment: full candidates are skipped by a deterministic
/// downward probe (slightly non-uniform, but every probe sequence is a pure
/// function of the seed).  Serial by nature: whether node v's probe stops
/// depends on the degrees every earlier node's choice produced.
std::vector<Vertex> boundedAttachmentParents(Vertex n, std::uint32_t cap,
                                             std::uint64_t seed) {
  std::vector<Vertex> parents(n, 0);
  std::vector<std::uint32_t> degree(n, 0);
  for (Vertex v = 1; v < n; ++v) {
    Vertex u = attachmentDraw(seed, v);
    Vertex probes = 0;
    while (degree[u] >= cap && probes < v) {
      u = (u == 0) ? v - 1 : u - 1;
      ++probes;
    }
    if (degree[u] >= cap) {
      throw re::Error("makeTree: degree cap too low for node count");
    }
    parents[v] = u;
    ++degree[u];
    ++degree[v];
  }
  return parents;
}

/// Complete Delta-regular tree in BFS order: level sizes 1, Delta,
/// Delta(Delta-1), ...; generation stops at the requested node count, so the
/// last level may be partial (degrees stay <= Delta either way).  Nodes
/// 1..Delta hang off the root; from there every internal node gets Delta - 1
/// children, assigned in index order.
Vertex completeTreeParent(Vertex v, std::uint32_t delta) {
  if (v <= delta) return 0;
  return static_cast<Vertex>(1 + (std::uint64_t{v} - delta - 1) / (delta - 1));
}

}  // namespace

std::optional<Family> familyFromName(std::string_view name) {
  if (name == "random-tree") return Family::kRandomTree;
  if (name == "bounded-tree") return Family::kBoundedDegreeTree;
  if (name == "complete-tree") return Family::kCompleteTree;
  if (name == "path") return Family::kPath;
  if (name == "broom") return Family::kBroom;
  return std::nullopt;
}

const char* familyName(Family family) {
  switch (family) {
    case Family::kRandomTree: return "random-tree";
    case Family::kBoundedDegreeTree: return "bounded-tree";
    case Family::kCompleteTree: return "complete-tree";
    case Family::kPath: return "path";
    case Family::kBroom: return "broom";
  }
  return "?";
}

std::vector<Family> allFamilies() {
  return {Family::kRandomTree, Family::kBoundedDegreeTree,
          Family::kCompleteTree, Family::kPath, Family::kBroom};
}

std::vector<Vertex> makeParents(Family family, std::uint64_t nodes,
                                std::uint32_t maxDegree, std::uint64_t seed,
                                int numThreads) {
  const Vertex n = checkedNodeCount(nodes);
  switch (family) {
    case Family::kRandomTree:
      return closedFormParents(
          n, numThreads, [seed](Vertex v) { return attachmentDraw(seed, v); });
    case Family::kBoundedDegreeTree: {
      const std::uint32_t cap = maxDegree == 0 ? 8 : maxDegree;
      if (cap < 2) throw re::Error("makeTree: bounded-tree needs cap >= 2");
      return boundedAttachmentParents(n, cap, seed);
    }
    case Family::kCompleteTree: {
      const std::uint32_t delta = maxDegree == 0 ? 3 : maxDegree;
      if (delta < 2) throw re::Error("makeTree: complete-tree needs Delta >= 2");
      return closedFormParents(n, numThreads, [delta](Vertex v) {
        return completeTreeParent(v, delta);
      });
    }
    case Family::kPath:
      return closedFormParents(n, numThreads, [](Vertex v) { return v - 1; });
    case Family::kBroom: {
      const Vertex handle = n / 2 == 0 ? 1 : n / 2;
      return closedFormParents(n, numThreads, [handle](Vertex v) {
        return v < handle ? v - 1 : handle - 1;
      });
    }
  }
  throw re::Error("makeTree: unknown family");
}

TreeInstance makeTree(Family family, std::uint64_t nodes,
                      std::uint32_t maxDegree, std::uint64_t seed) {
  TreeInstance out;
  out.parents = makeParents(family, nodes, maxDegree, seed);
  out.graph = CsrGraph::fromParents(out.parents);
  return out;
}

std::uint64_t completeTreeNodes(std::uint32_t delta, std::uint32_t depth) {
  if (delta < 2) throw re::Error("completeTreeNodes: Delta >= 2 required");
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t total = 1;
  std::uint64_t level = 1;
  for (std::uint32_t d = 1; d <= depth && total < kMax; ++d) {
    const std::uint64_t fanout = d == 1 ? delta : delta - 1;
    level = level > kMax / fanout ? kMax : level * fanout;
    total = total > kMax - level ? kMax : total + level;
  }
  return total;
}

CsrGraph symmetricPortGadget(std::uint32_t delta) {
  if (delta < 2) throw re::Error("symmetricPortGadget: Delta >= 2 required");
  // Left nodes 0..delta-1, right nodes delta..2delta-1; edge {left i,
  // right j} has color (i + j) mod delta.  Listing the edges color-major
  // gives every node's port c the edge of color c at both endpoints.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex c = 0; c < delta; ++c) {
    for (Vertex i = 0; i < delta; ++i) {
      edges.emplace_back(i, delta + (c + delta - i) % delta);
    }
  }
  return CsrGraph::fromEdges(2 * delta, edges);
}

}  // namespace relb::local
