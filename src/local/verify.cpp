#include "local/verify.hpp"

#include <algorithm>

#include "re/types.hpp"
#include "util/thread_pool.hpp"

namespace relb::local {

namespace {

void requireCsrSize(const CsrGraph& g, std::size_t slots, const char* what) {
  if (slots != g.numNodes()) {
    throw re::Error(std::string("verify: ") + what +
                    " size does not match node count");
  }
}

/// AND of perNode(v) over all vertices, swept in parallel chunks.  The
/// accumulator is uint8_t, not bool: parallel_reduce stores parts in a
/// std::vector<T>, and vector<bool>'s proxy references don't bind.
template <typename PerNode>
bool allNodes(const CsrGraph& g, int numThreads, PerNode&& perNode) {
  return util::parallel_reduce<std::uint8_t>(
             numThreads, g.numNodes(), 1,
             [&](std::size_t begin, std::size_t end) -> std::uint8_t {
               for (std::size_t v = begin; v < end; ++v) {
                 if (!perNode(static_cast<Vertex>(v))) return 0;
               }
               return 1;
             },
             [](std::uint8_t acc, std::uint8_t part) -> std::uint8_t {
               return acc & part;
             }) != 0;
}

/// Max of perNode(v) over all vertices (0 for none); a -1 from any vertex
/// makes the result -1.
template <typename PerNode>
int maxNodes(const CsrGraph& g, int numThreads, PerNode&& perNode) {
  return util::parallel_reduce<int>(
      numThreads, g.numNodes(), 0,
      [&](std::size_t begin, std::size_t end) {
        int best = 0;
        for (std::size_t v = begin; v < end; ++v) {
          const int d = perNode(static_cast<Vertex>(v));
          if (d < 0) return -1;
          best = std::max(best, d);
        }
        return best;
      },
      [](int acc, int part) {
        return acc < 0 || part < 0 ? -1 : std::max(acc, part);
      });
}

/// Number of neighbors w of v with same(w).
template <typename Same>
int sameDegree(const CsrGraph& g, Vertex v, Same&& same) {
  int d = 0;
  for (const Vertex w : g.neighbors(v)) d += same(w) ? 1 : 0;
  return d;
}

/// Number of outgoing half-edges from v to neighbors w with same(w); -1 if
/// one of those edges is not marked at exactly one end.
template <typename Same>
int sameOutdegree(const CsrGraph& g, std::span<const std::uint8_t> outgoing,
                  Vertex v, Same&& same) {
  int d = 0;
  const auto row = g.neighbors(v);
  for (std::uint32_t p = 0; p < row.size(); ++p) {
    const Vertex w = row[p];
    if (!same(w)) continue;
    const bool out = outgoing[g.halfEdge(v, p)] != 0;
    if (out == (outgoing[g.halfEdge(w, g.portOf(w, v))] != 0)) return -1;
    d += out ? 1 : 0;
  }
  return d;
}

void requireHalfEdgeSize(const CsrGraph& g, std::size_t slots) {
  if (slots != g.numHalfEdges()) {
    throw re::Error("verify: orientation size does not match half-edge count");
  }
}

bool dominates(const CsrGraph& g, std::span<const std::uint8_t> inSet,
               int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  return allNodes(g, numThreads, [&](Vertex v) {
    const auto row = g.neighbors(v);
    return inSet[v] != 0 || std::any_of(row.begin(), row.end(), [&](Vertex w) {
             return inSet[w] != 0;
           });
  });
}

}  // namespace

bool csrIsIndependentSet(const CsrGraph& g, std::span<const MisFlag> state,
                         int numThreads) {
  requireCsrSize(g, state.size(), "state");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (state[v] == MisFlag::kUndecided) return false;
    if (state[v] != MisFlag::kIn) return true;
    for (const Vertex w : g.neighbors(v)) {
      if (state[w] == MisFlag::kIn) return false;
    }
    return true;
  });
}

bool csrIsDominatingSet(const CsrGraph& g, std::span<const MisFlag> state,
                        int numThreads) {
  requireCsrSize(g, state.size(), "state");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (state[v] == MisFlag::kUndecided) return false;
    if (state[v] != MisFlag::kOut) return true;
    for (const Vertex w : g.neighbors(v)) {
      if (state[w] == MisFlag::kIn) return true;
    }
    return false;
  });
}

bool csrIsMaximalIndependentSet(const CsrGraph& g,
                                std::span<const MisFlag> state,
                                int numThreads) {
  return csrIsIndependentSet(g, state, numThreads) &&
         csrIsDominatingSet(g, state, numThreads);
}

bool csrIsProperColoring(const CsrGraph& g,
                         std::span<const std::uint32_t> colors,
                         std::uint32_t numColors, int numThreads) {
  requireCsrSize(g, colors.size(), "colors");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (colors[v] >= numColors) return false;
    for (const Vertex w : g.neighbors(v)) {
      if (colors[w] == colors[v]) return false;
    }
    return true;
  });
}

bool csrIsZeroOutdegreeDominatingSet(const CsrGraph& g,
                                     std::span<const std::uint8_t> inSet,
                                     std::span<const Vertex> dominator,
                                     int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  requireCsrSize(g, dominator.size(), "dominator");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (inSet[v] != 0) {
      // Members must certify themselves and induce no G[S] edge (outdegree 0
      // under the empty orientation needs G[S] edgeless).
      if (dominator[v] != v) return false;
      for (const Vertex w : g.neighbors(v)) {
        if (inSet[w] != 0) return false;
      }
      return true;
    }
    const Vertex d = dominator[v];
    if (d == kInvalidVertex || d >= g.numNodes() || inSet[d] == 0) return false;
    for (const Vertex w : g.neighbors(v)) {
      if (w == d) return true;
    }
    return false;
  });
}

int csrInducedMaxDegree(const CsrGraph& g, std::span<const std::uint8_t> inSet,
                        int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  return maxNodes(g, numThreads, [&](Vertex v) {
    if (inSet[v] == 0) return 0;
    return sameDegree(g, v, [&](Vertex w) { return inSet[w] != 0; });
  });
}

int csrInducedMaxOutdegree(const CsrGraph& g,
                           std::span<const std::uint8_t> inSet,
                           std::span<const std::uint8_t> outgoing,
                           int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  requireHalfEdgeSize(g, outgoing.size());
  return maxNodes(g, numThreads, [&](Vertex v) {
    if (inSet[v] == 0) return 0;
    return sameOutdegree(g, outgoing, v,
                         [&](Vertex w) { return inSet[w] != 0; });
  });
}

int csrDefect(const CsrGraph& g, std::span<const std::uint32_t> colors,
              int numThreads) {
  requireCsrSize(g, colors.size(), "colors");
  return maxNodes(g, numThreads, [&](Vertex v) {
    return sameDegree(g, v, [&](Vertex w) { return colors[w] == colors[v]; });
  });
}

int csrArbdefect(const CsrGraph& g, std::span<const std::uint32_t> colors,
                 std::span<const std::uint8_t> outgoing, int numThreads) {
  requireCsrSize(g, colors.size(), "colors");
  requireHalfEdgeSize(g, outgoing.size());
  return maxNodes(g, numThreads, [&](Vertex v) {
    return sameOutdegree(g, outgoing, v,
                         [&](Vertex w) { return colors[w] == colors[v]; });
  });
}

bool csrIsKDegreeDominatingSet(const CsrGraph& g,
                               std::span<const std::uint8_t> inSet, int k,
                               int numThreads) {
  return dominates(g, inSet, numThreads) &&
         csrInducedMaxDegree(g, inSet, numThreads) <= k;
}

bool csrIsKOutdegreeDominatingSet(const CsrGraph& g,
                                  std::span<const std::uint8_t> inSet,
                                  std::span<const std::uint8_t> outgoing,
                                  int k, int numThreads) {
  if (!dominates(g, inSet, numThreads)) return false;
  const int out = csrInducedMaxOutdegree(g, inSet, outgoing, numThreads);
  return out >= 0 && out <= k;
}

std::vector<std::uint8_t> orientInduced(const CsrGraph& g,
                                        std::span<const std::uint8_t> inSet) {
  requireCsrSize(g, inSet.size(), "inSet");
  std::vector<std::uint8_t> outgoing(g.numHalfEdges(), 0);
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    for (std::uint32_t p = 0; p < row.size(); ++p) {
      outgoing[g.halfEdge(v, p)] =
          inSet[v] != 0 && inSet[row[p]] != 0 && v < row[p];
    }
  }
  return outgoing;
}

}  // namespace relb::local
