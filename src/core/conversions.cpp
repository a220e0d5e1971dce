#include "core/conversions.hpp"

#include <algorithm>

#include "local/verify.hpp"
#include "util/thread_pool.hpp"

namespace relb::core {

namespace {

using local::CsrGraph;
using local::HalfEdgeLabeling;
using local::Vertex;
using re::Count;
using re::Error;
using re::Label;

// Node v's labels, one per port.
std::span<Label> labelsAt(HalfEdgeLabeling& labeling, const CsrGraph& g,
                          Vertex v) {
  return {labeling.data() + g.halfEdge(v, 0), g.degree(v)};
}
std::span<const Label> labelsAt(const HalfEdgeLabeling& labeling,
                                const CsrGraph& g, Vertex v) {
  return {labeling.data() + g.halfEdge(v, 0), g.degree(v)};
}

// Flips labels equal to `from` into `to` until at most `keep` labels `from`
// remain (scanning ports in increasing order).
void reduceLabelCount(std::span<Label> labels, Label from, Label to,
                      Count keep) {
  Count seen = 0;
  for (Label& l : labels) {
    if (l == from && ++seen > keep) l = to;
  }
}

bool hasLabel(std::span<const Label> labels, Label l) {
  return std::find(labels.begin(), labels.end(), l) != labels.end();
}

void requireLabeling(const CsrGraph& g, const HalfEdgeLabeling& labeling,
                     const char* who) {
  if (labeling.size() != g.numHalfEdges()) {
    throw Error(std::string(who) + ": labeling size does not match half-edges");
  }
}

}  // namespace

HalfEdgeLabeling lemma5Labeling(const CsrGraph& g,
                                std::span<const std::uint8_t> inSet,
                                std::span<const std::uint8_t> outgoing,
                                Count k) {
  if (!local::csrIsKOutdegreeDominatingSet(g, inSet, outgoing,
                                           static_cast<int>(k),
                                           util::kSerialNumThreads)) {
    throw Error("lemma5Labeling: input is not a k-outdegree dominating set");
  }
  // The lemma's one round tells every node which neighbors are in S; the
  // labeling is then a purely local decision.
  HalfEdgeLabeling out(g.numHalfEdges());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    const auto labels = labelsAt(out, g, v);
    if (inSet[v] != 0) {
      // Dominating-set node: X on edges oriented away from v inside G[S],
      // M elsewhere; then pad with X to reach exactly k labels X.
      Count xCount = 0;
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        const bool away =
            inSet[row[p]] != 0 && outgoing[g.halfEdge(v, p)] != 0;
        labels[p] = away ? kX : kM;
        xCount += away ? 1 : 0;
      }
      for (Label& l : labels) {
        if (xCount >= k) break;
        if (l == kM) {
          l = kX;
          ++xCount;
        }
      }
    } else {
      // Point P at the first dominating neighbor, O elsewhere.
      bool pointed = false;
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        const bool point = !pointed && inSet[row[p]] != 0;
        labels[p] = point ? kP : kO;
        pointed = pointed || point;
      }
    }
  }
  return out;
}

HalfEdgeLabeling lemma9Convert(const CsrGraph& g,
                               std::span<const std::uint32_t> edgeColors,
                               const HalfEdgeLabeling& plusLabeling, Count a,
                               Count x) {
  if (2 * x + 1 > a) throw Error("lemma9Convert: need 2x + 1 <= a");
  if (edgeColors.size() != g.numHalfEdges()) {
    throw Error("lemma9Convert: edge coloring required");
  }
  requireLabeling(g, plusLabeling, "lemma9Convert");
  const Count lowColors = (a - 1) / 2;  // paper's colors {1 .. floor((a-1)/2)}
  const Count aNew = (a - 2 * x - 1) / 2;

  HalfEdgeLabeling out = plusLabeling;
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto in = labelsAt(plusLabeling, g, v);
    const auto labels = labelsAt(out, g, v);
    const auto low = [&](std::uint32_t p) {
      return edgeColors[g.halfEdge(v, p)] < lowColors;
    };
    if (hasLabel(in, kC)) {
      // Write A on low-colored edges currently labeled C, X on all others;
      // then trim to exactly aNew labels A.
      for (std::uint32_t p = 0; p < labels.size(); ++p) {
        labels[p] = low(p) && in[p] == kC ? kA : kX;
      }
      reduceLabelCount(labels, kA, kX, aNew);
    } else if (hasLabel(in, kA)) {
      // Drop A from low-colored edges, then trim to exactly aNew labels A.
      for (std::uint32_t p = 0; p < labels.size(); ++p) {
        if (low(p) && in[p] == kA) labels[p] = kX;
      }
      reduceLabelCount(labels, kA, kX, aNew);
    }
    // M-nodes and P-nodes keep their output unchanged.
  }
  return out;
}

HalfEdgeLabeling lemma11Relax(const CsrGraph& g,
                              const HalfEdgeLabeling& labeling, Count aFrom,
                              Count xFrom, Count aTo, Count xTo) {
  if (aTo > aFrom || xTo < xFrom) {
    throw Error("lemma11Relax: need aTo <= aFrom and xTo >= xFrom");
  }
  requireLabeling(g, labeling, "lemma11Relax");
  HalfEdgeLabeling out = labeling;
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto labels = labelsAt(out, g, v);
    if (hasLabel(labels, kM)) {
      // M^{deg - xFrom} X^{xFrom} -> M^{deg - xTo} X^{xTo}.
      reduceLabelCount(labels, kM, kX,
                       std::max<Count>(0, Count{g.degree(v)} - xTo));
    } else if (hasLabel(labels, kA)) {
      reduceLabelCount(labels, kA, kX, aTo);
    }
  }
  return out;
}

HalfEdgeLabeling syntheticPlusLabelingAlternating(const CsrGraph& g, Count a,
                                                  Count x) {
  if (a < x + 1) throw Error("syntheticPlusLabelingAlternating: need a >= x+1");
  // A tree has n - 1 edges, and a BFS from node 0 reaches every node.
  const auto notTree = [] {
    return Error("syntheticPlusLabelingAlternating: tree required");
  };
  if (g.numNodes() == 0 ||
      g.numHalfEdges() != 2 * (std::uint64_t{g.numNodes()} - 1)) {
    throw notTree();
  }
  std::vector<int> depth(g.numNodes(), -1);
  std::vector<Vertex> queue{0};
  depth[0] = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const Vertex w : g.neighbors(queue[i])) {
      if (depth[w] < 0) {
        depth[w] = depth[queue[i]] + 1;
        queue.push_back(w);
      }
    }
  }
  if (queue.size() != g.numNodes()) throw notTree();
  HalfEdgeLabeling out(g.numHalfEdges());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto labels = labelsAt(out, g, v);
    if (depth[v] % 2 == 0) {
      // C^{deg - x} X^x.
      std::fill(labels.begin(), labels.end(), kC);
      reduceLabelCount(labels, kC, kX,
                       std::max<Count>(0, Count{g.degree(v)} - x));
    } else {
      // A^{a-x-1} X^{rest}.
      for (std::uint32_t p = 0; p < labels.size(); ++p) {
        labels[p] = Count{p} < a - x - 1 ? kA : kX;
      }
    }
  }
  return out;
}

HalfEdgeLabeling plusFromFamilyLabeling(const CsrGraph& g,
                                        const HalfEdgeLabeling& labeling,
                                        Count a, Count x) {
  requireLabeling(g, labeling, "plusFromFamilyLabeling");
  HalfEdgeLabeling out = labeling;
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto labels = labelsAt(out, g, v);
    if (hasLabel(labels, kM)) {
      // M^{deg-x} X^x -> M^{deg-x-1} X^{x+1}.
      reduceLabelCount(labels, kM, kX,
                       std::max<Count>(0, Count{g.degree(v)} - x - 1));
    } else if (hasLabel(labels, kA)) {
      // A^a X^{deg-a} -> A^{a-x-1} X^{deg-a+x+1}.
      reduceLabelCount(labels, kA, kX, a - x - 1);
    }
  }
  return out;
}

}  // namespace relb::core
