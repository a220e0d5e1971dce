#include "local/upper_bounds.hpp"

#include <algorithm>
#include <limits>

#include "re/types.hpp"

namespace relb::local {

namespace {

inline constexpr std::uint32_t kNoColor = 0xffffffffu;

// Evaluates the polynomial whose base-q digits are `color` at point x, over
// F_q.
std::uint64_t evalPoly(std::uint64_t color, std::uint64_t q, std::uint64_t x) {
  std::uint64_t value = 0;
  std::uint64_t power = 1;
  while (color > 0) {
    value = (value + (color % q) * power) % q;
    power = (power * x) % q;
    color /= q;
  }
  return value;
}

// Degree of the base-q encoding of colors < m (number of digits - 1).
std::uint64_t polyDegree(std::uint64_t m, std::uint64_t q) {
  std::uint64_t digits = 1;
  for (std::uint64_t cap = q; cap < m; cap *= q) ++digits;
  return digits - 1;
}

// color = a + b*q encodes the polynomial a + b*X over F_q.
std::uint64_t evalLinear(std::uint64_t color, std::uint64_t q,
                         std::uint64_t x) {
  return (color % q + color / q * x) % q;
}

void requireK(int k, const char* who) {
  if (k < 0) throw re::Error(std::string(who) + ": k must be >= 0");
}

// Sweeps color classes: class-c nodes with no neighbor in the set join it.
// Returns the rounds used (= number of classes).
int sweepClasses(const CsrGraph& g, const ColorRun& classes,
                 std::vector<std::uint8_t>& inSet) {
  inSet.assign(g.numNodes(), 0);
  for (std::uint32_t c = 0; c < classes.numColors; ++c) {
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      if (classes.colors[v] != c) continue;
      const auto row = g.neighbors(v);
      inSet[v] = std::none_of(row.begin(), row.end(),
                              [&](Vertex w) { return inSet[w] != 0; });
    }
  }
  return static_cast<int>(classes.numColors);
}

}  // namespace

std::uint64_t nextPrime(std::uint64_t v) {
  if (v <= 2) return 2;
  for (std::uint64_t c = v % 2 == 0 ? v + 1 : v;; c += 2) {
    bool prime = true;
    for (std::uint64_t d = 3; d * d <= c && prime; d += 2) prime = c % d != 0;
    if (prime) return c;
  }
}

ColorRun linialStep(const CsrGraph& g, std::span<const std::uint32_t> color,
                    std::uint32_t m) {
  const std::uint64_t delta = std::max<std::uint32_t>(1, g.maxDegree());
  // Smallest prime q such that colors < m fit into degree-d polynomials with
  // q > delta * d (then some evaluation point separates a node from all
  // neighbors).
  std::uint64_t q = 2;
  while (true) {
    q = nextPrime(q);
    if (q > delta * polyDegree(m, q)) break;
    ++q;
  }

  // One round: every node learns its neighbors' colors and picks the first
  // separating point.
  ColorRun result;
  result.colors.resize(g.numNodes());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const std::uint64_t mine = color[v];
    const auto separates = [&](std::uint64_t x) {
      for (const Vertex w : g.neighbors(v)) {
        // Equal colors (an improper input) cannot be separated.
        if (color[w] == mine ||
            evalPoly(color[w], q, x) == evalPoly(mine, q, x)) {
          return false;
        }
      }
      return true;
    };
    std::uint64_t x = 0;
    while (x < q && !separates(x)) ++x;
    if (x == q) {
      throw re::Error("linialStep: no separating point (improper input?)");
    }
    result.colors[v] = static_cast<std::uint32_t>(x * q + evalPoly(mine, q, x));
  }
  result.numColors = static_cast<std::uint32_t>(q * q);
  result.rounds = 1;
  return result;
}

ColorRun linialColorReduction(const CsrGraph& g) {
  ColorRun current;
  current.colors.resize(g.numNodes());
  for (Vertex v = 0; v < g.numNodes(); ++v) current.colors[v] = v;
  current.numColors = g.numNodes();
  while (true) {
    ColorRun next = linialStep(g, current.colors, current.numColors);
    if (next.numColors >= current.numColors) break;  // fixed point reached
    next.rounds += current.rounds;
    current = std::move(next);
  }
  return current;
}

ColorRun reduceToDeltaPlusOne(const CsrGraph& g, ColorRun start) {
  const std::uint32_t target = g.maxDegree() + 1;
  ColorRun current = std::move(start);
  while (current.numColors > target) {
    const std::uint32_t top = current.numColors - 1;
    // One round: top-class nodes (an independent set, so they may recolor
    // simultaneously) take the smallest color no neighbor holds.
    std::vector<std::uint32_t> next = current.colors;
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      if (current.colors[v] != top) continue;
      std::vector<bool> used(target, false);
      for (const Vertex w : g.neighbors(v)) {
        if (current.colors[w] < target) used[current.colors[w]] = true;
      }
      next[v] = static_cast<std::uint32_t>(
          std::find(used.begin(), used.end(), false) - used.begin());
    }
    current.colors = std::move(next);
    --current.numColors;
    ++current.rounds;
  }
  return current;
}

ColorRun properColoring(const CsrGraph& g) {
  return reduceToDeltaPlusOne(g, linialColorReduction(g));
}

ColorRun kDefectiveColoring(const CsrGraph& g, const ColorRun& proper, int k) {
  requireK(k, "kDefectiveColoring");
  const std::uint64_t delta = std::max<std::uint32_t>(1, g.maxDegree());
  // q prime with q >= Delta/(k+1)+1 (so the defect Delta/q lands at <= k)
  // and q^2 >= numColors (so linear polynomials encode every input color).
  std::uint64_t q = std::max<std::uint64_t>(2, delta / (k + 1) + 1);
  while (q * q < proper.numColors) ++q;
  q = nextPrime(q);

  // One round: every node knows its neighbors' proper colors and keeps the
  // evaluation point with the fewest polynomial agreements.
  ColorRun result;
  result.colors.resize(g.numNodes());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const std::uint64_t mine = proper.colors[v];
    std::uint64_t bestX = 0;
    int bestAgreements = std::numeric_limits<int>::max();
    for (std::uint64_t x = 0; x < q; ++x) {
      int agreements = 0;
      for (const Vertex w : g.neighbors(v)) {
        agreements += evalLinear(proper.colors[w], q, x) ==
                      evalLinear(mine, q, x);
      }
      if (agreements < bestAgreements) {
        bestAgreements = agreements;
        bestX = x;
      }
    }
    result.colors[v] =
        static_cast<std::uint32_t>(bestX * q + evalLinear(mine, q, bestX));
  }
  result.numColors = static_cast<std::uint32_t>(q * q);
  result.rounds = 1;
  return result;
}

ArbdefectiveRun kArbdefectiveColoring(const CsrGraph& g,
                                      const ColorRun& proper, int k) {
  requireK(k, "kArbdefectiveColoring");
  const std::uint32_t delta = std::max<std::uint32_t>(1, g.maxDegree());
  const std::uint32_t kk = static_cast<std::uint32_t>(k);
  const std::uint32_t bins = (delta + 1 + kk) / (kk + 1);

  ArbdefectiveRun result;
  std::vector<std::uint32_t>& color = result.classes.colors;
  color.assign(g.numNodes(), kNoColor);
  result.classes.numColors = bins;
  result.outgoing.assign(g.numHalfEdges(), 0);
  // One round per proper color class: members (an independent set) pick the
  // bin least used among already-processed neighbors and orient intra-bin
  // edges towards those neighbors.
  for (std::uint32_t c = 0; c < proper.numColors; ++c) {
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      if (proper.colors[v] != c) continue;
      const auto row = g.neighbors(v);
      std::vector<int> load(bins, 0);
      for (const Vertex w : row) {
        if (color[w] != kNoColor) ++load[color[w]];
      }
      const std::uint32_t bin = static_cast<std::uint32_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      color[v] = bin;
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        if (color[row[p]] == bin) result.outgoing[g.halfEdge(v, p)] = 1;
      }
    }
    ++result.classes.rounds;
  }
  return result;
}

DomSetResult misFromColoring(const CsrGraph& g) {
  const ColorRun proper = properColoring(g);
  DomSetResult result;
  result.roundsColoring = proper.rounds;
  result.roundsSweep = sweepClasses(g, proper, result.inSet);
  result.outgoing.assign(g.numHalfEdges(), 0);
  return result;
}

DomSetResult kOutdegreeDominatingSet(const CsrGraph& g, int k) {
  requireK(k, "kOutdegreeDominatingSet");
  if (k == 0) return misFromColoring(g);
  const ColorRun proper = properColoring(g);
  ArbdefectiveRun arb = kArbdefectiveColoring(g, proper, k);
  DomSetResult result;
  result.roundsColoring = proper.rounds;
  result.roundsDefective = arb.classes.rounds;
  result.roundsSweep = sweepClasses(g, arb.classes, result.inSet);
  // The arbdefective orientation restricted to G[S] witnesses outdegree <= k:
  // intra-S edges always join same-class nodes (a later class member never
  // joins next to an existing S node).
  result.outgoing = std::move(arb.outgoing);
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    for (std::uint32_t p = 0; p < row.size(); ++p) {
      if (result.inSet[v] == 0 || result.inSet[row[p]] == 0) {
        result.outgoing[g.halfEdge(v, p)] = 0;
      }
    }
  }
  return result;
}

DomSetResult kDegreeDominatingSet(const CsrGraph& g, int k) {
  requireK(k, "kDegreeDominatingSet");
  if (k == 0) return misFromColoring(g);
  const ColorRun proper = properColoring(g);
  const ColorRun def = kDefectiveColoring(g, proper, k);
  DomSetResult result;
  result.roundsColoring = proper.rounds;
  result.roundsDefective = def.rounds;
  result.roundsSweep = sweepClasses(g, def, result.inSet);
  result.outgoing.assign(g.numHalfEdges(), 0);
  return result;
}

std::vector<std::uint8_t> greedyMis(const CsrGraph& g) {
  std::vector<std::uint8_t> inSet(g.numNodes(), 0);
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    inSet[v] = std::none_of(row.begin(), row.end(),
                            [&](Vertex w) { return inSet[w] != 0; });
  }
  return inSet;
}

std::vector<std::uint8_t> greedyDominatingSet(const CsrGraph& g) {
  // Classic greedy: repeatedly take the node covering the most uncovered
  // nodes (the lowest id among ties).
  std::vector<std::uint8_t> inSet(g.numNodes(), 0);
  std::vector<std::uint8_t> covered(g.numNodes(), 0);
  const auto gain = [&](Vertex v) {
    int t = covered[v] == 0 ? 1 : 0;
    for (const Vertex w : g.neighbors(v)) t += covered[w] == 0 ? 1 : 0;
    return t;
  };
  while (true) {
    Vertex best = kInvalidVertex;
    int bestGain = 0;
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      if (inSet[v] != 0) continue;
      const int t = gain(v);
      if (t > bestGain) {
        bestGain = t;
        best = v;
      }
    }
    if (best == kInvalidVertex) break;
    inSet[best] = 1;
    covered[best] = 1;
    for (const Vertex w : g.neighbors(best)) covered[w] = 1;
  }
  return inSet;
}

}  // namespace relb::local
