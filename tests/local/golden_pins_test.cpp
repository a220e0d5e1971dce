// Golden pins for the Section 1.1 algorithms and the Lemma 5/9/11
// conversions on CsrGraph.  Every expected value below was recorded at commit
// e81eacb from the adjacency-list implementation of the same algorithms, on
// graphs that both build with identical node ids and port order: complete
// Delta-regular trees and paths (CsrGraph::fromParents over the complete-tree
// and path families), a cycle and the K_{Delta,Delta} gadget
// (CsrGraph::fromEdges).  The pins cover the colorings, the (arb)defective
// classes and orientation, the dominating sets, the round count of every
// stage and the conversions' labelings.
//
// Encoding: colorings are "colors / numColors / rounds"; sets are one
// '0'/'1' per node; orientations one '0'/'1' per half-edge (1 = outgoing) in
// half-edge order; dominating sets are "set / rounds of the coloring,
// (arb)defective and sweep stages [/ orientation]"; labelings are one
// letter per half-edge (M P O A X C).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/conversions.hpp"
#include "local/families.hpp"
#include "local/halfedge.hpp"
#include "local/upper_bounds.hpp"
#include "support/graphs.hpp"

namespace relb::local {
namespace {

using Pins = std::vector<std::pair<std::string, std::string>>;

enum class Colors { kNone, kTree, kPort };

std::string joined(const std::vector<std::uint32_t>& values) {
  std::string s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += (i > 0 ? " " : "") + std::to_string(values[i]);
  }
  return s;
}

std::string bitString(const std::vector<std::uint8_t>& bytes) {
  std::string s;
  for (const std::uint8_t b : bytes) s += b != 0 ? '1' : '0';
  return s;
}

std::string letters(const HalfEdgeLabeling& labeling) {
  std::string s;
  for (const re::Label l : labeling) s += "MPOAXC"[l];
  return s;
}

std::string coloring(const ColorRun& run) {
  return joined(run.colors) + " / " + std::to_string(run.numColors) + " / " +
         std::to_string(run.rounds);
}

std::string domset(const DomSetResult& ds) {
  return bitString(ds.inSet) + " / " + std::to_string(ds.roundsColoring) +
         " " + std::to_string(ds.roundsDefective) + " " +
         std::to_string(ds.roundsSweep);
}

/// Every pinned output of `g`, in recording order.
Pins outputsOf(const CsrGraph& g, Colors colors) {
  const re::Count delta = g.maxDegree();
  Pins out;
  out.emplace_back("linial", coloring(linialColorReduction(g)));
  const ColorRun proper = properColoring(g);
  out.emplace_back("proper", coloring(proper));
  out.emplace_back("defective1", coloring(kDefectiveColoring(g, proper, 1)));
  const ArbdefectiveRun arb = kArbdefectiveColoring(g, proper, 1);
  out.emplace_back("arbdefective1",
                   coloring(arb.classes) + " / " + bitString(arb.outgoing));
  out.emplace_back("mis", domset(misFromColoring(g)));
  const DomSetResult kout = kOutdegreeDominatingSet(g, 1);
  out.emplace_back("kout1", domset(kout) + " / " + bitString(kout.outgoing));
  const DomSetResult kout2 = kOutdegreeDominatingSet(g, 2);
  out.emplace_back("kout2", domset(kout2) + " / " + bitString(kout2.outgoing));
  out.emplace_back("kdeg1", domset(kDegreeDominatingSet(g, 1)));
  out.emplace_back("greedyMis", bitString(greedyMis(g)));
  out.emplace_back("greedyDs", bitString(greedyDominatingSet(g)));
  const HalfEdgeLabeling l5 = core::lemma5Labeling(g, kout.inSet,
                                                   kout.outgoing, 1);
  out.emplace_back("lemma5", letters(l5));
  out.emplace_back("lemma11",
                   letters(core::lemma11Relax(g, l5, delta, 1, 1, 2)));
  std::vector<std::uint32_t> edgeColors;
  if (colors == Colors::kTree) edgeColors = treeEdgeColoring(g);
  if (colors == Colors::kPort) {
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      for (std::uint32_t p = 0; p < g.degree(v); ++p) edgeColors.push_back(p);
    }
  }
  if (colors != Colors::kNone && delta >= 3) {
    const HalfEdgeLabeling plus =
        core::plusFromFamilyLabeling(g, l5, delta, 1);
    out.emplace_back("plus", letters(plus));
    out.emplace_back(
        "lemma9", letters(core::lemma9Convert(g, edgeColors, plus, delta, 1)));
  }
  if (colors == Colors::kTree) {
    const re::Count x = delta >= 3 ? 1 : 0;
    const HalfEdgeLabeling syn =
        core::syntheticPlusLabelingAlternating(g, delta, x);
    out.emplace_back("synthetic", letters(syn));
    out.emplace_back("syntheticLemma9", letters(core::lemma9Convert(
                                            g, edgeColors, syn, delta, x)));
  }
  return out;
}

void expectPins(const CsrGraph& g, Colors colors, const Pins& want) {
  const Pins got = outputsOf(g, colors);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
  }
}

using testsupport::completeTree;

TEST(GoldenPins, CompleteTreeDelta3Depth5) {
  expectPins(completeTree(3, 5), Colors::kTree, {
    {"linial",
     "0 1 2 3 18 12 6 0 1 2 3 12 13 6 0 1 2 3 13 7 6 0 1 2 3 7 8 6"
     " 0 1 2 3 8 24 6 0 1 2 3 14 15 6 0 1 2 3 4 5 6 0 1 2 3 12 13 "
     "6 0 1 2 3 4 5 6 0 1 2 3 7 8 6 0 1 2 3 4 5 6 0 1 2 3 16 17 6 "
     "0 1 2 3 4 5 6 0 1 2 / 49 / 1"},
    {"proper",
     "0 1 2 3 0 2 3 0 1 2 3 1 0 3 0 1 2 3 0 0 3 0 1 2 3 2 1 2 0 1 "
     "2 3 0 0 3 0 1 2 3 1 1 2 0 1 2 3 0 0 0 0 1 2 3 0 0 0 0 1 2 3 "
     "0 0 0 0 1 2 3 1 1 1 0 1 2 3 0 0 0 0 1 2 3 0 0 0 0 1 2 3 0 0 "
     "0 0 1 2 / 4 / 46"},
    {"defective1",
     "0 1 3 1 0 0 1 2 3 3 1 1 2 1 0 3 3 1 0 2 1 2 3 3 2 0 1 3 0 3 "
     "3 1 0 0 1 2 3 3 1 3 1 3 0 3 3 1 0 0 2 2 3 0 1 2 0 0 2 1 3 1 "
     "0 0 2 2 3 0 1 1 1 1 0 3 3 1 0 0 2 2 3 0 2 0 0 0 2 1 3 1 0 0 "
     "2 2 3 0 / 4 / 1"},
    {"arbdefective1",
     "0 1 1 0 0 0 0 0 1 1 0 1 0 1 0 1 1 0 0 0 0 0 1 1 1 0 1 1 0 1 "
     "1 1 0 0 1 0 1 1 1 1 1 1 0 1 1 1 0 0 0 0 0 0 1 0 0 0 0 0 1 1 "
     "0 0 0 0 0 0 1 1 1 1 0 0 1 1 0 0 0 0 0 0 0 0 0 0 0 0 1 1 0 0 "
     "0 0 0 0 / 2 / 4 / 000000000100000010010000000000100000000001"
     "000000000100000000010000000000100001000000000000000000000000"
     "100000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000"},
    {"mis",
     "100010010000101000110100000010001101000000100011111111111100"
     "1111110000110011111111111100111111 / 46 0 4"},
    {"kout1",
     "100011110000000000111100010010001101000000000011111100111100"
     "1111110000110011111111111111111111 / 46 4 2 / 00000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000"},
    {"kout2",
     "100011110000000000111100010010001101000000000011111100111100"
     "1111110000110011111111111111111111 / 46 4 2 / 00000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000"},
    {"kdeg1",
     "100011000000001011110100010010001100000000100011111100111100"
     "1111110000111111111111111100111111 / 46 1 4"},
    {"greedyMis",
     "100011111100000000000011111111111111111111111100000000000000"
     "0000000000000000000000000000000000"},
    {"greedyDs",
     "100000000010101010101011111111111111111111111100000000000000"
     "0000000000000000000000000000000000"},
    {"lemma5",
     "XMMPOOPOOPOOXMMXMMXMMXMMOPOOPOPOOPOOPOOPOOPOOPOOPOOPOOXMMXMM"
     "XMMXMMOPOOPOOPOXMMOPOOPOXMMOPOOPOOPOXMMXMMOPOXMMOPOOPOPOOPOO"
     "POOPOOPOOPOOPOOPOOXXXXXXPPXXXXPPXXXXXXPPPPXXPPXXXXXXXXXXXXXX"
     "XXXXXX"},
    {"lemma11",
     "XMXPOOPOOPOOXMXXMXXMXXMXOPOOPOPOOPOOPOOPOOPOOPOOPOOPOOXMXXMX"
     "XMXXMXOPOOPOOPOXMXOPOOPOXMXOPOOPOOPOXMXXMXOPOXMXOPOOPOPOOPOO"
     "POOPOOPOOPOOPOOPOOXXXXXXPPXXXXPPXXXXXXPPPPXXPPXXXXXXXXXXXXXX"
     "XXXXXX"},
    {"plus",
     "XMXPOOPOOPOOXMXXMXXMXXMXOPOOPOPOOPOOPOOPOOPOOPOOPOOPOOXMXXMX"
     "XMXXMXOPOOPOOPOXMXOPOOPOXMXOPOOPOOPOXMXXMXOPOXMXOPOOPOPOOPOO"
     "POOPOOPOOPOOPOOPOOXXXXXXPPXXXXPPXXXXXXPPPPXXPPXXXXXXXXXXXXXX"
     "XXXXXX"},
    {"lemma9",
     "XMXPOOPOOPOOXMXXMXXMXXMXOPOOPOPOOPOOPOOPOOPOOPOOPOOPOOXMXXMX"
     "XMXXMXOPOOPOOPOXMXOPOOPOXMXOPOOPOOPOXMXXMXOPOXMXOPOOPOPOOPOO"
     "POOPOOPOOPOOPOOPOOXXXXXXPPXXXXPPXXXXXXPPPPXXPPXXXXXXXXXXXXXX"
     "XXXXXX"},
    {"synthetic",
     "CCXAXXAXXAXXCCXCCXCCXCCXCCXCCXAXXAXXAXXAXXAXXAXXAXXAXXAXXAXX"
     "AXXAXXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCXCCX"
     "CCXCCXCCXCCXCCXCCXAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
     "AAAAAA"},
    {"syntheticLemma9",
     "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXX"},
  });
}

TEST(GoldenPins, CompleteTreeDelta6Depth2) {
  expectPins(completeTree(6, 2), Colors::kTree, {
    {"linial",
     "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 2"
     "3 24 25 26 27 28 29 30 31 32 33 34 35 36 / 37 / 0"},
    {"proper",
     "0 1 2 3 4 5 6 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
     "0 0 0 0 0 0 0 / 7 / 30"},
    {"defective1",
     "5 1 2 3 4 6 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 5 5 5 "
     "5 5 0 0 0 0 0 / 25 / 1"},
    {"arbdefective1",
     "0 1 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
     "0 0 0 0 0 0 0 / 4 / 7 / 000000000000000000000000000000000000"
     "000000000000000000000000000000000000"},
    {"mis",
     "1000000111111111111111111111111111111 / 30 0 7"},
    {"kout1",
     "1000000111111111111111111111111111111 / 30 7 4 / 00000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0"},
    {"kout2",
     "1000000111111111111111111111111111111 / 30 7 3 / 00000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0"},
    {"kdeg1",
     "1000000111111111111111111111111111111 / 30 1 25"},
    {"greedyMis",
     "1000000111111111111111111111111111111"},
    {"greedyDs",
     "1111111000000000000000000000000000000"},
    {"lemma5",
     "XMMMMMPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
    {"lemma11",
     "XMMMMXPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
    {"plus",
     "XMMMMXPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
    {"lemma9",
     "XMMMMXPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOPOOOOOXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
    {"synthetic",
     "CCCCCXAAAAXXAAAAXXAAAAXXAAAAXXAAAAXXAAAAXXXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
    {"syntheticLemma9",
     "AXXXXXXXAXXXXXAXXXAXXXXXAXXXXXAXXXXXAXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXX"},
  });
}

TEST(GoldenPins, Path64) {
  expectPins(testsupport::pathGraph(64), Colors::kTree, {
    {"linial",
     "0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 "
     "0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 "
     "0 1 2 3 / 25 / 1"},
    {"proper",
     "0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 "
     "0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 "
     "0 1 2 0 / 3 / 23"},
    {"defective1",
     "0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 "
     "0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 "
     "0 1 0 2 / 4 / 1"},
    {"arbdefective1",
     "0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 "
     "0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 "
     "0 1 0 0 / 2 / 3 / 000010000000001000000000100000000010000000"
     "001000000000100000000010000000001000000000100000000010000000"
     "001000000000100000000010"},
    {"mis",
     "100101001010010100101001010010100101001010010100101001010010"
     "1001 / 23 0 3"},
    {"kout1",
     "101001010010100101001010010100101001010010100101001010010100"
     "1010 / 23 3 2 / 00000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000"},
    {"kout2",
     "101010101010101010101010101010101010101010101010101010101010"
     "1010 / 23 3 1 / 00000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000"},
    {"kdeg1",
     "101001010010100101001010010100101001010010100101001010010100"
     "1010 / 23 1 4"},
    {"greedyMis",
     "101010101010101010101010101010101010101010101010101010101010"
     "1010"},
    {"greedyDs",
     "010010010010010010010010010010010010010010010010010010010010"
     "0110"},
    {"lemma5",
     "XPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPX"
     "MPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPX"
     "MPOXMP"},
    {"lemma11",
     "XPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPX"
     "XPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPX"
     "XPOXXP"},
    {"synthetic",
     "CAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXC"
     "CAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXCCAXC"
     "CAXCCA"},
    {"syntheticLemma9",
     "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
     "XXXXXX"},
  });
}

TEST(GoldenPins, Cycle40) {
  expectPins(testsupport::cycleGraph(40), Colors::kNone, {
    {"linial",
     "0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 0 1 2 3 4 "
     "0 1 2 3 4 0 1 2 3 4 / 25 / 1"},
    {"proper",
     "0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 0 1 2 0 1 "
     "0 1 2 0 1 0 1 2 0 1 / 3 / 23"},
    {"defective1",
     "0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 0 1 0 2 1 "
     "0 1 0 2 1 0 1 0 2 1 / 4 / 1"},
    {"arbdefective1",
     "0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 0 1 0 0 1 "
     "0 1 0 0 1 0 1 0 0 1 / 2 / 3 / 000001000000000100000000010000"
     "00000100000000010000000001000000000100000000010000"},
    {"mis",
     "1001010010100101001010010100101001010010 / 23 0 3"},
    {"kout1",
     "1010010100101001010010100101001010010100 / 23 3 2 / 00000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "000000000000"},
    {"kout2",
     "1010101010101010101010101010101010101010 / 23 3 1 / 00000000"
     "000000000000000000000000000000000000000000000000000000000000"
     "000000000000"},
    {"kdeg1",
     "1010010100101001010010100101001010010100 / 23 1 4"},
    {"greedyMis",
     "1010101010101010101010101010101010101010"},
    {"greedyDs",
     "1001001001001001001001001001001001001100"},
    {"lemma5",
     "XMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOPXMPOXMPOOP"
     "XMPOXMPOOPXMPOXMPOOP"},
    {"lemma11",
     "XXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOPXXPOXXPOOP"
     "XXPOXXPOOPXXPOXXPOOP"},
  });
}

TEST(GoldenPins, GadgetDelta4) {
  expectPins(symmetricPortGadget(4), Colors::kPort, {
    {"linial",
     "0 1 2 3 4 5 6 7 / 8 / 0"},
    {"proper",
     "0 1 2 3 4 4 4 4 / 5 / 3"},
    {"defective1",
     "0 4 2 0 1 1 1 1 / 9 / 1"},
    {"arbdefective1",
     "0 0 0 0 1 1 1 1 / 3 / 5 / 00000000000000000000000000000000"},
    {"mis",
     "11110000 / 3 0 5"},
    {"kout1",
     "11110000 / 3 5 3 / 00000000000000000000000000000000"},
    {"kout2",
     "11110000 / 3 5 2 / 00000000000000000000000000000000"},
    {"kdeg1",
     "11110000 / 3 1 9"},
    {"greedyMis",
     "11110000"},
    {"greedyDs",
     "10001000"},
    {"lemma5",
     "XMMMXMMMXMMMXMMMPOOOPOOOPOOOPOOO"},
    {"lemma11",
     "XMMXXMMXXMMXXMMXPOOOPOOOPOOOPOOO"},
    {"plus",
     "XMMXXMMXXMMXXMMXPOOOPOOOPOOOPOOO"},
    {"lemma9",
     "XMMXXMMXXMMXXMMXPOOOPOOOPOOOPOOO"},
  });
}

TEST(GoldenPins, GadgetDelta5) {
  expectPins(symmetricPortGadget(5), Colors::kPort, {
    {"linial",
     "0 1 2 3 4 5 6 7 8 9 / 10 / 0"},
    {"proper",
     "0 1 2 3 4 5 5 5 5 5 / 6 / 4"},
    {"defective1",
     "0 1 5 0 1 2 2 2 2 2 / 9 / 1"},
    {"arbdefective1",
     "0 0 0 0 0 1 1 1 1 1 / 3 / 6 / 000000000000000000000000000000"
     "00000000000000000000"},
    {"mis",
     "1111100000 / 4 0 6"},
    {"kout1",
     "1111100000 / 4 6 3 / 000000000000000000000000000000000000000"
     "00000000000"},
    {"kout2",
     "1111100000 / 4 6 2 / 000000000000000000000000000000000000000"
     "00000000000"},
    {"kdeg1",
     "1111100000 / 4 1 9"},
    {"greedyMis",
     "1111100000"},
    {"greedyDs",
     "1000010000"},
    {"lemma5",
     "XMMMMXMMMMXMMMMXMMMMXMMMMPOOOOPOOOOPOOOOPOOOOPOOOO"},
    {"lemma11",
     "XMMMXXMMMXXMMMXXMMMXXMMMXPOOOOPOOOOPOOOOPOOOOPOOOO"},
    {"plus",
     "XMMMXXMMMXXMMMXXMMMXXMMMXPOOOOPOOOOPOOOOPOOOOPOOOO"},
    {"lemma9",
     "XMMMXXMMMXXMMMXXMMMXXMMMXPOOOOPOOOOPOOOOPOOOOPOOOO"},
  });
}

}  // namespace
}  // namespace relb::local
