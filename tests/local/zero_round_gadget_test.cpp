// Monte-Carlo link between the combinatorial zero-round analysis (re/) and
// actual executions on the Lemma 12/15 gadget graph: random 0-round
// strategies, run identically at every node of the symmetric-port instance,
// must violate the family constraints somewhere -- and the generic checker
// catches it.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/family.hpp"
#include "local/families.hpp"
#include "local/halfedge.hpp"
#include "local/verify.hpp"
#include "re/zero_round.hpp"
#include "support/graphs.hpp"

namespace relb::local {
namespace {

/// Every node outputs `assignment[p]` on its port p.
HalfEdgeLabeling samePortLabels(const CsrGraph& g,
                                const std::vector<re::Label>& assignment) {
  HalfEdgeLabeling labeling(g.numHalfEdges());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      labeling[g.halfEdge(v, p)] = assignment[p];
    }
  }
  return labeling;
}

TEST(ZeroRoundGadget, EveryDeterministicStrategyFailsOnTheFamily) {
  // Delta = 4, Pi_4(2,1): enumerate a sample of pure strategies (word +
  // port assignment) and run each as the common output of all nodes.
  const int delta = 4;
  const auto pi = core::familyProblem(delta, 2, 1);
  const CsrGraph g = symmetricPortGadget(delta);
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> labelDist(0, pi.alphabet.size() - 1);
  int validStrategies = 0;
  int testedWords = 0;
  for (int trial = 0; trial < 500; ++trial) {
    // Random port assignment; keep it only if the multiset is an allowed
    // node configuration.
    std::vector<re::Label> assignment(static_cast<std::size_t>(delta));
    re::Word word(static_cast<std::size_t>(pi.alphabet.size()), 0);
    for (auto& l : assignment) {
      l = static_cast<re::Label>(labelDist(rng));
      ++word[l];
    }
    if (!pi.node.containsWord(word)) continue;
    ++testedWords;
    if (checkLabeling(g, pi, samePortLabels(g, assignment)).ok()) {
      ++validStrategies;
    }
  }
  EXPECT_GT(testedWords, 0);
  EXPECT_EQ(validStrategies, 0) << "Lemma 12 violated by some strategy";
}

TEST(ZeroRoundGadget, TrivialProblemSucceedsOnTheGadget) {
  // Sanity that the harness can also succeed: the all-X relaxation
  // Pi_4(0, 1) has the 0-round solution X^4.
  const int delta = 4;
  const auto pi = core::familyProblem(delta, 0, 1);
  const auto witness = re::zeroRoundSymmetricWitness(pi);
  ASSERT_TRUE(witness.has_value());
  const CsrGraph g = symmetricPortGadget(delta);
  // Spread the witness word over the ports (any assignment works since all
  // witness labels are self-compatible).
  std::vector<re::Label> assignment;
  for (std::size_t l = 0; l < witness->size(); ++l) {
    for (re::Count i = 0; i < (*witness)[l]; ++i) {
      assignment.push_back(static_cast<re::Label>(l));
    }
  }
  ASSERT_EQ(assignment.size(), static_cast<std::size_t>(delta));
  EXPECT_TRUE(checkLabeling(g, pi, samePortLabels(g, assignment)).ok());
}

TEST(ZeroRoundGadget, RandomizedUniformStrategyFailureRate) {
  // Independent uniform configuration choices at every node: the empirical
  // failure probability must dominate the analytic single-edge bound of
  // Lemma 15.
  const int delta = 3;
  const auto pi = core::familyProblem(delta, 2, 1);
  const CsrGraph g = symmetricPortGadget(delta);
  std::mt19937 rng(5);
  const auto words = pi.node.enumerateWords(pi.alphabet.size());
  std::uniform_int_distribution<std::size_t> wordDist(0, words.size() - 1);
  int failures = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    HalfEdgeLabeling labeling(g.numHalfEdges());
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      const re::Word& w = words[wordDist(rng)];
      std::vector<re::Label> assignment;
      for (std::size_t l = 0; l < w.size(); ++l) {
        for (re::Count i = 0; i < w[l]; ++i) {
          assignment.push_back(static_cast<re::Label>(l));
        }
      }
      std::shuffle(assignment.begin(), assignment.end(), rng);
      for (std::uint32_t p = 0; p < g.degree(v); ++p) {
        labeling[g.halfEdge(v, p)] = assignment[p];
      }
    }
    if (!checkLabeling(g, pi, labeling).ok()) ++failures;
  }
  const double empirical = static_cast<double>(failures) / trials;
  EXPECT_GE(empirical, re::randomizedFailureLowerBound(pi));
  // On a whole gadget (9 edges) the uniform strategy fails essentially
  // always.
  EXPECT_GT(empirical, 0.9);
}

TEST(OrientInduced, TurnsKDegreeIntoKOutdegree) {
  // The remark after Corollary 2: orienting arbitrarily converts a k-degree
  // dominating set into a k-outdegree dominating set.
  const CsrGraph g = testsupport::randomTree(60, 5, 3);
  const std::vector<std::uint8_t> all(g.numNodes(), 1);
  const int k = csrInducedMaxDegree(g, all, 1);
  ASSERT_TRUE(csrIsKDegreeDominatingSet(g, all, k, 1));
  const auto outgoing = orientInduced(g, all);
  EXPECT_TRUE(csrIsKOutdegreeDominatingSet(g, all, outgoing, k, 1));
  // The outdegree bound can even beat the degree bound, but never exceeds
  // it.
  EXPECT_LE(csrInducedMaxOutdegree(g, all, outgoing, 1), k);
}

}  // namespace
}  // namespace relb::local
