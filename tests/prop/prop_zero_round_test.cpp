// Differential oracles for the zero-round analyses, checked against actual
// 0-round executions on concrete graphs from src/local -- a fully
// independent implementation of the model semantics.
//
//   * Symmetric ports: zeroRoundSolvableSymmetricPorts must agree with a
//     brute-force sweep over ALL 0-round algorithms (all port -> label maps)
//     on the symmetric-port gadget of Lemmas 12/15.
//   * Adversarial ports: a positive verdict comes with a witness word; that
//     word, dealt out in arbitrary port order, must check out on random
//     trees built from shuffled edge lists (the model promises success
//     against ANY ports).
//   * Model hierarchy: adversarial-ports solvability implies solvability in
//     both easier models (the symmetric family is one adversary choice; the
//     edge-input model only adds information).
#include <gtest/gtest.h>

#include <algorithm>

#include "local/families.hpp"
#include "local/halfedge.hpp"
#include "prop/prop.hpp"
#include "re/zero_round.hpp"
#include "support/graphs.hpp"

namespace relb {
namespace {

// All 0-round algorithms on the symmetric-port family fix one label per
// port.  Enumerate them; the analytic verdict must match exactly.
bool bruteForceSymmetricSolvable(const re::Problem& p) {
  const int delta = static_cast<int>(p.delta());
  const int alphabet = p.alphabet.size();
  const local::CsrGraph gadget =
      local::symmetricPortGadget(static_cast<std::uint32_t>(delta));
  std::vector<re::Label> portLabel(static_cast<std::size_t>(delta), 0);
  const auto run = [&]() {
    local::HalfEdgeLabeling labeling(gadget.numHalfEdges());
    for (local::Vertex v = 0; v < gadget.numNodes(); ++v) {
      for (std::uint32_t q = 0; q < gadget.degree(v); ++q) {
        labeling[gadget.halfEdge(v, q)] = portLabel[q];
      }
    }
    return local::checkLabeling(gadget, p, labeling).ok();
  };
  const auto sweep = [&](const auto& self, int port) -> bool {
    if (port == delta) return run();
    for (int l = 0; l < alphabet; ++l) {
      portLabel[static_cast<std::size_t>(port)] = static_cast<re::Label>(l);
      if (self(self, port + 1)) return true;
    }
    return false;
  };
  return sweep(sweep, 0);
}

TEST(PropZeroRound, SymmetricVerdictMatchesBruteForceSimulation) {
  prop::forAllProblems(
      {.name = "zero-round-symmetric",
       .gen = {.maxAlphabet = 4, .maxDelta = 4},
       .baseSeed = 61000},
      [](const re::Problem& p, std::mt19937&) {
        const bool analytic = re::zeroRoundSolvableSymmetricPorts(p);
        const bool simulated = bruteForceSymmetricSolvable(p);
        if (analytic != simulated) {
          return std::string("analytic symmetric-ports verdict ") +
                 (analytic ? "solvable" : "unsolvable") +
                 " but brute-force simulation says the opposite";
        }
        return std::string{};
      });
}

TEST(PropZeroRound, AdversarialWitnessChecksOutOnShuffledTrees) {
  prop::forAllProblems(
      {.name = "zero-round-adversarial", .gen = {}, .baseSeed = 62000},
      [](const re::Problem& p, std::mt19937& rng) {
        const auto witness = re::zeroRoundAdversarialWitness(p);
        if (!witness) return std::string{};
        // Expand the witness multiset into a label list of length Delta.
        std::vector<re::Label> labels;
        for (std::size_t l = 0; l < witness->size(); ++l) {
          for (re::Count i = 0; i < (*witness)[l]; ++i) {
            labels.push_back(static_cast<re::Label>(l));
          }
        }
        const local::CsrGraph g = testsupport::shuffledTree(
            testsupport::familyParents(
                local::Family::kBoundedDegreeTree, 40,
                static_cast<std::uint32_t>(p.delta()), rng()),
            rng);
        local::HalfEdgeLabeling labeling(g.numHalfEdges());
        for (local::Vertex v = 0; v < g.numNodes(); ++v) {
          std::vector<re::Label> dealt = labels;
          std::shuffle(dealt.begin(), dealt.end(), rng);
          for (std::uint32_t q = 0; q < g.degree(v); ++q) {
            labeling[g.halfEdge(v, q)] = dealt[q];
          }
        }
        const auto check = local::checkLabeling(g, p, labeling);
        if (!check.ok()) {
          return "adversarial witness fails on a shuffled tree: " +
                 (check.messages.empty() ? std::string("(no message)")
                                         : check.messages.front());
        }
        return std::string{};
      });
}

TEST(PropZeroRound, ModelHierarchyIsMonotone) {
  prop::forAllProblems(
      {.name = "zero-round-hierarchy", .gen = {}, .baseSeed = 63000},
      [](const re::Problem& p, std::mt19937&) {
        if (!re::zeroRoundSolvableAdversarialPorts(p)) return std::string{};
        if (!re::zeroRoundSolvableSymmetricPorts(p)) {
          return std::string(
              "adversarial-ports solvable but symmetric-ports unsolvable");
        }
        if (!re::zeroRoundSolvableWithEdgeInputs(p)) {
          return std::string(
              "adversarial-ports solvable but edge-input model unsolvable");
        }
        return std::string{};
      });
}

}  // namespace
}  // namespace relb
