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
//   * Edge inputs: the interval-cover verdict equals the (Delta+1)-pattern
//     flow formulation it replaced (reference_step.hpp), both orientations
//     tested, on random problems, on the paper's families and on every merge
//     candidate the automatic lower bound meets on MIS.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/family.hpp"
#include "local/families.hpp"
#include "local/halfedge.hpp"
#include "prop/prop.hpp"
#include "prop/reference_step.hpp"
#include "re/encodings.hpp"
#include "re/engine.hpp"
#include "re/simplify.hpp"
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

// The closed-form and the flow verdicts of `p`, as "solvable",
// "unsolvable" or the refusal text; empty if they agree.
std::string edgeInputDisagreement(const re::Problem& p) {
  const auto verdict = [&](bool (*analysis)(const re::Problem&)) {
    try {
      return std::string(analysis(p) ? "solvable" : "unsolvable");
    } catch (const re::Error& e) {
      return std::string("refused: ") + e.what();
    }
  };
  const std::string closed = verdict(&re::zeroRoundSolvableWithEdgeInputs);
  const std::string flow = verdict(&refimpl::zeroRoundSolvableWithEdgeInputs);
  if (closed == flow) return {};
  return "interval cover says " + closed + ", the flow sweep " + flow;
}

TEST(PropZeroRound, EdgeInputIntervalCoverMatchesFlowSweep) {
  // Default-width groups (mostly solvable), then narrow groups over more,
  // less condensed configurations (mostly unsolvable, and more intervals
  // per pair to cover with).
  int solvable = 0;
  int unsolvable = 0;
  for (const bool narrow : {false, true}) {
    prop::forAllProblems(
        {.name = narrow ? "zero-round-edge-inputs-narrow"
                        : "zero-round-edge-inputs",
         .gen = {.maxAlphabet = 20,
                 .maxDelta = 8,
                 .maxNodeConfigs = 6,
                 .maxEdgeConfigs = narrow ? 8 : 4,
                 .disjunctionDensity = narrow ? 0.1 : 0.25,
                 .condenseBias = narrow ? 0.3 : 0.5},
         .baseSeed = narrow ? 72000u : 71000u},
        [&](const re::Problem& p, std::mt19937&) {
          const std::string message = edgeInputDisagreement(p);
          if (message.empty()) {
            ++(re::zeroRoundSolvableWithEdgeInputs(p) ? solvable
                                                       : unsolvable);
          }
          return message;
        });
  }
  EXPECT_GT(solvable, 0) << "the draws must reach both verdicts";
  EXPECT_GT(unsolvable, 0) << "the draws must reach both verdicts";
}

TEST(PropZeroRound, EdgeInputIntervalCoverMatchesFlowSweepOnFamilies) {
  for (re::Count delta = 3; delta <= 8; ++delta) {
    for (re::Count a = 0; a <= delta; ++a) {
      for (re::Count x = 0; x <= delta; ++x) {
        EXPECT_EQ(edgeInputDisagreement(core::familyProblem(delta, a, x)), "")
            << "Pi_" << delta << "(" << a << ", " << x << ")";
        if (x + 1 <= a && x + 1 <= delta) {
          EXPECT_EQ(
              edgeInputDisagreement(core::familyPlusProblem(delta, a, x)), "")
              << "Pi+_" << delta << "(" << a << ", " << x << ")";
        }
      }
    }
  }
}

TEST(PropZeroRound, EdgeInputIntervalCoverMatchesFlowSweepOnMergeCandidates) {
  // The automatic lower bound's merge loop asks for exactly these verdicts.
  re::EngineSession session;
  const re::Problem q =
      session.speedupStep(session.speedupStep(re::misProblem(3)));
  const int n = q.alphabet.size();
  ASSERT_GE(n, 2);
  for (re::Label a = 0; a < n; ++a) {
    for (re::Label b = a + 1; b < n; ++b) {
      EXPECT_EQ(edgeInputDisagreement(re::mergeTwoLabels(q, a, b)), "")
          << "merging labels " << int{a} << " and " << int{b} << " of "
          << n;
    }
  }
}

}  // namespace
}  // namespace relb
