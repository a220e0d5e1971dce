// End-to-end k-outdegree dominating set pipeline on a concrete tree:
//
//   upper bound:  Linial coloring -> k-arbdefective coloring -> class sweep
//   lower bound:  Lemma 5 turns the computed set into a Pi_Delta(a, k)
//                 solution, which the generic LCL checker validates, and
//                 Lemma 9 + the chain machinery bound the achievable speed.
//
// Exits 1 if a verifier rejects an output and 2 on bad arguments (including
// k outside [0, delta] and a tree too large for 32-bit node ids).
//
//   ./domset_pipeline [delta] [depth] [k]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>

#include "core/conversions.hpp"
#include "core/sequence.hpp"
#include "local/families.hpp"
#include "local/upper_bounds.hpp"
#include "local/verify.hpp"
#include "re/engine.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace relb;
  std::uint32_t delta = 6;
  std::uint32_t depth = 4;
  int k = 2;
  const auto arg = [&](int i, const char* name, auto& dest) {
    if (argc > i && !util::parseNumber(std::string_view(argv[i]), dest)) {
      std::cerr << "domset_pipeline: bad value for " << name << "\n";
      std::exit(2);
    }
  };
  arg(1, "delta", delta);
  arg(2, "depth", depth);
  arg(3, "k", k);

  local::TreeInstance tree;
  try {
    if (k < 0) throw re::Error("k must be >= 0");
    if (static_cast<std::uint32_t>(k) > delta) {
      throw re::Error("k must be <= delta");
    }
    tree = local::makeTree(local::Family::kCompleteTree,
                           local::completeTreeNodes(delta, depth), delta, 0);
  } catch (const re::Error& e) {
    std::cerr << "domset_pipeline: " << e.what() << "\n";
    return 2;
  }
  const local::CsrGraph& g = tree.graph;
  std::cout << "complete " << delta << "-regular tree, depth " << depth
            << ": n = " << g.numNodes() << "\n\n";

  // Upper bound: compute a k-outdegree dominating set.
  const local::DomSetResult ds = local::kOutdegreeDominatingSet(g, k);
  const bool valid = local::csrIsKOutdegreeDominatingSet(
      g, ds.inSet, ds.outgoing, k, util::kDefaultNumThreads);
  std::cout << k << "-outdegree dominating set: |S| = "
            << std::count(ds.inSet.begin(), ds.inSet.end(), 1)
            << ", valid = " << (valid ? "yes" : "no") << "\n";
  std::cout << "rounds: " << ds.totalRounds() << " total = "
            << ds.roundsColoring << " coloring + " << ds.roundsDefective
            << " arbdefective + " << ds.roundsSweep << " sweep\n\n";
  if (!valid) return 1;

  // Lemma 5: one more round turns S into a Pi_Delta(Delta, k) solution.
  const auto labeling = core::lemma5Labeling(g, ds.inSet, ds.outgoing, k);
  const auto pi = core::familyProblem(delta, delta, k);
  const bool lemma5Ok = local::checkLabeling(g, pi, labeling).ok();
  std::cout << "Lemma 5 labeling solves Pi_Delta(Delta, k): "
            << (lemma5Ok ? "yes" : "no") << "\n";
  bool allOk = lemma5Ok;

  // Lemma 9 in action: embed into Pi+, convert with the edge coloring.
  if (2 * k + 1 <= static_cast<int>(delta)) {
    const auto plus = core::plusFromFamilyLabeling(g, labeling, delta, k);
    const bool plusOk =
        local::checkLabeling(g, core::familyPlusProblem(delta, delta, k), plus)
            .ok();
    const auto converted = core::lemma9Convert(
        g, local::treeEdgeColoring(g), plus, delta, k);
    const re::Count aNew = (re::Count{delta} - 2 * k - 1) / 2;
    const bool convOk =
        local::checkLabeling(g, core::familyProblem(delta, aNew, k + 1),
                             converted)
            .ok();
    std::cout << "Lemma 9 conversion Pi+(" << delta << "," << k << ") -> Pi("
              << aNew << "," << k + 1
              << "): input valid = " << (plusOk ? "yes" : "no")
              << ", output valid = " << (convOk ? "yes" : "no") << "\n";
    allOk = allOk && plusOk && convOk;
  }

  // The certified lower bound at these parameters.  The chain behind the
  // bound is re-certified through an engine session (memoized 0-round
  // verdicts); an empty violation string means every Lemma 12/13 claim
  // holds.
  re::EngineSession engine(std::make_shared<re::EngineCore>());
  const core::Chain chain = core::exactChain(delta, k);
  const std::string violation = core::certifyChain(chain, engine);
  if (!violation.empty()) {
    std::cerr << "chain certification FAILED: " << violation << "\n";
    return 1;
  }
  std::cout << "\npaper lower bound (PN model): "
            << core::pnLowerBoundRounds(delta, k)
            << " rounds (chain certified)\n";
  return allOk ? 0 : 1;
}
