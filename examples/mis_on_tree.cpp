// MIS on trees: runs Luby's randomized algorithm and the deterministic
// coloring-based algorithm on a random tree (the bounded-tree family),
// verifies both, and reports round counts next to the paper's lower bound.
// Exits 1 if a verifier rejects an output and 2 on bad arguments.
//
//   ./mis_on_tree [n] [maxDegree] [seed]
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "core/sequence.hpp"
#include "local/families.hpp"
#include "local/kernels.hpp"
#include "local/upper_bounds.hpp"
#include "local/verify.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace relb;
  std::uint64_t n = 2000;
  std::uint32_t maxDegree = 8;
  std::uint64_t seed = 1;
  const auto arg = [&](int i, const char* name, auto& dest) {
    if (argc > i && !util::parseNumber(std::string_view(argv[i]), dest)) {
      std::cerr << "mis_on_tree: bad value for " << name << "\n";
      std::exit(2);
    }
  };
  arg(1, "n", n);
  arg(2, "maxDegree", maxDegree);
  arg(3, "seed", seed);

  local::TreeInstance tree;
  try {
    tree = local::makeTree(local::Family::kBoundedDegreeTree, n, maxDegree,
                           seed);
  } catch (const re::Error& e) {
    std::cerr << "mis_on_tree: " << e.what() << "\n";
    return 2;
  }
  const local::CsrGraph& g = tree.graph;
  std::cout << "random tree: n = " << g.numNodes()
            << ", max degree = " << g.maxDegree() << "\n\n";
  const int threads = util::kDefaultNumThreads;

  // Randomized: Luby.
  const local::MisRun luby = local::lubyMis(g, seed, threads);
  const bool lubyValid = local::csrIsMaximalIndependentSet(g, luby.state,
                                                           threads);
  std::cout << "Luby MIS:           " << luby.rounds
            << " rounds, valid = " << (lubyValid ? "yes" : "no")
            << ", |S| = " << luby.misSize << "\n";

  // Deterministic: Linial coloring + class sweep (O(Delta^2 + log* n)).
  const local::DomSetResult det = local::misFromColoring(g);
  const bool detValid = local::csrIsKDegreeDominatingSet(g, det.inSet, 0,
                                                         threads);
  std::cout << "coloring-sweep MIS: " << det.totalRounds() << " rounds ("
            << det.roundsColoring << " coloring + " << det.roundsSweep
            << " sweep), valid = " << (detValid ? "yes" : "no")
            << ", |S| = " << std::count(det.inSet.begin(), det.inSet.end(), 1)
            << "\n";

  // Sequential baseline.
  const auto greedy = local::greedyMis(g);
  std::cout << "greedy (seq.) MIS:  |S| = "
            << std::count(greedy.begin(), greedy.end(), 1) << "\n\n";

  // The paper's lower bound at this degree.
  const auto t = core::pnLowerBoundRounds(g.maxDegree(), 0);
  std::cout << "paper lower bound (PN model, k = 0): " << t
            << " rounds  [Omega(log Delta) = Omega("
            << std::log2(static_cast<double>(g.maxDegree())) << ")]\n";
  return lubyValid && detValid ? 0 : 1;
}
