// T8 -- Section 1.1 upper bounds vs the new lower bound.
//
// Measures, on random trees (the bounded-tree family):
//   * Luby MIS rounds vs n (O(log n) randomized);
//   * the coloring-route MIS and k-outdegree dominating set round counts vs
//     Delta and vs k (the sweep stage carries the Delta/k shape);
//   * the certified PN-model lower bound t(Delta, k) alongside, showing the
//     Omega(log Delta) vs O(poly Delta) gap the paper leaves open.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "core/sequence.hpp"
#include "local/families.hpp"
#include "local/kernels.hpp"
#include "local/upper_bounds.hpp"
#include "local/verify.hpp"

namespace {

using namespace relb;

local::CsrGraph tree(local::Family family, std::uint64_t n,
                     std::uint32_t maxDegree, std::uint64_t seed) {
  return local::makeTree(family, n, maxDegree, seed).graph;
}

/// Average Luby rounds over five seeds, and whether every run verified.
std::pair<double, bool> lubyRounds(local::Family family, std::uint64_t n,
                                   std::uint64_t seedBase) {
  double rounds = 0;
  bool valid = true;
  for (std::uint64_t seed = seedBase; seed < seedBase + 5; ++seed) {
    const local::CsrGraph g = tree(family, n, 8, seed);
    const local::MisRun run = local::lubyMis(g, seed, 1);
    rounds += run.rounds;
    valid &= local::csrIsMaximalIndependentSet(g, run.state, 1);
  }
  return {rounds / 5.0, valid};
}

}  // namespace

int main() {
  bool allValid = true;

  bench::banner("Luby MIS rounds vs n (random trees, max degree 8)");
  {
    bench::Table t({"n", "rounds (avg of 5)", "log2(n)", "valid"});
    for (const std::uint64_t n : {100, 400, 1600, 6400, 25600}) {
      const auto [rounds, valid] =
          lubyRounds(local::Family::kBoundedDegreeTree, n, 13);
      allValid &= valid;
      t.row(n, rounds, std::log2(static_cast<double>(n)), valid);
    }
    t.print();
    std::cout << "shape: O(log n) rounds with a large decay base -- each "
                 "round retires most of the\nresidual graph on "
                 "bounded-degree trees, so the logarithm grows slowly "
                 "(paths below):\n\n";
    bench::Table tp({"n (path)", "rounds (avg of 5)", "log2(n)", "valid"});
    for (const std::uint64_t n : {64, 256, 1024, 4096, 16384, 65536}) {
      const auto [rounds, valid] = lubyRounds(local::Family::kPath, n, 5);
      allValid &= valid;
      tp.row(n, rounds, std::log2(static_cast<double>(n)), valid);
    }
    tp.print();
  }

  bench::banner("Deterministic MIS rounds vs Delta (n ~ 4000)");
  {
    bench::Table t({"Delta", "coloring rounds", "sweep rounds", "total",
                    "certified LB t(Delta,0)", "valid"});
    for (const std::uint32_t delta : {4, 6, 8, 12, 16, 24}) {
      const local::CsrGraph g =
          tree(local::Family::kBoundedDegreeTree, 4000, delta, 42);
      const local::DomSetResult result = local::misFromColoring(g);
      const bool valid =
          local::csrIsKDegreeDominatingSet(g, result.inSet, 0, 1);
      allValid &= valid;
      t.row(delta, result.roundsColoring, result.roundsSweep,
            result.totalRounds(), core::pnLowerBoundRounds(g.maxDegree(), 0),
            valid);
    }
    t.print();
    std::cout << "shape: upper bound grows polynomially in Delta (the "
                 "simplified O(Delta^2 + log* n) route; the paper cites\n"
                 "O(Delta + log* n) [BEK'14]), lower bound grows as "
                 "log(Delta) -- the gap the paper's open problem asks "
                 "about.\n";
  }

  bench::banner("k-outdegree dominating set rounds vs k (Delta = 16, n ~ 4000)");
  {
    const local::CsrGraph g =
        tree(local::Family::kBoundedDegreeTree, 4000, 16, 7);
    bench::Table t({"k", "arbdefective rounds", "sweep rounds (#bins)",
                    "|S|", "certified LB t(Delta,k)", "valid"});
    for (const int k : {0, 1, 2, 4, 8, 15}) {
      const local::DomSetResult result = local::kOutdegreeDominatingSet(g, k);
      const bool valid = local::csrIsKOutdegreeDominatingSet(
          g, result.inSet, result.outgoing, k, 1);
      allValid &= valid;
      t.row(k, result.roundsDefective, result.roundsSweep,
            std::count(result.inSet.begin(), result.inSet.end(), 1),
            core::pnLowerBoundRounds(16, k), valid);
    }
    t.print();
    std::cout << "shape: the sweep stage shrinks as ceil((Delta+1)/(k+1)) "
                 "(the Delta/k dependence of the paper's cited\n"
                 "O(Delta/k + log* n) upper bound), while the lower bound "
                 "degrades only mildly in k <= Delta^epsilon.\n";
  }

  bench::banner("k-degree dominating set sweep rounds vs k (Delta = 24)");
  {
    const local::CsrGraph g =
        tree(local::Family::kBoundedDegreeTree, 4000, 24, 9);
    bench::Table t({"k", "defective classes = sweep rounds",
                    "(Delta/k)^2 reference", "valid"});
    for (const int k : {1, 2, 3, 6, 12}) {
      const local::DomSetResult result = local::kDegreeDominatingSet(g, k);
      const bool valid =
          local::csrIsKDegreeDominatingSet(g, result.inSet, k, 1);
      allValid &= valid;
      const double reference =
          std::pow(static_cast<double>(g.maxDegree()) / k, 2.0);
      t.row(k, result.roundsSweep, reference, valid);
    }
    t.print();
    std::cout << "shape: O((Delta/k)^2) classes (Kuhn'09 defective "
                 "coloring), matching the paper's Section 1.1 discussion.\n";
  }

  std::cout << "\n";
  bench::verdict(allValid, "every upper-bound output verified");
  return 0;
}
