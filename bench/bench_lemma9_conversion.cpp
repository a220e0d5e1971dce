// T3 -- Lemma 9: the Delta-edge-coloring 0-round conversion
// Pi+_Delta(a,x) -> Pi_Delta(floor((a-2x-1)/2), x+1), executed on real
// trees and verified by the generic LCL checker.  The synthetic input
// alternates C-nodes and A-nodes by depth, exercising exactly the AA-hazard
// that motivates the edge-coloring trick.
#include "bench_util.hpp"
#include "core/conversions.hpp"
#include "local/families.hpp"
#include "local/halfedge.hpp"

int main() {
  using namespace relb;
  bench::banner("Lemma 9: edge-coloring conversion on concrete trees");

  bench::Table t({"Delta", "a", "x", "n", "a' (target)", "input valid",
                  "output valid", "time (ms)"});
  bool allPass = true;
  for (const auto& [delta, a, x] : std::vector<std::array<re::Count, 3>>{
           {4, 3, 1},
           {4, 4, 1},
           {5, 5, 2},
           {6, 5, 1},
           {6, 6, 2},
           {8, 7, 3},
           {8, 8, 1},
           {10, 9, 2},
           {12, 11, 4},
           {3, 3, 1}}) {
    bench::Stopwatch sw;
    const std::uint32_t degree = static_cast<std::uint32_t>(delta);
    const local::CsrGraph g =
        local::makeTree(local::Family::kCompleteTree,
                        local::completeTreeNodes(degree, delta <= 5 ? 5 : 4),
                        degree, 0)
            .graph;
    const auto plus = core::syntheticPlusLabelingAlternating(g, a, x);
    const bool inputOk =
        local::checkLabeling(g, core::familyPlusProblem(delta, a, x), plus)
            .ok();
    const auto converted =
        core::lemma9Convert(g, local::treeEdgeColoring(g), plus, a, x);
    const re::Count aNew = (a - 2 * x - 1) / 2;
    const bool outputOk =
        local::checkLabeling(g, core::familyProblem(delta, aNew, x + 1),
                             converted)
            .ok();
    allPass &= inputOk && outputOk;
    t.row(delta, a, x, g.numNodes(), aNew, inputOk, outputOk, sw.ms());
  }
  t.print();
  bench::verdict(allPass,
                 "all conversions valid (paper: Lemma 9 holds for "
                 "2x+1 <= a <= Delta)");
  return 0;
}
