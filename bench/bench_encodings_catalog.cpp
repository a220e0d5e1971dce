// Catalog: the engine applied to the classic problems of the paper's
// related-work discussion.  For each encoding: 0-round analysis, one
// speedup, and the automatic iteration's verdict -- reproducing the
// qualitative landscape of Section 1.2 (fixed points, doubly exponential
// growth, trivial problems) on known problems.
#include "bench_util.hpp"
#include "re/autobound.hpp"
#include "re/encodings.hpp"
#include "re/engine.hpp"
#include "re/zero_round.hpp"

namespace {

using namespace relb;

std::string reasonName(re::StopReason reason) {
  switch (reason) {
    case re::StopReason::kFixedPoint:
      return "fixed point (=> Omega(log n))";
    case re::StopReason::kZeroRoundSolvable:
      return "0-round solvable";
    case re::StopReason::kLabelBudget:
      return "label blow-up";
    case re::StopReason::kStepLimit:
      return "step limit";
    case re::StopReason::kEngineLimit:
      return "engine guard";
  }
  return "?";
}

}  // namespace

int main() {
  bench::banner("Encoding catalog under automatic speedup iteration");

  struct Entry {
    std::string name;
    re::Problem problem;
    std::string expectation;  // from the literature
  };
  std::vector<Entry> entries;
  entries.push_back({"MIS (Delta=3)", re::misProblem(3),
                     "label blow-up [this paper / BBHORS'19]"});
  entries.push_back({"sinkless orientation (Delta=3)",
                     re::sinklessOrientationProblem(3),
                     "fixed point [BFHKLRSU'16]"});
  entries.push_back({"maximal matching (Delta=3)",
                     re::maximalMatchingProblem(3),
                     "label blow-up [BBHORS'19]"});
  entries.push_back({"2-matching (Delta=3)", re::bMatchingProblem(3, 2),
                     "label blow-up [BO'20]"});
  entries.push_back({"3-coloring (cycle)", re::cColoringProblem(2, 3),
                     "Theta(log* n): stays nontrivial, bounded labels"});
  entries.push_back({"2-coloring (cycle)", re::cColoringProblem(2, 2),
                     "global problem: never becomes 0-round solvable"});
  entries.push_back({"weak 2-coloring (Delta=3)",
                     re::weakColoringProblem(3, 2),
                     "Omega(log* n) [BHOS'19]: nontrivial"});
  entries.push_back({"4-edge-coloring (Delta=3)",
                     re::edgeColoringProblem(3, 4),
                     "nontrivial; > Delta colors keeps it below 2D-2"});

  bench::Table t({"problem", "labels", "0-rnd adv ports", "iteration verdict",
                  "literature expectation"});
  for (const auto& entry : entries) {
    re::IterateOptions options;
    options.maxSteps = 4;
    options.maxLabels = 14;
    re::EngineSession session;
    const auto trace = re::iterateSpeedup(session, entry.problem, options);
    t.row(entry.name, entry.problem.alphabet.size(),
          re::zeroRoundSolvableAdversarialPorts(entry.problem),
          reasonName(trace.reason), entry.expectation);
  }
  t.print();

  std::cout << "\nThe family Pi_Delta(a,x) would land in the 'label blow-up' "
               "row under raw iteration;\nthe paper's Lemma 9 "
               "(edge-coloring simplification) is what turns it into a "
               "constant-label chain\n(see bench_label_growth and "
               "bench_lemma13_sequence).\n";

  bench::banner("Automatic lower bounds (speedup + hardness-preserving "
                "merging)");
  bench::Table ta({"problem", "certified rounds (PN, high girth)",
                   "labels per step", "stopped because"});
  for (const auto& entry : entries) {
    re::AutoLowerBoundOptions options;
    options.maxSteps = 4;
    options.maxLabels = 8;
    re::AutoLowerBound lb;
    try {
      lb = re::EngineSession().autoLowerBound(entry.problem, options);
    } catch (const re::Error&) {
      ta.row(entry.name, "-", "-", "engine guard");
      continue;
    }
    std::string labels;
    for (const int l : lb.labelsPerStep) {
      if (!labels.empty()) labels += " -> ";
      labels += std::to_string(l);
    }
    ta.row(entry.name, lb.rounds, labels, reasonName(lb.reason));
  }
  ta.print();
  std::cout << "\nthe MIS row is the paper's Section 1.2 observation, "
               "mechanized: the plain similarity approach\n(merge labels "
               "after each speedup) certifies 2 rounds and then no "
               "hardness-preserving merge exists;\nbreaking past it needs "
               "the Delta-edge-coloring trick of Lemma 9.\n";
  return 0;
}
