// Tests for the R / Rbar operators, including brute-force reference
// implementations of the definitions from Section 2.3 and the classic
// sinkless-orientation fixed point as an end-to-end ground truth.
#include "re/re_step.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "re/rename.hpp"
#include "re/zero_round.hpp"

namespace relb::re {
namespace {

// ---------------------------------------------------------------------------
// Brute-force reference implementations (straight from the definitions).
// ---------------------------------------------------------------------------

// All non-empty subsets of the first `n` labels.
std::vector<LabelSet> allSubsets(int n) {
  std::vector<LabelSet> out;
  for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << n); ++mask) {
    out.push_back(LabelSet(mask));
  }
  return out;
}

// Reference edge side of R: all maximal A1A2 with A1 x A2 in E.
std::vector<std::pair<LabelSet, LabelSet>> refMaximalEdgePairs(
    const Problem& p) {
  const int n = p.alphabet.size();
  std::vector<std::pair<LabelSet, LabelSet>> valid;
  for (const LabelSet a : allSubsets(n)) {
    for (const LabelSet b : allSubsets(n)) {
      if (b.bits() < a.bits()) continue;
      bool ok = true;
      forEachLabel(a, [&](Label la) {
        forEachLabel(b, [&](Label lb) {
          Word w(static_cast<std::size_t>(n), 0);
          ++w[la];
          ++w[lb];
          if (!p.edge.containsWord(w)) ok = false;
        });
      });
      if (ok) valid.emplace_back(a, b);
    }
  }
  std::vector<std::pair<LabelSet, LabelSet>> maximal;
  for (const auto& pr : valid) {
    bool dominated = false;
    for (const auto& q : valid) {
      if (q == pr) continue;
      const bool straight =
          pr.first.subsetOf(q.first) && pr.second.subsetOf(q.second);
      const bool swapped =
          pr.first.subsetOf(q.second) && pr.second.subsetOf(q.first);
      if (straight || swapped) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(pr);
  }
  std::sort(maximal.begin(), maximal.end());
  return maximal;
}

// Words over the fresh alphabet of a StepResult, where each fresh label
// denotes a set of old labels: enumerate every multiset of fresh labels of
// size delta and test "exists choice in the old node constraint" by explicit
// expansion.
std::set<Word> refRNodeLanguage(const Problem& oldP, const StepResult& step) {
  const int nNew = step.problem.alphabet.size();
  const int nOld = oldP.alphabet.size();
  const Count delta = oldP.delta();
  std::set<Word> result;
  std::vector<Label> slots;
  std::function<void(Label)> rec = [&](Label minLabel) {
    if (static_cast<Count>(slots.size()) == delta) {
      // Expand choices with dedupe.
      std::set<Word> level;
      level.insert(Word(static_cast<std::size_t>(nOld), 0));
      for (Label fresh : slots) {
        std::set<Word> next;
        for (const Word& w : level) {
          forEachLabel(step.meaning[fresh], [&](Label oldL) {
            Word e = w;
            ++e[oldL];
            next.insert(std::move(e));
          });
        }
        level = std::move(next);
      }
      const bool anyChoice =
          std::any_of(level.begin(), level.end(), [&](const Word& w) {
            return oldP.node.containsWord(w);
          });
      if (anyChoice) {
        result.insert(wordFromLabels(slots, nNew));
      }
      return;
    }
    for (Label l = minLabel; l < nNew; ++l) {
      slots.push_back(l);
      rec(l);
      slots.pop_back();
    }
  };
  rec(0);
  return result;
}

// Reference Rbar node language over sets: enumerate multisets of *all*
// non-empty subsets (not only right-closed ones), keep those whose every
// choice is in the node constraint, keep the maximal ones, and return the
// union of their slot-set multisets (canonicalized as sorted bitset lists).
std::set<std::vector<std::uint32_t>> refRbarMaximalNodeConfigs(
    const Problem& p) {
  const int n = p.alphabet.size();
  const Count delta = p.delta();
  const auto subsets = allSubsets(n);
  std::vector<std::vector<LabelSet>> valid;
  std::vector<LabelSet> slots;
  std::function<void(std::size_t)> rec = [&](std::size_t minIdx) {
    if (static_cast<Count>(slots.size()) == delta) {
      std::set<Word> level;
      level.insert(Word(static_cast<std::size_t>(n), 0));
      for (const LabelSet s : slots) {
        std::set<Word> next;
        for (const Word& w : level) {
          forEachLabel(s, [&](Label l) {
            Word e = w;
            ++e[l];
            next.insert(std::move(e));
          });
        }
        level = std::move(next);
      }
      const bool all = std::all_of(level.begin(), level.end(),
                                   [&](const Word& w) {
                                     return p.node.containsWord(w);
                                   });
      if (all) valid.push_back(slots);
      return;
    }
    for (std::size_t i = minIdx; i < subsets.size(); ++i) {
      slots.push_back(subsets[i]);
      rec(i);
      slots.pop_back();
    }
  };
  rec(0);

  // Relaxation order via bipartite matching on slots (delta is tiny here, so
  // use brute-force permutations).
  const auto dominatedBy = [&](const std::vector<LabelSet>& x,
                               const std::vector<LabelSet>& y) {
    std::vector<std::size_t> perm(x.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    do {
      bool ok = true;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!x[i].subsetOf(y[perm[i]])) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return false;
  };

  std::set<std::vector<std::uint32_t>> maximal;
  for (const auto& x : valid) {
    bool dominated = false;
    for (const auto& y : valid) {
      if (x == y) continue;
      if (dominatedBy(x, y) && !dominatedBy(y, x)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      std::vector<std::uint32_t> canon;
      canon.reserve(x.size());
      for (const LabelSet s : x) canon.push_back(s.bits());
      std::sort(canon.begin(), canon.end());
      maximal.insert(std::move(canon));
    }
  }
  return maximal;
}

#define ASSERT_OR_THROW(cond) \
  if (!(cond)) throw Error("test invariant violated: " #cond)

// Canonical multiset view of the engine's Rbar node output.
std::set<std::vector<std::uint32_t>> engineRbarNodeConfigs(
    const StepResult& step) {
  std::set<std::vector<std::uint32_t>> out;
  for (const auto& c : step.problem.node.configurations()) {
    std::vector<std::uint32_t> canon;
    for (const auto& g : c.groups()) {
      ASSERT_OR_THROW(g.set.size() == 1);
      for (Count i = 0; i < g.count; ++i) {
        canon.push_back(step.meaning[g.set.min()].bits());
      }
    }
    std::sort(canon.begin(), canon.end());
    out.insert(std::move(canon));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

TEST(ApplyR, EdgePairsMatchReferenceOnMis) {
  for (Count delta : {2, 3, 4}) {
    const auto p = misProblem(delta);
    auto engine = maximalEdgePairs(p.edge, p.alphabet.size());
    std::sort(engine.begin(), engine.end());
    EXPECT_EQ(engine, refMaximalEdgePairs(p)) << "delta=" << delta;
  }
}

TEST(ApplyR, EdgePairsMatchReferenceOnSinklessOrientation) {
  const auto p = sinklessOrientationProblem(3);
  auto engine = maximalEdgePairs(p.edge, p.alphabet.size());
  std::sort(engine.begin(), engine.end());
  EXPECT_EQ(engine, refMaximalEdgePairs(p));
  // SO: the single maximal pair is {I}{O}.
  ASSERT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine[0].first.size() + engine[0].second.size(), 2);
}

TEST(ApplyR, MeaningSetsAreRightClosed) {
  // Observation 4: every label of R(Pi) is a right-closed set w.r.t. the
  // edge constraint of Pi.
  for (const auto& p : {misProblem(3), sinklessOrientationProblem(3)}) {
    const auto rel = computeStrength(p.edge, p.alphabet.size());
    const auto step = applyR(p);
    for (const LabelSet s : step.meaning) {
      EXPECT_TRUE(rel.isRightClosed(s)) << p.alphabet.render(s);
    }
  }
}

TEST(ApplyR, NodeLanguageMatchesReferenceOnMis) {
  for (Count delta : {2, 3}) {
    const auto p = misProblem(delta);
    const auto step = applyR(p);
    const auto ref = refRNodeLanguage(p, step);
    const auto engineWords = step.problem.node.enumerateWords(
        step.problem.alphabet.size());
    const std::set<Word> engineSet(engineWords.begin(), engineWords.end());
    EXPECT_EQ(engineSet, ref) << "delta=" << delta;
  }
}

TEST(ApplyR, NodeLanguageMatchesReferenceOnSinklessOrientation) {
  const auto p = sinklessOrientationProblem(3);
  const auto step = applyR(p);
  EXPECT_EQ(refRNodeLanguage(p, step),
            [&] {
              const auto words = step.problem.node.enumerateWords(
                  step.problem.alphabet.size());
              return std::set<Word>(words.begin(), words.end());
            }());
}

TEST(ApplyR, WorksForHugeDelta) {
  const Count delta = Count{1} << 20;
  const auto p = misProblem(delta);
  const auto step = applyR(p);
  step.problem.validate();
  EXPECT_EQ(step.problem.delta(), delta);
  // The fresh alphabet of R(MIS) has the right-closed sets that appear in
  // maximal pairs; for MIS these are {M},{O},{MO}... exactly the pairs
  // {M}{PO}... check a couple of structural facts.
  EXPECT_GE(step.problem.alphabet.size(), 2);
  EXPECT_LE(step.problem.alphabet.size(), 7);
}

TEST(ApplyRbar, NodeConfigsMatchReferenceOnMis) {
  for (Count delta : {2, 3}) {
    const auto p = misProblem(delta);
    const auto r = applyR(p);
    const auto rbar = applyRbar(r.problem);
    EXPECT_EQ(engineRbarNodeConfigs(rbar), refRbarMaximalNodeConfigs(r.problem))
        << "delta=" << delta;
  }
}

TEST(ApplyRbar, NodeConfigsMatchReferenceOnSinklessOrientation) {
  const auto p = sinklessOrientationProblem(3);
  const auto r = applyR(p);
  const auto rbar = applyRbar(r.problem);
  EXPECT_EQ(engineRbarNodeConfigs(rbar), refRbarMaximalNodeConfigs(r.problem));
}

TEST(ApplyRbar, RefusesLargeDelta) {
  const auto p = misProblem(64);
  const auto r = applyR(p);
  EXPECT_THROW(applyRbar(r.problem), Error);
}

TEST(ApplyRbar, SizeGuardsRunBeforeTheStrengthDiagram) {
  // Above 20 labels the right-closed universe guard trips, above 16 the
  // packed-word guard; neither asks for the right-closed sets first.
  const auto refusalOf = [](int labels) {
    std::string all = "[";
    for (int l = 0; l < labels; ++l) {
      all += std::string(l > 0 ? " " : "") + static_cast<char>('A' + l);
    }
    all += "]";
    const Problem p = Problem::parse(all + "^2", all + "^2");
    bool fetched = false;
    std::string text = "(no refusal)";
    try {
      (void)detail::applyRbar(p, {}, [&] {
        fetched = true;
        return std::vector<LabelSet>{};
      });
    } catch (const Error& e) {
      text = e.what();
    }
    EXPECT_FALSE(fetched) << labels << " labels";
    return text;
  };
  EXPECT_EQ(refusalOf(21), "allRightClosedSets: universe too large");
  EXPECT_EQ(refusalOf(17),
            "applyRbar: packed-word enumeration needs <= 16 labels and "
            "delta <= 15");
}

// The maximality filter on hand-built slot records over labels A=0, B=1,
// C=2, D=3, with the registry's antichain counters showing which pairs it
// compared.
std::uint64_t antichainPairs() {
  return obs::Registry::global().snapshot().counterValue("re.antichain.pairs");
}

TEST(MaximalSlotRecords, ChainIsDecidedAgainstItsMaximalTop) {
  // a = {A}{B} -> b = {A}{B C} -> c = {A D}{B C}: a's only maximal
  // dominator is c.  b is decided first and is not maximal, so a is
  // compared with c alone: two pairs in all, not three.
  constexpr std::uint32_t A = 1, B = 2, C = 4, D = 8;
  const std::vector<std::uint32_t> records = {A, B, A, B | C, A | D, B | C};
  for (const int threads : {1, 2}) {
    const std::uint64_t before = antichainPairs();
    EXPECT_EQ(detail::maximalSlotRecords(records, 2, threads),
              std::vector<std::size_t>{2});
    EXPECT_EQ(antichainPairs() - before, 2u) << "threads=" << threads;
  }
}

TEST(MaximalSlotRecords, EqualSizesAreNeverCompared) {
  // {A C} and {A B} have the same size and are incomparable: both are
  // maximal, in input order, without a test between them.  {A} is decided
  // against the first of them, which already dominates it.
  constexpr std::uint32_t A = 1, B = 2, C = 4;
  const std::vector<std::uint32_t> records = {A, A | C, A | B};
  for (const int threads : {1, 2}) {
    const std::uint64_t before = antichainPairs();
    EXPECT_EQ(detail::maximalSlotRecords(records, 1, threads),
              (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(antichainPairs() - before, 1u) << "threads=" << threads;
  }
}

// The classic ground truth: speeding up sinkless orientation yields the
// "exactly one outgoing edge" variant, which is a fixed point of the
// speedup.
TEST(Speedup, SinklessOrientationReachesFixedPoint) {
  const auto so = sinklessOrientationProblem(3);
  const auto p1 = speedupStep(so);
  const auto p2 = speedupStep(p1);
  EXPECT_TRUE(equivalentUpToRenaming(p1, p2));
  // And the fixed point matches the hand-derived problem:
  // node = o t^{Delta-1}, edge = { to, tt }.
  const auto expected = Problem::parse("o t t\n", "t [ot]\n");
  EXPECT_TRUE(equivalentUpToRenaming(p1, expected));
}

TEST(Speedup, FixedPointIsNotZeroRoundSolvable) {
  const auto so = sinklessOrientationProblem(3);
  const auto p1 = speedupStep(so);
  EXPECT_FALSE(zeroRoundSolvableSymmetricPorts(p1));
}

TEST(Speedup, MisGrowsLabels) {
  // Motivation for the paper's constant-label family: raw round elimination
  // on MIS inflates the alphabet.
  const auto p = misProblem(3);
  const auto p1 = speedupStep(p);
  EXPECT_GT(p1.alphabet.size(), p.alphabet.size());
}

TEST(Speedup, PreservesDeltaAndValidates) {
  const auto p = misProblem(4);
  const auto p1 = speedupStep(p);
  EXPECT_EQ(p1.delta(), 4);
  p1.validate();
}

}  // namespace
}  // namespace relb::re
