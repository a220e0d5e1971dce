// Differential oracles for the bit-parallel hot-path kernels.
//
// Every kernel introduced by the flat-buffer rewrite of the R/Rbar sweep is
// compared against the container-based implementation it replaced
// (reference_step.hpp), on generated problems:
//
//   * packed word collection vs Constraint::enumerateWords (including
//     agreement on *throwing* under a tight enumeration limit);
//   * SWAR domination vs the nibble-loop linear scan, and the R̄
//     completion table's layers and transitions vs SWAR domination over
//     every word of each total;
//   * bitmask Kuhn matching (kernels::slotsRelaxTo) vs the std::function
//     version, cross-checked against Configuration::relaxesTo;
//   * shape-based edge compatibility and self-compatible labels vs the
//     containsWord probes;
//   * maximal edge pairs by intersection closure of the compatibility rows
//     vs the 2^n subset sweep, on random, worst-case and degenerate
//     matrices and on the > 20-label guard text;
//   * packed computeStrength and the closure-table right-closed-set sweep
//     vs the std::set<Word> originals, at 64-bit (<= 16 labels) and 128-bit
//     (17..32 labels, including the 30-label node constraint of the Pi
//     chain) word widths, and on the enumeration-limit Error message;
//   * the full applyR / applyRbar operators vs the pre-rewrite pipeline,
//     at thread widths 1, 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/family.hpp"
#include "obs/metrics.hpp"
#include "prop/prop.hpp"
#include "prop/reference_step.hpp"
#include "re/bitkernels.hpp"
#include "re/edge_compat.hpp"
#include "re/engine.hpp"
#include "re/packed_words.hpp"
#include "re/zero_round.hpp"

namespace relb {
namespace {

namespace kernels = re::kernels;
using kernels::ExpandedWord;
using kernels::PackedWord;

template <typename T, typename Fn>
std::optional<T> tryOp(Fn&& fn) {
  try {
    return fn();
  } catch (const re::Error&) {
    return std::nullopt;
  }
}

// The Error text of `fn`, or "" if it returns normally.
template <typename Fn>
std::string errorOf(Fn&& fn) {
  try {
    (void)fn();
  } catch (const re::Error& e) {
    return e.what();
  }
  return {};
}

std::string describeSets(const std::vector<re::LabelSet>& sets) {
  std::string out;
  for (const re::LabelSet s : sets) {
    out += std::to_string(s.bits());
    out += ' ';
  }
  return out;
}

TEST(PropKernels, PackedCollectionMatchesEnumerateWords) {
  prop::forAllProblems(
      {.name = "kernels-packed-words", .gen = {}, .baseSeed = 61000},
      [](const re::Problem& p, std::mt19937& rng) -> std::string {
        const int n = p.alphabet.size();
        // A tight limit half the time, so the throw path is exercised too.
        const std::size_t limit =
            (rng() % 2 == 0) ? 100'000 : 1 + rng() % 8;
        for (const re::Constraint* c : {&p.node, &p.edge}) {
          const auto reference = tryOp<std::vector<PackedWord>>([&] {
            std::vector<PackedWord> packed;
            for (const re::Word& w : c->enumerateWords(n, limit)) {
              PackedWord acc = 0;
              for (std::size_t l = 0; l < w.size(); ++l) {
                acc |= static_cast<PackedWord>(w[l]) << (4 * l);
              }
              packed.push_back(acc);
            }
            std::sort(packed.begin(), packed.end());
            return packed;
          });
          const auto actual = tryOp<std::vector<PackedWord>>(
              [&] { return kernels::collectPackedWords(*c, n, limit); });
          if (reference.has_value() != actual.has_value()) {
            return "collectPackedWords throw disagreement at limit " +
                   std::to_string(limit);
          }
          if (reference && *reference != *actual) {
            return "collectPackedWords word-set mismatch at limit " +
                   std::to_string(limit);
          }
          if (!reference) {
            const std::string refError =
                errorOf([&] { return c->enumerateWords(n, limit); });
            const std::string error = errorOf(
                [&] { return kernels::collectPackedWords(*c, n, limit); });
            if (error != refError) {
              return "collectPackedWords Error '" + error +
                     "' != enumerateWords '" + refError + "'";
            }
          }
        }
        return {};
      });
}

TEST(PropKernels, PackedCollectionFallbackCountsTheGlobalLimit) {
  // [A B]^3 has more words than the limit, so it is enumerated through the
  // deduplicating forEachWord; the word C^3 collected before it pushes the
  // global distinct count past the limit first, as in enumerateWords.
  const re::Constraint c(
      3, {re::Configuration({{re::LabelSet{2}, 3}}),
          re::Configuration({{re::LabelSet{0, 1}, 3}})});
  EXPECT_EQ(errorOf([&] { return c.enumerateWords(3, 2); }),
            "enumerateWords: word count exceeds limit");
  EXPECT_EQ(errorOf([&] { return kernels::collectPackedWords(c, 3, 2); }),
            "enumerateWords: word count exceeds limit");
  EXPECT_EQ(
      errorOf([&] {
        return kernels::collectPackedWords<kernels::WidePackedWord>(c, 3, 2);
      }),
      "enumerateWords: word count exceeds limit");
  EXPECT_EQ(kernels::collectPackedWords(c, 3, 5).size(), 5u);
}

TEST(PropKernels, SwarDominationMatchesLinearScan) {
  prop::forAllProblems(
      {.name = "kernels-domination", .gen = {}, .baseSeed = 62000},
      [](const re::Problem& p, std::mt19937& rng) -> std::string {
        const int n = p.alphabet.size();
        const auto words =
            kernels::collectPackedWords(p.node, n, 100'000);
        std::vector<ExpandedWord> expanded;
        expanded.reserve(words.size());
        for (const PackedWord w : words) {
          expanded.push_back(kernels::expandWord(w));
        }
        // Probes: prefixes of allowed words (knock random slots out) plus
        // random perturbations, covering both verdicts.
        for (int probeIdx = 0; probeIdx < 32; ++probeIdx) {
          PackedWord probe = words[rng() % words.size()];
          for (int knock = 0; knock < 3; ++knock) {
            const int l = static_cast<int>(rng() % static_cast<unsigned>(n));
            const PackedWord count = (probe >> (4 * l)) & 0xF;
            if (count > 0 && rng() % 2 == 0) {
              probe -= PackedWord{1} << (4 * l);
            } else if (rng() % 4 == 0 && count < 15) {
              probe += PackedWord{1} << (4 * l);
            }
          }
          bool reference = false;
          for (const PackedWord w : words) {
            bool ok = true;
            for (int l = 0; l < n; ++l) {
              if (((probe >> (4 * l)) & 0xF) > ((w >> (4 * l)) & 0xF)) {
                ok = false;
                break;
              }
            }
            if (ok) {
              reference = true;
              break;
            }
          }
          const bool actual = kernels::dominatedBySome(
              kernels::expandWord(probe), expanded.data(), expanded.size());
          if (actual != reference) {
            return "dominatedBySome mismatch on probe " +
                   std::to_string(probe);
          }
        }
        return {};
      });
}

// Every packed word of total `d` over `n` labels, ascending.
std::vector<PackedWord> allWordsOfTotal(int n, int d) {
  std::vector<PackedWord> out;
  const auto rec = [&](const auto& self, int label, int left,
                       PackedWord acc) -> void {
    if (label == n - 1) {
      out.push_back(acc + (static_cast<PackedWord>(left) << (4 * label)));
      return;
    }
    for (int take = 0; take <= left; ++take) {
      self(self, label + 1, left - take,
           acc + (static_cast<PackedWord>(take) << (4 * label)));
    }
  };
  rec(rec, 0, d, 0);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PropKernels, CompletionTableMatchesDomination) {
  // Layer d holds exactly the words of total d that some node word
  // dominates, and the transition table links each layer word to its
  // one-label extensions in the next layer.
  prop::forAllProblems(
      {.name = "kernels-completion-table",
       .gen = {.maxAlphabet = 7, .maxDelta = 6},
       .baseSeed = 62500},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const int n = p.alphabet.size();
        const int delta = static_cast<int>(p.delta());
        const auto nodeWords = kernels::collectPackedWords(p.node, n, 100'000);
        std::vector<ExpandedWord> expanded;
        for (const PackedWord w : nodeWords) {
          expanded.push_back(kernels::expandWord(w));
        }
        const kernels::CompletionTable table(nodeWords, n, delta);
        for (int d = 0; d <= delta; ++d) {
          std::vector<PackedWord> reference;
          for (const PackedWord w : allWordsOfTotal(n, d)) {
            if (kernels::dominatedBySome(kernels::expandWord(w),
                                         expanded.data(), expanded.size())) {
              reference.push_back(w);
            }
          }
          if (table.layer(d) != reference) {
            return "layer " + std::to_string(d) + " has " +
                   std::to_string(table.layer(d).size()) + " words, " +
                   std::to_string(reference.size()) + " are completable";
          }
        }
        for (int d = 0; d < delta; ++d) {
          const auto& layer = table.layer(d);
          const auto& upper = table.layer(d + 1);
          for (std::size_t k = 0; k < layer.size(); ++k) {
            for (int l = 0; l < n; ++l) {
              const PackedWord w = layer[k] + (PackedWord{1} << (4 * l));
              const auto it = std::lower_bound(upper.begin(), upper.end(), w);
              const std::int32_t expected =
                  it != upper.end() && *it == w
                      ? static_cast<std::int32_t>(it - upper.begin())
                      : -1;
              const std::int32_t actual =
                  table.next(d)[k * static_cast<std::size_t>(n) +
                                static_cast<std::size_t>(l)];
              if (actual != expected) {
                return "next[" + std::to_string(d) + "][" +
                       std::to_string(k) + ", " + std::to_string(l) +
                       "] = " + std::to_string(actual) + ", expected " +
                       std::to_string(expected);
              }
            }
          }
        }
        return {};
      });
}

TEST(PropKernels, BitmaskMatchingMatchesReferenceAndRelaxesTo) {
  prop::forAllProblems(
      {.name = "kernels-slots-relax", .gen = {}, .baseSeed = 63000},
      [](const re::Problem& p, std::mt19937& rng) -> std::string {
        const int n = p.alphabet.size();
        const auto rel =
            refimpl::computeStrength(p.node, n, 100'000);
        const auto rcSets = refimpl::allRightClosedSets(rel, p.alphabet.all());
        if (rcSets.empty()) return {};
        for (int trial = 0; trial < 24; ++trial) {
          const int len = 1 + static_cast<int>(rng() % 4);
          std::vector<re::LabelSet> a, b;
          std::vector<std::uint32_t> aBits, bBits;
          for (int i = 0; i < len; ++i) {
            a.push_back(rcSets[rng() % rcSets.size()]);
            b.push_back(rcSets[rng() % rcSets.size()]);
            aBits.push_back(a.back().bits());
            bBits.push_back(b.back().bits());
          }
          const bool reference = refimpl::slotsRelaxTo(a, b);
          const bool actual =
              kernels::slotsRelaxTo(aBits.data(), bBits.data(), len);
          if (actual != reference) {
            return "slotsRelaxTo mismatch: a = " + describeSets(a) +
                   "b = " + describeSets(b);
          }
          // Definition 7 equals Configuration::relaxesTo on the slot
          // encoding; cross-check against the flow-based implementation.
          std::vector<re::Group> ga, gb;
          for (const re::LabelSet s : a) ga.push_back({s, 1});
          for (const re::LabelSet s : b) gb.push_back({s, 1});
          const bool flow = re::Configuration(std::move(ga))
                                .relaxesTo(re::Configuration(std::move(gb)));
          if (flow != reference) {
            return "slotsRelaxTo disagrees with Configuration::relaxesTo: "
                   "a = " + describeSets(a) + "b = " + describeSets(b);
          }
        }
        return {};
      });
}

TEST(PropKernels, ShapeBasedEdgeAnalysisMatchesWordProbes) {
  prop::forAllProblems(
      {.name = "kernels-edge-compat", .gen = {}, .baseSeed = 64000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const int n = p.alphabet.size();
        const auto reference = refimpl::edgeCompatibility(p.edge, n);
        const auto actual = re::edgeCompatibility(p.edge, n);
        if (actual != reference) return "edgeCompatibility mismatch";
        const re::LabelSet refSelf = refimpl::selfCompatibleLabels(p);
        if (re::selfCompatibleLabels(p) != refSelf) {
          return "selfCompatibleLabels mismatch";
        }
        for (int l = 0; l < n; ++l) {
          if (re::selfCompatible(p, static_cast<re::Label>(l)) !=
              refSelf.contains(static_cast<re::Label>(l))) {
            return "selfCompatible mismatch at label " + std::to_string(l);
          }
        }
        return {};
      });
}

// A random symmetric compatibility matrix over n labels, the shape
// edgeCompatibility returns: each pair {a, b} (a == b included) is
// compatible with probability `density`, and each label is left with no
// compatible label at all with probability `emptyRow`.
std::vector<re::LabelSet> randomCompat(std::mt19937& rng, int n,
                                       double density, double emptyRow) {
  std::bernoulli_distribution pair(density);
  std::bernoulli_distribution empty(emptyRow);
  std::vector<re::LabelSet> compat(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    for (int b = a; b < n; ++b) {
      if (!pair(rng)) continue;
      compat[static_cast<std::size_t>(a)].insert(static_cast<re::Label>(b));
      compat[static_cast<std::size_t>(b)].insert(static_cast<re::Label>(a));
    }
  }
  for (int a = 0; a < n; ++a) {
    if (!empty(rng)) continue;
    compat[static_cast<std::size_t>(a)] = re::LabelSet{};
    for (auto& row : compat) row.erase(static_cast<re::Label>(a));
  }
  return compat;
}

std::uint64_t closedSetsCounted() {
  return obs::Registry::global().snapshot().counterValue("re.r.closed_sets");
}

TEST(PropKernels, ClosedSetEnumerationMatchesSubsetSweep) {
  const int iterations = prop::envIterations(200);
  for (int i = 0; i < iterations; ++i) {
    std::mt19937 rng(testsupport::effectiveSeed(68000 + i));
    const int n = 1 + i % 16;
    const double density =
        std::uniform_real_distribution<double>(0.05, 0.95)(rng);
    const auto compat = randomCompat(rng, n, density, 0.1);
    EXPECT_EQ(re::detail::maximalEdgePairsFromCompat(compat, n),
              refimpl::maximalEdgePairs(compat, n))
        << "case " << i << ": n=" << n << ", rows " << describeSets(compat);
  }
}

TEST(PropKernels, ClosedSetEnumerationOnTheWorstCase) {
  // compat[a] = all labels but a: the row intersections are the complements
  // of the nonempty sets A, so there are 2^n - 2 closed sets, the most any
  // matrix has, paired as (A, complement of A).  Each row of the closure
  // adds as many sets as it finds.
  for (int n = 1; n <= 12; ++n) {
    const re::LabelSet all = re::LabelSet::full(n);
    std::vector<re::LabelSet> compat;
    for (int a = 0; a < n; ++a) {
      compat.push_back(all - re::LabelSet{static_cast<re::Label>(a)});
    }
    const std::uint64_t before = closedSetsCounted();
    const auto actual = re::detail::maximalEdgePairsFromCompat(compat, n);
    EXPECT_EQ(closedSetsCounted() - before, (std::uint64_t{1} << n) - 2)
        << "n=" << n;
    EXPECT_EQ(actual.size(), (std::size_t{1} << (n - 1)) - 1) << "n=" << n;
    for (const auto& [a, b] : actual) {
      EXPECT_EQ(a | b, all) << "n=" << n;
      EXPECT_TRUE((a & b).empty()) << "n=" << n;
    }
    EXPECT_EQ(actual, refimpl::maximalEdgePairs(compat, n)) << "n=" << n;
  }
}

TEST(PropKernels, ClosedSetEnumerationOnDegenerateMatrices) {
  for (int n = 1; n <= 16; ++n) {
    // No label compatible with any: no closed set, no pair.
    const std::vector<re::LabelSet> none(static_cast<std::size_t>(n));
    EXPECT_TRUE(re::detail::maximalEdgePairsFromCompat(none, n).empty())
        << "n=" << n;
    EXPECT_EQ(refimpl::maximalEdgePairs(none, n).size(), 0u) << "n=" << n;
    // Everything compatible: the one pair (all, all).
    const re::LabelSet all = re::LabelSet::full(n);
    const std::vector<re::LabelSet> full(static_cast<std::size_t>(n), all);
    const auto actual = re::detail::maximalEdgePairsFromCompat(full, n);
    EXPECT_EQ(actual, (std::vector<std::pair<re::LabelSet, re::LabelSet>>{
                          {all, all}}))
        << "n=" << n;
    EXPECT_EQ(actual, refimpl::maximalEdgePairs(full, n)) << "n=" << n;
  }
  // Past 20 labels both refuse with the same text, which the step store
  // persists for refused steps.
  const std::vector<re::LabelSet> wide(21, re::LabelSet::full(21));
  const std::string text =
      errorOf([&] { return re::detail::maximalEdgePairsFromCompat(wide, 21); });
  EXPECT_EQ(text, "maximalEdgePairs: alphabet too large to enumerate subsets");
  EXPECT_EQ(text, errorOf([&] { return refimpl::maximalEdgePairs(wide, 21); }));
}

// The swapped-orientation domination filter maximalEdgePairs once ran over
// its closed pairs: the number of pairs it would drop, each dominated by
// another pair in the same or the swapped orientation.
std::size_t pairsTheOldFilterDrops(
    const std::vector<std::pair<re::LabelSet, re::LabelSet>>& pairs) {
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      if (j == i) continue;
      const auto& [a, b] = pairs[i];
      const auto& [c, d] = pairs[j];
      if ((a.subsetOf(c) && b.subsetOf(d)) ||
          (a.subsetOf(d) && b.subsetOf(c))) {
        ++dropped;
        break;
      }
    }
  }
  return dropped;
}

TEST(PropKernels, ClosedPairsNeedNoDominationFilter) {
  // Distinct closed pairs of a symmetric relation dominate each other in
  // neither orientation (the proof is in edge_compat.cpp), so the filter
  // removed nothing: checked on edgeCompatibility's matrices and on random
  // symmetric ones, where the closed pairs also match the reference, which
  // still filters.
  prop::forAllProblems(
      {.name = "kernels-closed-pairs", .gen = {}, .baseSeed = 69000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const int n = p.alphabet.size();
        const auto pairs = re::maximalEdgePairs(p.edge, n);
        if (const std::size_t dropped = pairsTheOldFilterDrops(pairs)) {
          return "the filter would drop " + std::to_string(dropped) +
                 " of " + std::to_string(pairs.size()) + " pairs";
        }
        return {};
      });
  const int iterations = prop::envIterations(200);
  for (int i = 0; i < iterations; ++i) {
    std::mt19937 rng(testsupport::effectiveSeed(69500 + i));
    const int n = 1 + i % 14;
    const double density =
        std::uniform_real_distribution<double>(0.05, 0.95)(rng);
    const auto compat = randomCompat(rng, n, density, 0.1);
    const auto pairs = re::detail::maximalEdgePairsFromCompat(compat, n);
    EXPECT_EQ(pairsTheOldFilterDrops(pairs), 0u)
        << "case " << i << ": n=" << n << ", rows " << describeSets(compat);
    EXPECT_EQ(pairs, refimpl::maximalEdgePairs(compat, n)) << "case " << i;
  }
}

TEST(PropKernels, PackedStrengthMatchesEnumerationReference) {
  prop::forAllProblems(
      {.name = "kernels-strength", .gen = {}, .baseSeed = 65000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const int n = p.alphabet.size();
        for (const re::Constraint* c : {&p.node, &p.edge}) {
          const auto reference = refimpl::computeStrength(*c, n, 100'000);
          const auto actual = re::computeStrength(*c, n, 100'000);
          for (int s = 0; s < n; ++s) {
            for (int w = 0; w < n; ++w) {
              if (actual.atLeastAsStrong(static_cast<re::Label>(s),
                                         static_cast<re::Label>(w)) !=
                  reference.atLeastAsStrong(static_cast<re::Label>(s),
                                            static_cast<re::Label>(w))) {
                return "computeStrength mismatch at (" + std::to_string(s) +
                       ", " + std::to_string(w) + ")";
              }
            }
          }
          const auto refSets =
              refimpl::allRightClosedSets(reference, p.alphabet.all());
          if (actual.allRightClosedSets(p.alphabet.all()) != refSets) {
            return "allRightClosedSets mismatch";
          }
        }
        return {};
      });
}

// computeStrength vs the reference on `c`: the same relation, or the same
// Error message.
std::string compareStrength(const re::Constraint& c, int n,
                            std::size_t limit) {
  std::optional<re::StrengthRelation> reference, actual;
  const std::string refError = errorOf(
      [&] { return reference = refimpl::computeStrength(c, n, limit); });
  const std::string error =
      errorOf([&] { return actual = re::computeStrength(c, n, limit); });
  if (error != refError) {
    return "computeStrength Error '" + error + "' != reference '" + refError +
           "' at limit " + std::to_string(limit);
  }
  if (reference && !(*actual == *reference)) {
    return "computeStrength relation mismatch at limit " +
           std::to_string(limit);
  }
  return {};
}

TEST(PropKernels, WidePackedStrengthMatchesEnumerationReference) {
  // 17..32 labels: the unsigned __int128 word width.
  prop::forAllProblems(
      {.name = "kernels-strength-wide",
       .gen = {.minAlphabet = 17, .maxAlphabet = 32, .maxDelta = 4},
       .baseSeed = 65500},
      [](const re::Problem& p, std::mt19937& rng) -> std::string {
        const int n = p.alphabet.size();
        // A tight limit half the time, so the throw path is exercised too.
        const std::size_t limit =
            (rng() % 2 == 0) ? 100'000 : 1 + rng() % 8;
        for (const re::Constraint* c : {&p.node, &p.edge}) {
          const std::string failure = compareStrength(*c, n, limit);
          if (!failure.empty()) return failure;
        }
        return {};
      });
}

TEST(PropKernels, WidePackedStrengthOnThePiChainsThirtyLabelConstraint) {
  // Pi_4(2, 0) -> R -> Rbar -> R yields the 30-label problem whose Rbar
  // the derivation of the pi family refuses by its universe guard.  Its
  // strength relation is still computable, and the right-closed-set sweep
  // refuses the universe too.
  const re::Problem pi = core::familyProblem(4, 2, 0);
  const re::Problem q =
      re::applyR(re::applyRbar(re::applyR(pi).problem).problem).problem;
  ASSERT_EQ(q.alphabet.size(), 30);
  ASSERT_EQ(q.node.degree(), 4);
  const std::size_t words =
      kernels::collectPackedWords<kernels::WidePackedWord>(q.node, 30,
                                                           2'000'000)
          .size();
  EXPECT_EQ(compareStrength(q.node, 30, words), "");
  EXPECT_EQ(compareStrength(q.node, 30, words - 1), "");
  EXPECT_EQ(errorOf([&] { return re::computeStrength(q.node, 30, words - 1); }),
            "enumerateWords: word count exceeds limit");
  const re::StrengthRelation rel = re::computeStrength(q.node, 30);
  EXPECT_EQ(errorOf([&] { return rel.allRightClosedSets(q.alphabet.all()); }),
            "allRightClosedSets: universe too large");
}

TEST(PropKernels, ApplyRMatchesPreRewritePipeline) {
  // R reads no StepOptions field, so there is no width to vary; the free
  // operator and a session's memoized step must both match the reference.
  prop::forAllProblems(
      {.name = "kernels-apply-r", .gen = {}, .baseSeed = 66000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const auto reference =
            tryOp<re::StepResult>([&] { return refimpl::applyR(p); });
        re::EngineSession session;
        const std::pair<const char*, std::optional<re::StepResult>> paths[] = {
            {"free applyR",
             tryOp<re::StepResult>([&] { return re::applyR(p); })},
            {"session applyR",
             tryOp<re::StepResult>([&] { return session.applyR(p); })}};
        for (const auto& [name, actual] : paths) {
          if (actual.has_value() != reference.has_value()) {
            return std::string(name) + ": throw disagreement";
          }
          if (actual && !(actual->problem == reference->problem &&
                          actual->meaning == reference->meaning)) {
            return std::string(name) + ": result differs from reference";
          }
        }
        return {};
      });
}

TEST(PropKernels, ApplyRbarMatchesPreRewritePipeline) {
  // Rbar runs on R's output, like in a real speedup step; cap the input
  // size the same way prop_step_test does to keep the suite fast.
  prop::forAllProblems(
      {.name = "kernels-apply-rbar",
       .gen = {.maxAlphabet = 4, .maxDelta = 3},
       .baseSeed = 67000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const auto input =
            tryOp<re::StepResult>([&] { return re::applyR(p); });
        if (!input || input->problem.alphabet.size() > 6) return {};
        const re::Problem& q = input->problem;
        const auto reference =
            tryOp<re::StepResult>([&] { return refimpl::applyRbar(q); });
        for (const int threads : {1, 2, 8}) {
          re::StepOptions options;
          options.numThreads = threads;
          const auto actual = tryOp<re::StepResult>(
              [&] { return re::applyRbar(q, options); });
          if (actual.has_value() != reference.has_value()) {
            return "applyRbar throw disagreement at numThreads=" +
                   std::to_string(threads);
          }
          if (actual && !(actual->problem == reference->problem &&
                          actual->meaning == reference->meaning)) {
            return "applyRbar result differs from reference at "
                   "numThreads=" + std::to_string(threads);
          }
        }
        return {};
      });
}

}  // namespace
}  // namespace relb
