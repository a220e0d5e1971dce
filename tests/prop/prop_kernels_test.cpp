// Differential oracles for the bit-parallel hot-path kernels.
//
// Every kernel introduced by the flat-buffer rewrite of the R/Rbar sweep is
// compared against the container-based implementation it replaced
// (reference_step.hpp), on generated problems:
//
//   * packed word collection vs Constraint::enumerateWords (including
//     agreement on *throwing* under a tight enumeration limit);
//   * SWAR domination and the open-addressing completability memo vs the
//     nibble-loop linear scan, including >= 10k keys that agree on their
//     low labels (the keys a low-bits hash would pile into one probe run);
//   * bitmask Kuhn matching (kernels::slotsRelaxTo) vs the std::function
//     version, cross-checked against Configuration::relaxesTo;
//   * shape-based edge compatibility and self-compatible labels vs the
//     containsWord probes;
//   * packed computeStrength and the closure-table right-closed-set sweep
//     vs the std::set<Word> originals, at 64-bit (<= 16 labels) and 128-bit
//     (17..32 labels, including the 30-label node constraint of the Pi
//     chain) word widths, and on the enumeration-limit Error message;
//   * the full applyR / applyRbar operators vs the pre-rewrite pipeline,
//     at thread widths 1, 2 and 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/family.hpp"
#include "prop/prop.hpp"
#include "prop/reference_step.hpp"
#include "re/bitkernels.hpp"
#include "re/packed_words.hpp"
#include "re/zero_round.hpp"
#include "util/arena.hpp"

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

TEST(PropKernels, SwarDominationAndMemoMatchLinearScan) {
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
        util::Arena arena;
        kernels::CompletabilityMemo memo(arena);
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
          // The memo must return the computed verdict on first call and the
          // cached one (without recomputing) on the second.
          int computeCalls = 0;
          const auto compute = [&] {
            ++computeCalls;
            return kernels::dominatedBySome(kernels::expandWord(probe),
                                            expanded.data(), expanded.size());
          };
          const bool first = memo.getOrCompute(probe, compute);
          const bool second = memo.getOrCompute(probe, compute);
          if (first != reference || second != reference || computeCalls > 1) {
            return "CompletabilityMemo mismatch on probe " +
                   std::to_string(probe);
          }
        }
        return {};
      });
}

TEST(PropKernels, MemoSpreadsKeysThatAgreeOnLowLabels) {
  // 12288 distinct keys with labels 0..2 fixed at counts (1, 0, 2) and the
  // key index spread over the nibbles of labels 3..15.  The memo starts at
  // 256 slots, so these keys pass through several grow() rehashes.
  constexpr PackedWord kLow = 0x201;
  std::vector<PackedWord> keys;
  for (PackedWord i = 0; i < 12288; ++i) keys.push_back(kLow | (i << 12));
  std::mt19937 rng(4242);
  std::vector<ExpandedWord> table;
  for (int t = 0; t < 64; ++t) {
    PackedWord w = kLow;
    for (int l = 3; l < 16; ++l) {
      w |= static_cast<PackedWord>(rng() % 4) << (4 * l);
    }
    table.push_back(kernels::expandWord(w));
  }
  util::Arena arena;
  kernels::CompletabilityMemo memo(arena);
  std::size_t computeCalls = 0;
  const auto verdictOf = [&](PackedWord key) {
    return memo.getOrCompute(key, [&] {
      ++computeCalls;
      return kernels::dominatedBySome(kernels::expandWord(key), table.data(),
                                      table.size());
    });
  };
  std::size_t dominated = 0;
  for (const PackedWord key : keys) {
    const bool reference = kernels::dominatedBySome(
        kernels::expandWord(key), table.data(), table.size());
    dominated += reference ? 1 : 0;
    ASSERT_EQ(verdictOf(key), reference) << "first query, key " << key;
  }
  EXPECT_EQ(computeCalls, keys.size());
  EXPECT_GT(dominated, 0u);
  EXPECT_LT(dominated, keys.size());
  std::size_t totalDistance = 0;
  for (const PackedWord key : keys) {
    const bool reference = kernels::dominatedBySome(
        kernels::expandWord(key), table.data(), table.size());
    ASSERT_EQ(verdictOf(key), reference) << "second query, key " << key;
    totalDistance += memo.probeDistance(key);
  }
  EXPECT_EQ(computeCalls, keys.size()) << "a second query recomputed";
  // Linear probing at <= 70% load keeps the mean distance near one slot; a
  // hash that ignored the high labels would put every key in one run
  // (thousands of slots on average).
  EXPECT_LT(totalDistance, 4 * keys.size());
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
  // the derivation of the pi family refuses: its strength relation is
  // computed, and its right-closed-set sweep then refuses the universe.
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
  prop::forAllProblems(
      {.name = "kernels-apply-r", .gen = {}, .baseSeed = 66000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const auto reference =
            tryOp<re::StepResult>([&] { return refimpl::applyR(p); });
        for (const int threads : {1, 2, 8}) {
          re::StepOptions options;
          options.numThreads = threads;
          const auto actual =
              tryOp<re::StepResult>([&] { return re::applyR(p, options); });
          if (actual.has_value() != reference.has_value()) {
            return "applyR throw disagreement at numThreads=" +
                   std::to_string(threads);
          }
          if (actual && !(actual->problem == reference->problem &&
                          actual->meaning == reference->meaning)) {
            return "applyR result differs from reference at numThreads=" +
                   std::to_string(threads);
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
