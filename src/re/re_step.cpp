#include "re/re_step.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "re/antichain.hpp"
#include "re/bitkernels.hpp"
#include "re/packed_words.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace relb::re {

namespace {

using detail::SignatureBuckets;
using kernels::PackedWord;

// Registry references are interned once; hot loops accumulate locally and
// add to the shared counter once per item (see docs/observability.md).
struct StepCounters {
  obs::Counter& rbarCandidates;
  obs::Counter& rbarMaximal;
  obs::Counter& antichainPairs;
  obs::Counter& antichainTests;
  obs::Counter& antichainPrefiltered;
  obs::Counter& labelsProduced;
};

StepCounters& stepCounters() {
  auto& reg = obs::Registry::global();
  static StepCounters c{
      reg.counter("re.rbar.candidates"), reg.counter("re.rbar.maximal"),
      reg.counter("re.antichain.pairs"), reg.counter("re.antichain.tests"),
      reg.counter("re.antichain.prefiltered"),
      reg.counter("re.labels.produced")};
  return c;
}

// Per-thread arena pair for the step hot paths (see util/arena.hpp):
// `scratch` backs the DFS level buffers under strict mark/rewind LIFO;
// `results` backs the completability memo and the candidate accumulator,
// whose growth is non-LIFO and is reclaimed only by reset() at the start of
// the next step on this thread.
struct StepArenas {
  util::Arena scratch;
  util::Arena results;
};

StepArenas& stepArenas() {
  thread_local StepArenas arenas;
  return arenas;
}

// Builds the fresh alphabet for a collection of label sets over the old
// alphabet.  Singletons keep their old name; larger sets get a parenthesized
// concatenation, e.g. "(MOX)".
Alphabet freshAlphabet(const std::vector<LabelSet>& sets,
                       const Alphabet& oldAlphabet) {
  Alphabet fresh;
  for (LabelSet s : sets) {
    const auto labels = s.toVector();
    if (labels.size() == 1) {
      fresh.add(oldAlphabet.name(labels[0]));
      continue;
    }
    std::string name = "(";
    bool multiChar = false;
    for (Label l : labels) multiChar |= oldAlphabet.name(l).size() > 1;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0 && multiChar) name += ' ';
      name += oldAlphabet.name(labels[i]);
    }
    name += ')';
    fresh.add(std::move(name));
  }
  return fresh;
}

// Replacement method (Section 2.3): rewrites a constraint over the old
// alphabet into one over the fresh alphabet by replacing every old label y
// with the disjunction of all fresh labels whose meaning contains y; for a
// group with set S this is the set of fresh labels whose meaning intersects
// S.  The per-old-label fresh-set table turns the per-group scan over all
// fresh meanings into an OR of precomputed masks.
Constraint replaceConstraint(const Constraint& constraint,
                             const std::vector<LabelSet>& meaning) {
  assert(meaning.size() <= static_cast<std::size_t>(kMaxLabels));
  std::array<std::uint32_t, kMaxLabels> freshOf{};
  for (std::size_t n = 0; n < meaning.size(); ++n) {
    forEachLabel(meaning[n],
                 [&](Label y) { freshOf[y] |= std::uint32_t{1} << n; });
  }
  Constraint out(constraint.degree(), {});
  for (const auto& c : constraint.configurations()) {
    // A group whose labels are represented by no fresh label makes the whole
    // configuration unrealizable; drop it.
    bool realizable = true;
    auto mapped = c.mapSets([&](LabelSet oldSet) {
      std::uint32_t fresh = 0;
      forEachLabel(oldSet, [&](Label y) { fresh |= freshOf[y]; });
      if (fresh == 0) {
        realizable = false;
        fresh = 1;  // placeholder; configuration is discarded
      }
      return LabelSet(fresh);
    });
    if (realizable) out.add(std::move(mapped));
  }
  return out;
}

// Sorted deduplicated copy of `sets` -- the fresh-label meaning order, equal
// to iterating a std::set<LabelSet> of the same elements.
std::vector<LabelSet> sortedDistinctSets(std::vector<LabelSet> sets) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

}  // namespace

StepResult detail::applyR(const Problem& p, const StepOptions& options,
                          const SubResult& compat) {
  p.validate();
  const auto pairs = detail::maximalEdgePairsFromCompat(
      compat(), p.alphabet.size(), options.numThreads);
  if (pairs.empty()) {
    throw Error("applyR: empty edge constraint after maximization");
  }

  // Fresh alphabet: all sets appearing in a maximal pair, ordered by bitset
  // value for determinism.
  std::vector<LabelSet> setsSeen;
  setsSeen.reserve(pairs.size() * 2);
  for (const auto& [a, b] : pairs) {
    setsSeen.push_back(a);
    setsSeen.push_back(b);
  }
  StepResult result;
  result.meaning = sortedDistinctSets(std::move(setsSeen));
  result.problem.alphabet = freshAlphabet(result.meaning, p.alphabet);
  stepCounters().labelsProduced.add(result.meaning.size());

  const auto freshLabelOf = [&](LabelSet s) {
    const auto it = std::lower_bound(result.meaning.begin(),
                                     result.meaning.end(), s);
    assert(it != result.meaning.end() && *it == s);
    return static_cast<Label>(it - result.meaning.begin());
  };

  Constraint edge(2, {});
  for (const auto& [a, b] : pairs) {
    const Label la = freshLabelOf(a);
    const Label lb = freshLabelOf(b);
    if (la == lb) {
      edge.add(Configuration({{LabelSet{la}, 2}}));
    } else {
      edge.add(Configuration({{LabelSet{la}, 1}, {LabelSet{lb}, 1}}));
    }
  }
  result.problem.edge = std::move(edge);
  result.problem.node = replaceConstraint(p.node, result.meaning);
  result.problem.validate();
  return result;
}

StepResult applyR(const Problem& p, const StepOptions& options) {
  return detail::applyR(p, options, [&] {
    return edgeCompatibility(p.edge, p.alphabet.size());
  });
}

namespace {

// Words with per-label counts <= 15 over alphabets of <= 16 labels pack into
// one uint64 (4 bits per label); the Rbar enumeration runs entirely on this
// encoding (see re/bitkernels.hpp and re/packed_words.hpp for the
// primitives).
//
// Enumerates multisets of right-closed sets of size delta (non-decreasing
// index sequences) with prefix sharing: the level set of distinct partial
// choice words is extended one slot at a time, and a branch dies as soon as
// some partial word can no longer be completed to an allowed word.  Level
// buffers live in the scratch arena under mark/rewind; the memo and the
// flat candidate accumulator live in the results arena.  Each enumerator
// owns its arenas and output, so independent top-level branches can run on
// separate threads.
struct RbarEnumerator {
  const std::vector<LabelSet>& rcSets;
  const PackedWord* nodeWords;  // sorted ascending
  const kernels::ExpandedWord* nodeWordsExpanded;  // same order
  const std::size_t nodeWordCount;
  const Count delta;

  util::Arena& scratch;
  // The same partial word recurs across many branches; memoize its
  // completability.
  kernels::CompletabilityMemo memo;
  // Accepted candidates as delta-strided slot records: candidate k occupies
  // valid[k*delta .. (k+1)*delta), each entry a LabelSet::bits() value, in
  // the (non-decreasing) order the DFS chose the slots.
  util::ArenaVector<std::uint32_t> valid;
  std::uint32_t slots[16];
  Count depth = 0;

  RbarEnumerator(const std::vector<LabelSet>& rcSets,
                 const PackedWord* nodeWords,
                 const kernels::ExpandedWord* nodeWordsExpanded,
                 std::size_t nodeWordCount, Count delta, util::Arena& scratch,
                 util::Arena& results)
      : rcSets(rcSets),
        nodeWords(nodeWords),
        nodeWordsExpanded(nodeWordsExpanded),
        nodeWordCount(nodeWordCount),
        delta(delta),
        scratch(scratch),
        memo(results),
        valid(results) {}

  bool canComplete(PackedWord w) {
    return memo.getOrCompute(w, [&] {
      return kernels::dominatedBySome(kernels::expandWord(w),
                                      nodeWordsExpanded, nodeWordCount);
    });
  }

  // One loop iteration of rec: extend `level` by slot set rcSets[i] and
  // recurse if every resulting partial word is still completable.  Each word
  // is tested as it is generated, so a dead branch (most of them) stops at
  // its first uncompletable word; duplicates cost one memo hit each.  Only a
  // viable level is sorted and deduplicated.  `level` is sorted, so the words
  // level + e_l for one label l form a sorted run; generating run by run
  // makes the sort a bottom-up merge of |rcSets[i]| runs.
  void descend(std::size_t i, const PackedWord* level, std::size_t levelSize) {
    const util::Arena::Mark levelMark = scratch.mark();
    const std::uint32_t setBits = rcSets[i].bits();
    const std::size_t total =
        levelSize * static_cast<std::size_t>(rcSets[i].size());
    PackedWord* next = scratch.allocate<PackedWord>(total);
    PackedWord* out = next;
    for (std::uint32_t m = setBits; m != 0; m &= m - 1) {
      const PackedWord unit = PackedWord{1} << (4 * __builtin_ctz(m));
      for (std::size_t k = 0; k < levelSize; ++k) {
        const PackedWord w = level[k] + unit;
        if (!canComplete(w)) {
          scratch.rewind(levelMark);
          return;
        }
        *out++ = w;
      }
    }
    PackedWord* spare = scratch.allocate<PackedWord>(total);
    for (std::size_t run = levelSize; run < total; run *= 2) {
      for (std::size_t lo = 0; lo < total; lo += 2 * run) {
        const std::size_t mid = std::min(lo + run, total);
        const std::size_t hi = std::min(lo + 2 * run, total);
        std::merge(next + lo, next + mid, next + mid, next + hi, spare + lo);
      }
      std::swap(next, spare);
    }
    const std::size_t nextSize =
        static_cast<std::size_t>(std::unique(next, next + total) - next);
    slots[depth++] = setBits;
    rec(i, next, nextSize);
    --depth;
    scratch.rewind(levelMark);
  }

  void rec(std::size_t minIdx, const PackedWord* level,
           std::size_t levelSize) {
    if (depth == delta) {
      // Completion: every distinct choice word must be allowed.
      const bool all =
          std::all_of(level, level + levelSize, [&](PackedWord w) {
            return std::binary_search(nodeWords, nodeWords + nodeWordCount, w);
          });
      if (all) valid.append(slots, static_cast<std::size_t>(delta));
      return;
    }
    for (std::size_t i = minIdx; i < rcSets.size(); ++i) {
      descend(i, level, levelSize);
    }
  }
};

// Encodes a delta-strided slot record as a Configuration whose groups carry
// the slot sets directly (one group per distinct set).  Slots arrive in
// non-decreasing bits() order (the DFS chooses rcSets indices monotonically
// and rcSets is ascending), so a run-length scan produces the groups already
// normalized; under this encoding, Configuration::relaxesTo is exactly the
// relaxation order of Definition 7.
Configuration slotsToConfiguration(const std::uint32_t* slots, Count delta) {
  std::vector<Group> groups;
  for (Count k = 0; k < delta;) {
    Count run = k + 1;
    while (run < delta && slots[run] == slots[k]) ++run;
    groups.push_back({LabelSet(slots[k]), run - k});
    k = run;
  }
  return Configuration(std::move(groups));
}

}  // namespace

StepResult detail::applyRbar(const Problem& p, const StepOptions& options,
                             const SubResult& rightClosedSets) {
  p.validate();
  const int n = p.alphabet.size();
  const Count delta = p.delta();
  if (delta > options.maxRbarDelta) {
    throw Error("applyRbar: node degree too large for exact maximization");
  }

  // Strength relation w.r.t. the node constraint -> right-closed candidate
  // slot sets (Observation 4 plus the up-closure argument documented in
  // re_step.hpp).
  const std::vector<LabelSet> rcSets = rightClosedSets();

  if (n > 16 || delta > 15) {
    throw Error("applyRbar: packed-word enumeration needs <= 16 labels and "
                "delta <= 15");
  }
  const std::vector<PackedWord> nodeWords =
      kernels::collectPackedWords(p.node, n, options.enumerationLimit);
  // Pre-expanded copy for the branch-free domination kernel; shared
  // read-only by every enumeration lane.
  std::vector<kernels::ExpandedWord> nodeWordsExpanded(nodeWords.size());
  for (std::size_t i = 0; i < nodeWords.size(); ++i) {
    nodeWordsExpanded[i] = kernels::expandWord(nodeWords[i]);
  }

  // Multiset enumeration (see RbarEnumerator).  With more than one thread,
  // the top-level branches fan out: branch i enumerates exactly the
  // multisets whose smallest chosen set is rcSets[i], and concatenating the
  // per-branch results in branch order reproduces the serial DFS output
  // verbatim.  Each branch owns a private memo; per-branch results are
  // copied out of the lane's arenas before the next branch resets them.
  const int width = std::min<int>(util::resolveThreadCount(options.numThreads),
                                  static_cast<int>(rcSets.size()));
  // Delta-strided slot records (see RbarEnumerator::valid).
  std::vector<std::uint32_t> validFlat;
  {
    const obs::ScopedSpan span("re.rbar.enumerate");
    if (width <= 1) {
      StepArenas& arenas = stepArenas();
      util::Arena& results =
          options.arena != nullptr ? *options.arena : arenas.results;
      arenas.scratch.reset();
      results.reset();
      RbarEnumerator enumerator(rcSets, nodeWords.data(),
                                nodeWordsExpanded.data(), nodeWords.size(),
                                delta, arenas.scratch, results);
      const PackedWord root = 0;
      enumerator.rec(0, &root, 1);
      validFlat.assign(enumerator.valid.begin(), enumerator.valid.end());
    } else {
      std::vector<std::vector<std::uint32_t>> branchValid(rcSets.size());
      util::parallel_for(
          options.numThreads, rcSets.size(), [&](std::size_t i) {
            StepArenas& arenas = stepArenas();
            arenas.scratch.reset();
            arenas.results.reset();
            RbarEnumerator enumerator(rcSets, nodeWords.data(),
                                      nodeWordsExpanded.data(),
                                      nodeWords.size(), delta, arenas.scratch,
                                      arenas.results);
            const PackedWord root = 0;
            enumerator.descend(i, &root, 1);
            branchValid[i].assign(enumerator.valid.begin(),
                                  enumerator.valid.end());
          });
      std::size_t total = 0;
      for (const auto& branch : branchValid) total += branch.size();
      validFlat.reserve(total);
      for (const auto& branch : branchValid) {
        validFlat.insert(validFlat.end(), branch.begin(), branch.end());
      }
    }
  }
  const std::size_t numValid =
      validFlat.size() / static_cast<std::size_t>(delta);
  stepCounters().rbarCandidates.add(numValid);
  if (numValid == 0) {
    throw Error("applyRbar: node constraint empty after maximization");
  }
  const auto candidate = [&](std::size_t i) {
    return validFlat.data() + i * static_cast<std::size_t>(delta);
  };

  // Keep only maximal candidates under the relaxation order.  Candidates
  // are pairwise distinct slot multisets (the DFS emits each once), so
  // strict domination is `relaxes-to and not equal`.  A relaxation requires
  // the slot unions to nest, so the all-pairs scan is bucketed by union
  // signature and each candidate compared against superset buckets only.
  //
  // A relaxation a -> b also matches every a-slot to a distinct superset
  // b-slot, so for every label l, #(a-slots containing l) <= #(b-slots
  // containing l).  These per-label slot counts (each <= delta <= 15, so
  // they fit the byte lanes of an ExpandedWord) give a SWAR prefilter that
  // rejects most pairs before the matching runs.
  std::vector<std::uint32_t> signatures(numValid);
  std::vector<kernels::ExpandedWord> slotCounts(numValid);
  for (std::size_t i = 0; i < numValid; ++i) {
    std::uint32_t u = 0;
    PackedWord counts = 0;
    const std::uint32_t* rec = candidate(i);
    for (Count k = 0; k < delta; ++k) {
      u |= rec[k];
      for (std::uint32_t m = rec[k]; m != 0; m &= m - 1) {
        counts += PackedWord{1} << (4 * __builtin_ctz(m));
      }
    }
    signatures[i] = u;
    slotCounts[i] = kernels::expandWord(counts);
  }
  const SignatureBuckets buckets(signatures);
  std::vector<char> dominated(numValid, 0);
  {
    const obs::ScopedSpan span("re.rbar.filter");
    util::parallel_for(options.numThreads, numValid, [&](std::size_t i) {
      std::uint64_t pairsVisited = 0;
      // Every relaxation test decided, by the prefilter or by the matching;
      // `prefiltered` counts those the prefilter decided alone.
      std::uint64_t testsRun = 0;
      std::uint64_t prefiltered = 0;
      const std::uint32_t* mine = candidate(i);
      dominated[i] = buckets.anyInSupersetBucket(
          signatures[i], [&](std::size_t j) {
            if (j == i) return false;
            ++pairsVisited;
            ++testsRun;
            if (!kernels::packedLeq(slotCounts[i], slotCounts[j])) {
              ++prefiltered;
              return false;
            }
            const std::uint32_t* other = candidate(j);
            if (!kernels::slotsRelaxTo(mine, other,
                                       static_cast<int>(delta))) {
              return false;
            }
            // The reverse relaxation needs union(j) subsetOf union(i);
            // inside a strictly-larger bucket it is impossible, so
            // domination is already established.
            if (signatures[j] != signatures[i]) return true;
            ++testsRun;
            if (!kernels::packedLeq(slotCounts[j], slotCounts[i])) {
              ++prefiltered;
              return true;
            }
            return !kernels::slotsRelaxTo(other, mine,
                                          static_cast<int>(delta));
          });
      stepCounters().antichainPairs.add(pairsVisited);
      stepCounters().antichainTests.add(testsRun);
      stepCounters().antichainPrefiltered.add(prefiltered);
    });
  }
  std::vector<Configuration> maximal;
  for (std::size_t i = 0; i < numValid; ++i) {
    if (!dominated[i]) maximal.push_back(slotsToConfiguration(candidate(i), delta));
  }
  std::sort(maximal.begin(), maximal.end());
  maximal.erase(std::unique(maximal.begin(), maximal.end()), maximal.end());
  stepCounters().rbarMaximal.add(maximal.size());

  // Fresh alphabet: sets appearing in maximal node configurations.
  std::vector<LabelSet> setsSeen;
  for (const auto& c : maximal) {
    for (const auto& g : c.groups()) setsSeen.push_back(g.set);
  }
  StepResult result;
  result.meaning = sortedDistinctSets(std::move(setsSeen));
  result.problem.alphabet = freshAlphabet(result.meaning, p.alphabet);
  stepCounters().labelsProduced.add(result.meaning.size());

  const auto freshLabelOf = [&](LabelSet s) {
    const auto it =
        std::lower_bound(result.meaning.begin(), result.meaning.end(), s);
    assert(it != result.meaning.end() && *it == s);
    return static_cast<Label>(it - result.meaning.begin());
  };

  Constraint node(delta, {});
  for (const auto& c : maximal) {
    std::vector<Group> groups;
    for (const auto& g : c.groups()) {
      groups.push_back({LabelSet::single(freshLabelOf(g.set)), g.count});
    }
    node.add(Configuration(std::move(groups)));
  }
  result.problem.node = std::move(node);
  result.problem.edge = replaceConstraint(p.edge, result.meaning);
  result.problem.validate();
  return result;
}

StepResult applyRbar(const Problem& p, const StepOptions& options) {
  return detail::applyRbar(p, options, [&] {
    return computeStrength(p.node, p.alphabet.size(), options.enumerationLimit)
        .allRightClosedSets(p.alphabet.all());
  });
}

Problem speedupStep(const Problem& p, const StepOptions& options) {
  return applyRbar(applyR(p, options).problem, options).problem;
}

}  // namespace relb::re
