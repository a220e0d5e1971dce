#include "re/re_step.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "re/bitkernels.hpp"
#include "re/packed_words.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace relb::re {

namespace {

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

// Per-thread arena for the R̄ DFS level buffers, used under strict
// mark/rewind LIFO (see util/arena.hpp); its chunks persist across steps.
util::Arena& stepScratch() {
  thread_local util::Arena scratch;
  return scratch;
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

StepResult detail::applyR(const Problem& p, const SubResult& compat) {
  p.validate();
  const auto pairs =
      detail::maximalEdgePairsFromCompat(compat(), p.alphabet.size());
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

StepResult applyR(const Problem& p, const StepOptions& /*options*/) {
  return detail::applyR(p, [&] {
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
// some partial word can no longer be completed to an allowed word.  A level
// is a sorted list of indices into the CompletionTable layer of its depth,
// and each level reads one table column per label: a label is live when
// every extension by it is completable, a slot set is viable exactly when
// all its labels are live, and a viable set's next level is the union of
// its labels' columns.  Level buffers live in the scratch arena under
// mark/rewind.  The table is shared read-only; each enumerator owns its
// arena and output, so independent top-level branches can run on separate
// threads.
struct RbarEnumerator {
  const std::vector<LabelSet>& rcSets;
  const kernels::CompletionTable& table;
  const Count delta;

  util::Arena& scratch;
  // labelsFrom[i] = the union of rcSets[i..], the labels a level can still
  // be extended by once its next slot is chosen from rcSets[i..].
  std::vector<std::uint32_t> labelsFrom;
  // Accepted candidates as delta-strided slot records: candidate k occupies
  // valid[k*delta .. (k+1)*delta), each entry a LabelSet::bits() value, in
  // the (non-decreasing) order the DFS chose the slots.
  std::vector<std::uint32_t> valid;
  std::uint32_t slots[16];
  Count depth = 0;

  RbarEnumerator(const std::vector<LabelSet>& rcSets,
                 const kernels::CompletionTable& table, Count delta,
                 util::Arena& scratch)
      : rcSets(rcSets),
        table(table),
        delta(delta),
        scratch(scratch),
        labelsFrom(rcSets.size() + 1, 0) {
    for (std::size_t i = rcSets.size(); i > 0; --i) {
      labelsFrom[i - 1] = labelsFrom[i] | rcSets[i - 1].bits();
    }
  }

  // Extends the slots chosen so far, whose partial words are `level`
  // (indices into layer `depth` < delta), by each set rcSets[i] with
  // minIdx <= i < endIdx, then recurses on the sets from rcSets[i] on.
  void rec(std::size_t minIdx, std::size_t endIdx, const std::uint32_t* level,
           std::size_t levelSize) {
    const util::Arena::Mark mark = scratch.mark();
    const auto n = static_cast<std::size_t>(table.numLabels());
    const std::int32_t* next = table.next(static_cast<int>(depth));
    // Column l lists the next-layer index of level[k] + e_l for every k,
    // ascending because the level is; it is complete for live labels.
    std::uint32_t* columns = scratch.allocate<std::uint32_t>(n * levelSize);
    std::uint32_t live = 0;
    for (std::uint32_t m = labelsFrom[minIdx]; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(__builtin_ctz(m));
      std::size_t k = 0;
      for (; k < levelSize && next[level[k] * n + l] >= 0; ++k) {
        columns[l * levelSize + k] =
            static_cast<std::uint32_t>(next[level[k] * n + l]);
      }
      if (k == levelSize) live |= std::uint32_t{1} << l;
    }
    const util::Arena::Mark columnsMark = scratch.mark();
    ++depth;
    for (std::size_t i = minIdx; i < endIdx; ++i) {
      const std::uint32_t setBits = rcSets[i].bits();
      if ((setBits & ~live) != 0) continue;  // an extension dies
      slots[depth - 1] = setBits;
      if (depth == delta) {
        // Layer delta is the node words: every choice word is allowed.
        valid.insert(valid.end(), slots, slots + delta);
        continue;
      }
      // The next level: the union of the set's columns, deduplicated and
      // sorted through a bitset over the range their ends bound.
      std::size_t lo = SIZE_MAX, hi = 0;
      for (std::uint32_t m = setBits; m != 0; m &= m - 1) {
        const std::uint32_t* col = columns + __builtin_ctz(m) * levelSize;
        lo = std::min<std::size_t>(lo, col[0] / 64);
        hi = std::max<std::size_t>(hi, col[levelSize - 1] / 64);
      }
      std::uint64_t* seen = scratch.allocate<std::uint64_t>(hi - lo + 1);
      std::fill(seen, seen + (hi - lo + 1), 0);
      for (std::uint32_t m = setBits; m != 0; m &= m - 1) {
        const std::uint32_t* col = columns + __builtin_ctz(m) * levelSize;
        for (std::size_t k = 0; k < levelSize; ++k) {
          seen[col[k] / 64 - lo] |= std::uint64_t{1} << (col[k] % 64);
        }
      }
      std::uint32_t* out = scratch.allocate<std::uint32_t>(
          levelSize * static_cast<std::size_t>(__builtin_popcount(setBits)));
      std::size_t nextSize = 0;
      for (std::size_t w = lo; w <= hi; ++w) {
        for (std::uint64_t bits = seen[w - lo]; bits != 0; bits &= bits - 1) {
          out[nextSize++] =
              static_cast<std::uint32_t>(w * 64 + __builtin_ctzll(bits));
        }
      }
      rec(i, rcSets.size(), out, nextSize);
      scratch.rewind(columnsMark);
    }
    --depth;
    scratch.rewind(mark);
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

std::vector<std::size_t> detail::maximalSlotRecords(
    const std::vector<std::uint32_t>& records, Count delta, int numThreads) {
  const std::size_t numValid =
      records.size() / static_cast<std::size_t>(delta);
  const auto candidate = [&](std::size_t i) {
    return records.data() + i * static_cast<std::size_t>(delta);
  };
  // A relaxation a -> b pairs every a-slot with a superset b-slot, so it
  // never lowers the total slot size sum |slot|, and keeps it only when
  // a == b.  Records are pairwise distinct, so a dominated record has a
  // dominator of strictly larger size, and by transitivity a maximal one.
  // Records are therefore decided one size class at a time, largest first,
  // each against the maximal records of the larger classes only.
  //
  // Two necessary conditions reject most pairs before the matching runs:
  // the slot unions must nest, and for every label l, #(a-slots containing
  // l) <= #(b-slots containing l).  These per-label slot counts (each
  // <= delta <= 15, so they fit the byte lanes of an ExpandedWord) make the
  // second a SWAR test.
  std::vector<std::uint32_t> signatures(numValid);
  std::vector<kernels::ExpandedWord> slotCounts(numValid);
  std::vector<int> totalSize(numValid);
  for (std::size_t i = 0; i < numValid; ++i) {
    std::uint32_t u = 0;
    PackedWord counts = 0;
    int size = 0;
    const std::uint32_t* rec = candidate(i);
    for (Count k = 0; k < delta; ++k) {
      u |= rec[k];
      size += __builtin_popcount(rec[k]);
      for (std::uint32_t m = rec[k]; m != 0; m &= m - 1) {
        counts += PackedWord{1} << (4 * __builtin_ctz(m));
      }
    }
    signatures[i] = u;
    slotCounts[i] = kernels::expandWord(counts);
    totalSize[i] = size;
  }
  std::vector<std::size_t> order(numValid);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return totalSize[a] > totalSize[b];
                   });
  std::vector<std::size_t> maximalFound;
  std::vector<char> dominated(numValid, 0);
  const obs::ScopedSpan span("re.rbar.filter");
  for (std::size_t begin = 0; begin < numValid;) {
    std::size_t end = begin + 1;
    while (end < numValid &&
           totalSize[order[end]] == totalSize[order[begin]]) {
      ++end;
    }
    const std::size_t known = maximalFound.size();
    util::parallel_for(numThreads, end - begin, [&](std::size_t c) {
      const std::size_t i = order[begin + c];
      std::uint64_t pairsVisited = 0;
      // Relaxation tests decided, by the prefilter or by the matching;
      // `prefiltered` counts those the prefilter decided alone.
      std::uint64_t testsRun = 0;
      std::uint64_t prefiltered = 0;
      for (std::size_t m = 0; m < known && !dominated[i]; ++m) {
        const std::size_t j = maximalFound[m];
        ++pairsVisited;
        if ((signatures[i] & ~signatures[j]) != 0) continue;
        ++testsRun;
        if (!kernels::packedLeq(slotCounts[i], slotCounts[j])) {
          ++prefiltered;
          continue;
        }
        dominated[i] = kernels::slotsRelaxTo(candidate(i), candidate(j),
                                             static_cast<int>(delta));
      }
      stepCounters().antichainPairs.add(pairsVisited);
      stepCounters().antichainTests.add(testsRun);
      stepCounters().antichainPrefiltered.add(prefiltered);
    });
    for (std::size_t c = begin; c < end; ++c) {
      if (!dominated[order[c]]) maximalFound.push_back(order[c]);
    }
    begin = end;
  }
  return maximalFound;
}

StepResult detail::applyRbar(const Problem& p, const StepOptions& options,
                             const SubResult& rightClosedSets) {
  p.validate();
  const int n = p.alphabet.size();
  const Count delta = p.delta();
  if (delta > options.maxRbarDelta) {
    throw Error("applyRbar: node degree too large for exact maximization");
  }

  // Both size guards run before the strength diagram, so a refused step
  // never pays for it; their texts and order are unchanged.
  if (n > 20) throw Error("allRightClosedSets: universe too large");
  if (n > 16 || delta > 15) {
    throw Error("applyRbar: packed-word enumeration needs <= 16 labels and "
                "delta <= 15");
  }

  // Strength relation w.r.t. the node constraint -> right-closed candidate
  // slot sets (Observation 4 plus the up-closure argument documented in
  // re_step.hpp).
  const std::vector<LabelSet> rcSets = rightClosedSets();

  // Multiset enumeration (see RbarEnumerator), one top-level branch at a
  // time: branch i enumerates exactly the multisets whose smallest chosen
  // set is rcSets[i], so concatenating the branches in order reproduces the
  // serial DFS output verbatim, and with more than one thread the branches
  // fan out.
  std::vector<std::uint32_t> validFlat;  // see RbarEnumerator::valid
  {
    const obs::ScopedSpan span("re.rbar.enumerate");
    const kernels::CompletionTable table(
        kernels::collectPackedWords(p.node, n, options.enumerationLimit), n,
        static_cast<int>(delta));
    // The empty word is layer 0's only entry, unless no node word exists.
    std::vector<std::vector<std::uint32_t>> branchValid(
        table.layer(0).empty() ? 0 : rcSets.size());
    util::parallel_for(
        options.numThreads, branchValid.size(), [&](std::size_t i) {
          util::Arena& scratch = stepScratch();
          scratch.reset();
          RbarEnumerator enumerator(rcSets, table, delta, scratch);
          const std::uint32_t root = 0;
          enumerator.rec(i, i + 1, &root, 1);
          branchValid[i] = std::move(enumerator.valid);
        });
    for (const auto& branch : branchValid) {
      validFlat.insert(validFlat.end(), branch.begin(), branch.end());
    }
  }
  const std::size_t numValid =
      validFlat.size() / static_cast<std::size_t>(delta);
  stepCounters().rbarCandidates.add(numValid);
  if (numValid == 0) {
    throw Error("applyRbar: node constraint empty after maximization");
  }
  std::vector<Configuration> maximal;
  for (const std::size_t i :
       detail::maximalSlotRecords(validFlat, delta, options.numThreads)) {
    maximal.push_back(slotsToConfiguration(
        validFlat.data() + i * static_cast<std::size_t>(delta), delta));
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
