#include "re/autobound.hpp"

#include "obs/trace.hpp"
#include "re/edge_compat.hpp"
#include "re/engine.hpp"
#include "re/rename.hpp"
#include "re/simplify.hpp"
#include "re/zero_round.hpp"

namespace relb::re {

namespace {

IterationStep describeProblem(const Problem& p) {
  return {p.alphabet.size(), p.node.size(), p.edge.size()};
}

// Fixed-point test for two consecutive iterates.  The syntactic canonical
// forms are compared first: equal canonical forms prove isomorphism without
// any permutation search (and the intern table makes the lookup O(1)
// amortized across the whole iteration).  Unequal canonical forms do NOT
// disprove *semantic* equivalence (differently condensed but language-equal
// constraints), so the semantic search still runs as a fallback.
bool sameUpToRenaming(const Problem& prev, const Problem& next,
                      EngineSession& session) {
  try {
    const auto prevInterned = session.intern(prev);
    const auto nextInterned = session.intern(next);
    if (prevInterned.hash == nextInterned.hash &&
        prevInterned.canonical.problem == nextInterned.canonical.problem) {
      return true;
    }
  } catch (const Error&) {
    // canonicalize refused (too symmetric / too large); fall through.
  }
  try {
    return equivalentUpToRenaming(prev, next);
  } catch (const Error&) {
    return false;  // isomorphism search refused; keep iterating
  }
}

// Merges label pairs of `p` greedily until at most `maxLabels` remain,
// requiring every merge to keep the problem hard (otherwise the chain would
// end uselessly early).  False when no hardness-preserving merge exists.
bool mergeWhileHard(Problem& p, int maxLabels, EngineSession& session) {
  if (p.alphabet.size() <= maxLabels) return true;
  const obs::ScopedSpan span("re.autobound.merge", session.tracer());
  while (p.alphabet.size() > maxLabels) {
    bool merged = false;
    const int n = p.alphabet.size();
    // Every candidate has n - 1 labels.  Above kMaxEdgePairLabels the
    // edge-input analysis refuses each one (a refusal is not a proof of
    // hardness), so none can merge: decide that before building any.
    if (n - 1 > kMaxEdgePairLabels) return false;
    for (Label a = 0; a < n && !merged; ++a) {
      for (Label b = a + 1; b < n && !merged; ++b) {
        Problem candidate = [&] {
          const obs::ScopedSpan s("re.autobound.candidate", session.tracer());
          return mergeTwoLabels(p, a, b);
        }();
        // A candidate whose hardness the engine cannot certify (guard
        // trips) is simply not merged -- the invariant needs a *proof* that
        // the merged problem stays hard.
        bool hard = false;
        try {
          hard = !session.zeroRoundSolvable(candidate,
                                            ZeroRoundMode::kWithEdgeInputs);
        } catch (const Error&) {
          hard = false;
        }
        if (hard) {
          p = std::move(candidate);
          merged = true;
        }
      }
    }
    if (!merged) return false;
  }
  return true;
}

}  // namespace

std::string IterationTrace::describe() const {
  std::string out = "speedup iteration: ";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " -> ";
    out += std::to_string(steps[i].labels) + " labels";
  }
  switch (reason) {
    case StopReason::kFixedPoint:
      out += "; fixed point at step " + std::to_string(*fixedPointAt) +
             " => Omega(log n) det / Omega(log log n) rand on high-girth "
             "graphs";
      break;
    case StopReason::kZeroRoundSolvable:
      out += "; 0-round solvable after " + std::to_string(*zeroRoundAfter) +
             " steps => upper bound " + std::to_string(*zeroRoundAfter) +
             " rounds on high-girth graphs";
      break;
    case StopReason::kLabelBudget:
      out += "; stopped: label budget exceeded (doubly exponential growth)";
      break;
    case StopReason::kStepLimit:
      out += "; stopped: step limit";
      break;
    case StopReason::kEngineLimit:
      out += "; stopped: exact engine guard (problem too large)";
      break;
  }
  return out;
}

IterationTrace iterateSpeedup(EngineSession& session, const Problem& start,
                              const IterateOptions& options) {
  IterationTrace trace;
  trace.last = start;
  trace.steps.push_back(describeProblem(start));

  // The input's verdict stays outside the session's cache: routing it
  // through the session would add a lookup (and a store write) to every
  // run's statistics, and warm stores written without it would miss.
  if (zeroRoundSolvableAdversarialPorts(start)) {
    trace.reason = StopReason::kZeroRoundSolvable;
    trace.zeroRoundAfter = 0;
    return trace;
  }

  for (int step = 1; step <= options.maxSteps; ++step) {
    Problem next;
    try {
      next = session.speedupStep(trace.last);
    } catch (const Error&) {
      trace.reason = StopReason::kEngineLimit;
      return trace;
    }
    trace.steps.push_back(describeProblem(next));

    if (session.zeroRoundSolvable(next, ZeroRoundMode::kAdversarialPorts)) {
      trace.last = std::move(next);
      trace.reason = StopReason::kZeroRoundSolvable;
      trace.zeroRoundAfter = step;
      return trace;
    }
    if (options.detectFixedPoint && next.alphabet.size() <= 10 &&
        trace.last.alphabet.size() == next.alphabet.size()) {
      if (sameUpToRenaming(trace.last, next, session)) {
        trace.last = std::move(next);
        trace.reason = StopReason::kFixedPoint;
        trace.fixedPointAt = step - 1;
        return trace;
      }
    }
    trace.last = std::move(next);
    if (trace.last.alphabet.size() > options.maxLabels) {
      trace.reason = StopReason::kLabelBudget;
      return trace;
    }
  }
  trace.reason = StopReason::kStepLimit;
  return trace;
}

// The search behind EngineSession::autoLowerBound, run on a memo miss: its
// speedup steps and zero-round checks go through this session's memos.
AutoLowerBound EngineSession::searchLowerBound(
    const Problem& start, const AutoLowerBoundOptions& options) {
  AutoLowerBound result;
  Problem current = start;
  result.labelsPerStep.push_back(current.alphabet.size());

  for (int step = 0; step < options.maxSteps; ++step) {
    // The hardness check itself can hit an engine guard (the edge-input
    // analyzer enumerates label subsets); an unprovable `current` ends the
    // chain with whatever was certified so far instead of throwing.
    bool solvable = false;
    try {
      solvable = zeroRoundSolvable(current, ZeroRoundMode::kWithEdgeInputs);
    } catch (const Error&) {
      result.reason = StopReason::kEngineLimit;
      return result;
    }
    if (solvable) {
      result.reason = StopReason::kZeroRoundSolvable;
      return result;
    }
    // current is hard: T(start) >= speedups-so-far + 1.
    result.rounds = step + 1;
    Problem next;
    try {
      next = speedupStep(current);
    } catch (const Error&) {
      result.reason = StopReason::kEngineLimit;
      return result;
    }
    if (!mergeWhileHard(next, options.maxLabels, *this)) {
      result.reason = StopReason::kLabelBudget;
      return result;
    }
    current = std::move(next);
    result.labelsPerStep.push_back(current.alphabet.size());
  }
  result.reason = StopReason::kStepLimit;
  return result;
}

namespace {

EngineSession& contextOf(EngineSession* context, const char* entry) {
  if (context == nullptr) {
    throw Error(std::string(entry) + ": options.context must name a session");
  }
  return *context;
}

}  // namespace

IterationTrace iterateSpeedup(const Problem& start,
                              const IterateOptions& options) {
  return iterateSpeedup(contextOf(options.context, "iterateSpeedup"), start,
                        options);
}

AutoLowerBound autoLowerBound(const Problem& start,
                              const AutoLowerBoundOptions& options) {
  return contextOf(options.context, "autoLowerBound")
      .autoLowerBound(start, options);
}

}  // namespace relb::re
