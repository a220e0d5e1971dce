// Automatic speedup iteration and fixed-point detection.
//
// Iterating Pi -> Rbar(R(Pi)) while watching for (i) 0-round solvability and
// (ii) a fixed point (a problem equivalent to its own speedup, up to
// renaming) automates two of the four lower-bound strategies described in
// Section 1.2 of the paper:
//   * if the iteration reaches a 0-round-solvable problem after t steps, the
//     original problem is solvable in t rounds (an *upper* bound certificate
//     on high-girth graphs, Theorem 3);
//   * if it reaches a non-0-round-solvable fixed point, the problem needs
//     Omega(log n) deterministic / Omega(log log n) randomized rounds (the
//     "fixed points" strategy; see [BFHKLRSU'16, CKP'19]).
// The doubly-exponential label growth that usually stops the iteration is
// reported as such -- that observable *is* the paper's motivation for the
// constant-label family.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "re/re_step.hpp"

namespace relb::re {

class EngineSession;  // re/engine.hpp

enum class StopReason {
  kFixedPoint,        // speedup equivalent to its input (up to renaming)
  kZeroRoundSolvable, // reached a 0-round solvable problem
  kLabelBudget,       // alphabet outgrew the configured budget
  kStepLimit,         // maxSteps iterations performed
  kEngineLimit,       // an engine guard refused (subset enumeration too big)
};

struct IterationStep {
  int labels = 0;
  std::size_t nodeConfigs = 0;
  std::size_t edgeConfigs = 0;
};

struct IterationTrace {
  std::vector<IterationStep> steps;  // steps[0] describes the input problem
  StopReason reason = StopReason::kStepLimit;
  /// Set when reason == kFixedPoint: index of the problem that equals its
  /// own speedup.
  std::optional<int> fixedPointAt;
  /// Set when reason == kZeroRoundSolvable: number of speedup steps taken to
  /// reach a 0-round-solvable problem == upper bound on the input's
  /// complexity on high-girth graphs.
  std::optional<int> zeroRoundAfter;
  /// The final problem reached.
  Problem last;

  [[nodiscard]] std::string describe() const;
};

struct IterateOptions {
  int maxSteps = 8;
  int maxLabels = 12;          // refuse to continue past this alphabet size
  /// Check for fixed points (needs isomorphism search; alphabets <= 10).
  bool detectFixedPoint = true;

  // Read only by the option-block entry point at the end of this header.
  StepOptions stepOptions;
  EngineSession* context = nullptr;
};

/// Runs the speedup iteration through `session` and reports what happened.
/// Speedup steps and zero-round checks are memoized in the session (its
/// options set the guards and the fan-out width), and fixed-point detection
/// first tries the cheap canonical-interning route -- "canonical form
/// already interned" -- before falling back to the semantic isomorphism
/// search.
[[nodiscard]] IterationTrace iterateSpeedup(EngineSession& session,
                                            const Problem& start,
                                            const IterateOptions& options = {});

// ---------------------------------------------------------------------------
// Automatic lower bounds via speedup + label merging (the paper's
// "similarity approach", Section 1.2, mechanized).
//
// Invariant: T(start) >= speedups + T(current).  Each speedup step
// decrements T(current) by exactly one (Theorem 3); merging labels only
// makes current easier, so the invariant is preserved.  Whenever `current`
// is certified not 0-round solvable in the PN-with-edge-ports model
// (zeroRoundSolvableWithEdgeInputs == false), T(current) >= 1 and hence
// T(start) >= speedups + 1 on high-girth graphs.
// ---------------------------------------------------------------------------

struct AutoLowerBound {
  /// Certified: the start problem needs more than `rounds - 1` rounds, i.e.
  /// T(start) >= rounds, in the deterministic PN model on high-girth graphs.
  int rounds = 0;
  /// Label count after each speedup(+merging) step.
  std::vector<int> labelsPerStep;
  /// Why the chain stopped.
  StopReason reason = StopReason::kStepLimit;
};

/// The knobs of EngineSession::autoLowerBound (engine.hpp), the search's
/// entry point, which memoizes the whole result.
struct AutoLowerBoundOptions {
  int maxSteps = 6;
  /// After each speedup, merge label pairs (keeping the problem hard) until
  /// at most this many labels remain; stop if no hardness-preserving merge
  /// exists.
  int maxLabels = 8;

  // Read only by the option-block entry point at the end of this header.
  StepOptions stepOptions;
  EngineSession* context = nullptr;
};

// ---------------------------------------------------------------------------
// Option-block entry points.  The benchmark harness (perfbench/harness)
// builds against these; everything in-tree calls the session entry points.
// They run through `options.context`, which must name a session (re::Error
// otherwise), and ignore `options.stepOptions`: the session's options
// govern.
// ---------------------------------------------------------------------------

[[nodiscard]] IterationTrace iterateSpeedup(const Problem& start,
                                            const IterateOptions& options);

[[nodiscard]] AutoLowerBound autoLowerBound(
    const Problem& start, const AutoLowerBoundOptions& options);

}  // namespace relb::re
