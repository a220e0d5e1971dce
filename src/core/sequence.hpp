// Lemma 13: the lower-bound sequence Pi_0 -> Pi_1 -> ... -> Pi_t.
//
// Each step applies Corollary 10 (Pi_Delta(a, x) is one round harder than
// Pi_Delta(floor((a-2x-1)/2), x+1), given a Delta-edge coloring) and
// optionally Lemma 11 to round the parameters down to the paper's schedule
// a_i = floor(Delta / 2^{3i}), x_i = x + i.  The chain stops when the
// preconditions fail; every problem in the chain (except possibly the last)
// is certified not 0-round solvable (Lemma 12 / 15), so the chain length is
// a lower bound on the round complexity of Pi_0 in the PN model and, via
// Theorem 14, yields the LOCAL-model bounds of Theorem 1.
#pragma once

#include <string>
#include <vector>

#include "core/family.hpp"
#include "io/certificate.hpp"
#include "util/thread_pool.hpp"

namespace relb::re {
class EngineSession;
}  // namespace relb::re

namespace relb::core {

struct ChainStep {
  re::Count a = 0;
  re::Count x = 0;
};

struct Chain {
  re::Count delta = 0;
  std::vector<ChainStep> steps;

  /// Number of speedup steps (= proven round lower bound in the
  /// deterministic PN model with a Delta-edge coloring).
  [[nodiscard]] re::Count length() const {
    return static_cast<re::Count>(steps.size()) - 1;
  }
};

/// The paper's schedule: Pi_i = Pi_Delta(floor(Delta/2^{3i}), x0 + i),
/// continued while Corollary 10 / Lemma 11 apply (requires xBar < aBar/8 and
/// aBar >= 4 as in the Lemma 13 proof).
[[nodiscard]] Chain paperChain(re::Count delta, re::Count x0);

/// The exact-recurrence chain: a_{i+1} = floor((a_i - 2 x_i - 1) / 2),
/// x_{i+1} = x_i + 1, continued while the Corollary 10 preconditions
/// (2x + 1 <= a and x + 2 <= a) hold.  Longer than the paper's rounded
/// schedule; same per-step justification, minus the Lemma 11 rounding.
/// Throws re::Error unless 0 <= x0 <= delta (Pi_Delta(Delta, x0) is only
/// defined there).
[[nodiscard]] Chain exactChain(re::Count delta, re::Count x0);

/// Certifies a chain: every consecutive pair must be a valid Corollary 10 +
/// Lemma 11 move, and every problem in the chain must fail the 0-round
/// solvability test of Lemma 12 (checked via the zero-round analyzer).
/// Returns an empty string on success, else a description of the violation.
/// The per-step 0-round checks are independent and fan out over `numThreads`
/// (0 = hardware concurrency, 1 = serial); the reported violation is the
/// earliest one regardless of thread count.
[[nodiscard]] std::string certifyChain(
    const Chain& chain, int numThreads = util::kDefaultNumThreads);

/// Session-backed overload: the per-step 0-round verdicts are memoized in
/// `session`, so re-certifying a chain (or certifying overlapping chains)
/// against a warm session performs zero recomputation.  The verdict is
/// identical to the session-free overload.
[[nodiscard]] std::string certifyChain(
    const Chain& chain, re::EngineSession& session,
    int numThreads = util::kDefaultNumThreads);

/// Builds the durable "family-chain" certificate for `chain`: per step the
/// parameters, the fully expanded problem, and the zero-round verdict,
/// memoized in `session` (a warm session or attached store performs zero
/// recomputation).  The certificate is deterministic -- the same chain
/// always serializes to the same bytes -- and io::verifyCertificate
/// re-checks every claim without the engine.  Throws re::Error if the chain
/// does not certify (the certificate would be rejected anyway; the error
/// carries certifyChain's violation text).
[[nodiscard]] io::Certificate buildChainCertificate(
    const Chain& chain, re::EngineSession& session,
    int numThreads = util::kDefaultNumThreads);

/// The same through a session pointer, which must not be null: the form the
/// benchmark harness (perfbench/harness) builds against.
[[nodiscard]] io::Certificate buildChainCertificate(const Chain& chain,
                                                    re::EngineSession* session,
                                                    int numThreads);

/// Lemma 12 for the family: Pi_Delta(a, x) is 0-round solvable on the
/// symmetric-port family iff a == 0 or x == delta (i.e. some configuration
/// avoids non-self-compatible labels).
[[nodiscard]] bool familyZeroRoundSolvable(re::Count delta, re::Count a,
                                           re::Count x);

/// The realized PN-model lower bound for k-outdegree dominating sets at
/// degree Delta: one round for Lemma 5 plus the exact chain started at
/// x0 = k (the chain's problems are all at least one round easier each).
[[nodiscard]] re::Count pnLowerBoundRounds(re::Count delta, re::Count k);

}  // namespace relb::core
