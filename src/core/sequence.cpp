#include "core/sequence.hpp"

#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "re/engine.hpp"
#include "re/zero_round.hpp"
#include "util/thread_pool.hpp"

namespace relb::core {

namespace {

using re::Count;

bool corollary10Applies(Count a, Count x, Count delta) {
  return 2 * x + 1 <= a && x + 2 <= a && a <= delta;
}

// Shared body of both certifyChain overloads.  `zeroRoundCheck(i)` decides
// Lemma 12 for step i; it is invoked from the fan-out workers, so it must be
// safe to call concurrently.  Spans go to `tracer` -- the session's tracer
// for the session-backed overload, so concurrent sessions keep their
// certification timelines attributable.
template <typename ZeroRoundCheck>
std::string certifyChainImpl(const Chain& chain, int numThreads,
                             obs::Tracer& tracer,
                             ZeroRoundCheck&& zeroRoundCheck) {
  if (chain.steps.empty()) return "empty chain";
  // The Lemma 12 checks dominate the certification cost and are independent
  // per step; compute them fanned out, then report violations in step order
  // so the verdict is identical to the serial scan.  Exceptions (malformed
  // parameters) are replayed at the step where the serial scan would have
  // raised them.
  std::vector<char> zeroRound(chain.steps.size());
  std::vector<std::exception_ptr> zeroRoundError(chain.steps.size());
  {
    const obs::ScopedSpan certifySpan("chain.certify", tracer);
    util::parallel_for(numThreads, chain.steps.size(), [&](std::size_t i) {
      const obs::ScopedSpan stepSpan("chain.certify.step", tracer);
      try {
        zeroRound[i] = zeroRoundCheck(i);
      } catch (...) {
        zeroRoundError[i] = std::current_exception();
      }
    });
  }
  for (std::size_t i = 0; i + 1 < chain.steps.size(); ++i) {
    const auto& cur = chain.steps[i];
    const auto& next = chain.steps[i + 1];
    if (!corollary10Applies(cur.a, cur.x, chain.delta)) {
      return "step " + std::to_string(i) +
             ": Corollary 10 preconditions violated";
    }
    const FamilyParams sped = speedupParams({chain.delta, cur.a, cur.x});
    // The next problem must be reachable: exactly the speedup result, or a
    // Lemma 11 relaxation of it (smaller a, larger-or-equal x).
    if (!(next.a <= sped.a && next.x >= sped.x)) {
      return "step " + std::to_string(i) +
             ": next problem not reachable by Corollary 10 + Lemma 11";
    }
    // Every problem except possibly the final one must be non-0-round
    // solvable, otherwise the speedup chain proves nothing (Lemma 12).
    if (zeroRoundError[i]) std::rethrow_exception(zeroRoundError[i]);
    if (zeroRound[i]) {
      return "step " + std::to_string(i) + ": problem is 0-round solvable";
    }
  }
  if (zeroRoundError.back()) std::rethrow_exception(zeroRoundError.back());
  if (zeroRound.back()) {
    return "final problem is 0-round solvable";
  }
  return "";
}

}  // namespace

Chain paperChain(Count delta, Count x0) {
  Chain chain;
  chain.delta = delta;
  Count shift = 0;  // 2^{3i}
  for (Count i = 0;; ++i) {
    const Count a = delta >> shift;
    const Count x = x0 + i;
    // Problems with a < 1 or x > delta - 1 are 0-round solvable (Lemma 12
    // needs a >= 1 and x <= delta - 1); never include them.
    if (a < 1 || x > delta - 1) break;
    chain.steps.push_back({a, x});
    // Conditions from the Lemma 13 proof: xBar < aBar / 8 and aBar >= 4
    // guarantee that Corollary 10 plus the Lemma 11 rounding reach the next
    // scheduled problem.
    if (!(8 * x < a) || a < 4) break;
    shift += 3;
  }
  return chain;
}

Chain exactChain(Count delta, Count x0) {
  if (x0 < 0 || x0 > delta) {
    throw re::Error("exactChain: x0 = " + std::to_string(x0) +
                    " outside [0, delta = " + std::to_string(delta) + "]");
  }
  Chain chain;
  chain.delta = delta;
  Count a = delta;
  Count x = x0;
  chain.steps.push_back({a, x});
  while (corollary10Applies(a, x, delta)) {
    const FamilyParams next = speedupParams({delta, a, x});
    if (next.a < 1 || next.x > delta - 1) break;  // would be 0-round solvable
    a = next.a;
    x = next.x;
    chain.steps.push_back({a, x});
  }
  return chain;
}

bool familyZeroRoundSolvable(Count delta, Count a, Count x) {
  return re::zeroRoundSolvableSymmetricPorts(familyProblem(delta, a, x));
}

std::string certifyChain(const Chain& chain, int numThreads) {
  return certifyChainImpl(
      chain, numThreads, obs::Tracer::global(), [&](std::size_t i) {
        return familyZeroRoundSolvable(chain.delta, chain.steps[i].a,
                                       chain.steps[i].x);
      });
}

std::string certifyChain(const Chain& chain, re::EngineSession& session,
                         int numThreads) {
  return certifyChainImpl(
      chain, numThreads, session.tracer(), [&](std::size_t i) {
        return session.zeroRoundSolvable(
            familyProblem(chain.delta, chain.steps[i].a, chain.steps[i].x),
            re::ZeroRoundMode::kSymmetricPorts);
      });
}

io::Certificate buildChainCertificate(const Chain& chain,
                                      re::EngineSession& session,
                                      int numThreads) {
  const std::string violation = certifyChain(chain, session, numThreads);
  if (!violation.empty()) {
    throw re::Error("buildChainCertificate: chain does not certify: " +
                    violation);
  }
  io::Certificate cert;
  cert.kind = "family-chain";
  cert.delta = chain.delta;
  cert.x0 = chain.steps.front().x;
  cert.engineInfo.emplace_back("generator", "relb");
  cert.engineInfo.emplace_back("chain_length",
                               std::to_string(chain.length()));
  for (const ChainStep& step : chain.steps) {
    io::CertificateStep out;
    out.a = step.a;
    out.x = step.x;
    out.problem = familyProblem(chain.delta, step.a, step.x);
    // certifyChain established non-solvability for every step; the verdicts
    // below are therefore all false, served from the session's cache.
    out.zeroRoundSolvable = session.zeroRoundSolvable(
        out.problem, re::ZeroRoundMode::kSymmetricPorts);
    cert.steps.push_back(std::move(out));
  }
  return cert;
}

io::Certificate buildChainCertificate(const Chain& chain,
                                      re::EngineSession* session,
                                      int numThreads) {
  if (session == nullptr) {
    throw re::Error("buildChainCertificate: no session");
  }
  return buildChainCertificate(chain, *session, numThreads);
}

Count pnLowerBoundRounds(Count delta, Count k) {
  // Lemma 5: solving Pi_Delta(a, k) takes one round given a k-outdegree
  // dominating set, so LB(k-outdegree DS) >= chain length - 1 ... in fact
  // the chain length t means Pi_0 needs >= t rounds, hence the dominating
  // set needs >= t - 1 rounds; report max(t - 1, 0).
  const Chain chain = exactChain(delta, k);
  const Count t = chain.length();
  return t > 0 ? t - 1 : 0;
}

}  // namespace relb::core
