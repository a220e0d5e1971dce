#include "family/derive.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "re/zero_round.hpp"

namespace relb::family {

io::Certificate buildTraceCertificate(const re::Problem& start,
                                      re::EngineSession& session, int maxSteps,
                                      int maxLabels) {
  io::Certificate cert;
  cert.kind = "speedup-trace";
  cert.engineInfo.emplace_back("generator", "relb");

  const auto record = [&](const std::string& op, re::Problem problem,
                          std::optional<std::vector<re::LabelSet>> meaning) {
    io::CertificateStep step;
    step.op = op;
    step.meaning = std::move(meaning);
    step.zeroRoundSolvable = session.zeroRoundSolvable(
        problem, re::ZeroRoundMode::kSymmetricPorts);
    step.problem = std::move(problem);
    const bool stop = step.zeroRoundSolvable;
    cert.steps.push_back(std::move(step));
    return stop;
  };

  if (record("input", start, std::nullopt)) return cert;
  re::Problem current = start;
  for (int i = 0; i < maxSteps; ++i) {
    // An engine guard (alphabet outgrew the exact sweeps) ends the trace;
    // the prefix recorded so far is still a sound certificate.
    try {
      re::StepResult r = session.applyR(current);
      if (record("R", r.problem, r.meaning)) return cert;
      re::StepResult rbar = session.applyRbar(r.problem);
      if (record("Rbar", rbar.problem, rbar.meaning)) return cert;
      current = std::move(rbar.problem);
    } catch (const re::Error&) {
      return cert;
    }
    if (current.alphabet.size() > maxLabels) return cert;
  }
  return cert;
}

void annotateCertificate(io::Certificate& cert, const FamilyDef& def,
                         const Env& params) {
  cert.engineInfo.emplace_back("family", def.name);
  for (const auto& [name, value] : params) {
    cert.engineInfo.emplace_back("param." + name, std::to_string(value));
  }
}

FamilyDerivation deriveFamilyBound(const FamilyDef& def, const Env& overrides,
                                   re::EngineSession& session,
                                   const DeriveOptions& options) {
  FamilyDerivation out;
  out.params = resolveParams(def, overrides);
  out.problem = instantiate(def, out.params);
  out.published = publishedBound(def, out.params);

  re::AutoLowerBoundOptions lbOptions;
  lbOptions.maxSteps = options.maxSteps;
  lbOptions.maxLabels = options.autoboundMaxLabels;
  out.bound = session.autoLowerBound(out.problem, lbOptions);

  out.certificate = buildTraceCertificate(out.problem, session,
                                          options.maxSteps,
                                          options.traceMaxLabels);
  annotateCertificate(out.certificate, def, out.params);
  return out;
}

}  // namespace relb::family
