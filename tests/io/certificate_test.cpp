// Certificates end to end: build from a certified chain, serialize, reload,
// verify independently, and reject every class of mutation.  Also pins the
// golden certificate in tests/data/ -- regenerating the same chain must
// reproduce it byte for byte.
#include "io/certificate.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/sequence.hpp"
#include "io/verify.hpp"
#include "re/engine.hpp"
#include "re/re_step.hpp"
#include "re/zero_round.hpp"

namespace relb::io {
namespace {

using core::Chain;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Certificate goldenEquivalent() {
  re::EngineSession session;
  return core::buildChainCertificate(core::exactChain(32, 1), session);
}

TEST(Certificate, BuildSerializeReloadVerify) {
  const Certificate cert = goldenEquivalent();
  EXPECT_EQ(cert.kind, "family-chain");
  EXPECT_EQ(cert.delta, 32);
  EXPECT_EQ(cert.steps.size(), 3u);
  EXPECT_EQ(cert.claimedRounds(), 2);

  const Certificate back = certificateFromJson(
      Json::parse(certificateToJson(cert).dumpPretty()));
  EXPECT_EQ(back.kind, cert.kind);
  EXPECT_EQ(back.delta, cert.delta);
  EXPECT_EQ(back.x0, cert.x0);
  ASSERT_EQ(back.steps.size(), cert.steps.size());
  for (std::size_t i = 0; i < cert.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].a, cert.steps[i].a);
    EXPECT_EQ(back.steps[i].x, cert.steps[i].x);
    EXPECT_EQ(back.steps[i].problem, cert.steps[i].problem);
    EXPECT_EQ(back.steps[i].zeroRoundSolvable, cert.steps[i].zeroRoundSolvable);
  }
  EXPECT_EQ(back.engineInfo, cert.engineInfo);

  const VerifyReport report = verifyCertificate(back);
  EXPECT_TRUE(report.ok) << report.describe();
  EXPECT_EQ(report.provenRounds, 2);
  EXPECT_TRUE(report.errors.empty());
}

TEST(Certificate, GoldenFileIsReproducedByteForByte) {
  const std::string goldenPath =
      std::string(RELB_TEST_DATA_DIR) + "/golden_certificate.json";
  const std::string onDisk = slurp(goldenPath);
  EXPECT_EQ(certificateToJson(goldenEquivalent()).dumpPretty(), onDisk)
      << "regenerating exactChain(32, 1) no longer reproduces "
      << goldenPath << "; if the schema changed intentionally, bump "
      << "kFormatVersion and regenerate the golden file";

  const Certificate loaded = loadCertificate(goldenPath);
  const VerifyReport report = verifyCertificate(loaded);
  EXPECT_TRUE(report.ok) << report.describe();
}

TEST(Certificate, ChecksumRejectsTextTampering) {
  const std::string text = certificateToJson(goldenEquivalent()).dumpPretty();
  // Flip a recorded parameter in the raw JSON without fixing the section
  // checksum -- loading must fail before any semantic check runs.
  std::string tampered = text;
  const auto pos = tampered.find("\"a\": 14");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 7, "\"a\": 15");
  try {
    (void)certificateFromJson(Json::parse(tampered));
    FAIL() << "expected checksum mismatch";
  } catch (const re::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos);
  }
}

TEST(Certificate, VerifierRejectsSemanticMutations) {
  // Mutations with *recomputed* checksums get past loading; the verifier
  // must catch them semantically.
  {
    // Wrong parameters: the recorded problem no longer matches.
    Certificate c = goldenEquivalent();
    c.steps[1].a += 1;
    const VerifyReport r = verifyCertificate(c);
    EXPECT_FALSE(r.ok);
  }
  {
    // Flipped configuration: drop a node configuration from one step.
    Certificate c = goldenEquivalent();
    auto configs = c.steps[0].problem.node.configurations();
    configs.pop_back();
    c.steps[0].problem.node =
        re::Constraint(c.steps[0].problem.node.degree(), std::move(configs));
    const VerifyReport r = verifyCertificate(c);
    EXPECT_FALSE(r.ok);
  }
  {
    // Flipped zero-round verdict.
    Certificate c = goldenEquivalent();
    c.steps[2].zeroRoundSolvable = true;
    const VerifyReport r = verifyCertificate(c);
    EXPECT_FALSE(r.ok);
  }
  {
    // Unreachable jump: x decreases along the chain.
    Certificate c = goldenEquivalent();
    c.steps[2].x = 1;
    c.steps[2].problem = reconstructFamilyProblem(c.delta, c.steps[2].a, 1);
    const VerifyReport r = verifyCertificate(c);
    EXPECT_FALSE(r.ok);
  }
}

TEST(Certificate, IndependentReconstructionMatchesCore) {
  // The verifier's from-the-paper reconstruction and the engine-side
  // construction must agree exactly -- this is the cross-check that lets
  // the verifier trust neither.
  for (re::Count delta : {3, 5, 8, 32}) {
    for (re::Count a = 0; a <= delta; a += (delta > 8 ? 3 : 1)) {
      for (re::Count x = 0; x <= delta; x += (delta > 8 ? 5 : 1)) {
        EXPECT_EQ(reconstructFamilyProblem(delta, a, x),
                  core::familyProblem(delta, a, x))
            << "delta=" << delta << " a=" << a << " x=" << x;
      }
    }
  }
}

TEST(Certificate, SpeedupTraceVerifiesAndRejectsBadMeanings) {
  // Build a genuine two-operator trace for MIS at Delta = 3.
  const re::Problem start = re::misProblem(3);
  const re::StepResult r = re::applyR(start);
  const re::StepResult rbar = re::applyRbar(r.problem);

  Certificate cert;
  cert.kind = "speedup-trace";
  const auto record = [&](const std::string& op, const re::Problem& problem,
                          std::optional<std::vector<re::LabelSet>> meaning) {
    CertificateStep step;
    step.op = op;
    step.problem = problem;
    step.meaning = std::move(meaning);
    step.zeroRoundSolvable = re::zeroRoundSolvableSymmetricPorts(problem);
    cert.steps.push_back(std::move(step));
  };
  record("input", start, std::nullopt);
  record("R", r.problem, r.meaning);
  record("Rbar", rbar.problem, rbar.meaning);

  EXPECT_TRUE(verifyCertificate(cert).ok)
      << verifyCertificate(cert).describe();

  // Round trip preserves the meanings.
  const Certificate back =
      certificateFromJson(Json::parse(certificateToJson(cert).dump()));
  ASSERT_TRUE(back.steps[1].meaning.has_value());
  EXPECT_EQ(*back.steps[1].meaning, r.meaning);
  EXPECT_TRUE(verifyCertificate(back).ok);

  // Corrupt a renaming map: claim a fresh label means a *larger* set than
  // it does.  The decoded edge configurations now contain forbidden words.
  Certificate bad = cert;
  auto& meaning = *bad.steps[1].meaning;
  meaning[0] = re::LabelSet::full(start.alphabet.size());
  const VerifyReport report = verifyCertificate(bad);
  EXPECT_FALSE(report.ok);

  // Wrong operator order / unknown ops are rejected structurally.
  Certificate wrongOp = cert;
  wrongOp.steps[1].op = "input";
  EXPECT_FALSE(verifyCertificate(wrongOp).ok);
}

TEST(Certificate, SaveLoadAtomicAndUnreadable) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/cert.json";
  const Certificate cert = goldenEquivalent();
  saveCertificate(path, cert);
  const Certificate back = loadCertificate(path);
  EXPECT_EQ(certificateToJson(back).dump(), certificateToJson(cert).dump());

  EXPECT_THROW((void)loadCertificate(dir + "/missing.json"), re::Error);

  // Truncated file: rejected by parse or checksum, never accepted.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << certificateToJson(cert).dumpPretty().substr(0, 100);
  }
  EXPECT_THROW((void)loadCertificate(path), re::Error);
}

}  // namespace
}  // namespace relb::io
