#include "io/certificate.hpp"

#include "io/file.hpp"

namespace relb::io {

using re::Error;

namespace {

const SealedLayout kLayout{"certificate", "relb-certificate", kFormatVersion,
                           {"params", "steps", "engine"}};

Json stepToJson(const CertificateStep& step, const std::string& kind) {
  Json out = Json::object();
  if (kind == "family-chain") {
    out.set("a", static_cast<std::int64_t>(step.a));
    out.set("x", static_cast<std::int64_t>(step.x));
  } else {
    out.set("op", step.op);
    if (step.meaning.has_value()) {
      Json meaning = Json::array();
      for (const re::LabelSet s : *step.meaning) {
        meaning.push(labelSetToJson(s));
      }
      out.set("meaning", std::move(meaning));
    }
  }
  out.set("problem", problemToJson(step.problem));
  out.set("zero_round_solvable", step.zeroRoundSolvable);
  if (!step.notes.empty()) {
    Json notes = Json::array();
    for (const std::string& note : step.notes) notes.push(note);
    out.set("notes", std::move(notes));
  }
  return out;
}

CertificateStep stepFromJson(const Json& j, const std::string& kind) {
  CertificateStep step;
  if (kind == "family-chain") {
    step.a = j.at("a").asInt();
    step.x = j.at("x").asInt();
  } else {
    step.op = j.at("op").asString();
    if (step.op != "input" && step.op != "R" && step.op != "Rbar") {
      throw Error("certificate: unknown step operator '" + step.op + "'");
    }
  }
  step.problem = problemFromJson(j.at("problem"));
  if (const Json* meaning = j.find("meaning")) {
    std::vector<re::LabelSet> sets;
    for (const Json& s : meaning->asArray()) {
      // Meanings refer to the *previous* step's alphabet, which is unknown
      // here; bounds are checked against kMaxLabels now and against the
      // actual predecessor during verification.
      sets.push_back(labelSetFromJson(s, re::kMaxLabels));
    }
    step.meaning = std::move(sets);
  }
  step.zeroRoundSolvable = j.at("zero_round_solvable").asBool();
  if (const Json* notes = j.find("notes")) {
    for (const Json& note : notes->asArray()) {
      step.notes.push_back(note.asString());
    }
  }
  return step;
}

}  // namespace

Json certificateToJson(const Certificate& cert) {
  if (cert.kind != "family-chain" && cert.kind != "speedup-trace") {
    throw Error("certificate: unknown kind '" + cert.kind + "'");
  }
  Json params = Json::object();
  params.set("kind", cert.kind);
  if (cert.kind == "family-chain") {
    params.set("delta", static_cast<std::int64_t>(cert.delta));
    params.set("x0", static_cast<std::int64_t>(cert.x0));
  }

  Json steps = Json::array();
  for (const CertificateStep& step : cert.steps) {
    steps.push(stepToJson(step, cert.kind));
  }

  Json engine = Json::object();
  for (const auto& [key, value] : cert.engineInfo) engine.set(key, value);

  Json sections[] = {std::move(params), std::move(steps), std::move(engine)};
  return sealSections(kLayout, cert.version, sections);
}

Certificate certificateFromJson(const Json& j) {
  checkSealed(kLayout, j);
  Certificate cert;
  const Json& params = j.at("params");
  cert.kind = params.at("kind").asString();
  if (cert.kind != "family-chain" && cert.kind != "speedup-trace") {
    throw Error("certificate: unknown kind '" + cert.kind + "'");
  }
  if (cert.kind == "family-chain") {
    cert.delta = params.at("delta").asInt();
    cert.x0 = params.at("x0").asInt();
  }
  for (const Json& step : j.at("steps").asArray()) {
    cert.steps.push_back(stepFromJson(step, cert.kind));
  }
  for (const auto& [key, value] : j.at("engine").asObject()) {
    cert.engineInfo.emplace_back(key, value.asString());
  }
  return cert;
}

void saveCertificate(const std::filesystem::path& path,
                     const Certificate& cert) {
  atomicWriteFile(path, certificateToJson(cert).dumpPretty());
}

Certificate loadCertificate(const std::filesystem::path& path) {
  const auto text = readFile(path);
  if (!text) throw Error("io: cannot open '" + path.string() + "'");
  return certificateFromJson(Json::parse(*text));
}

}  // namespace relb::io
