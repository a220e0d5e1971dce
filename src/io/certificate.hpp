// Certificate: the durable, independently checkable record of a
// lower-bound derivation (docs/formats.md gives the full schema).
//
// Two kinds:
//   * "family-chain" -- a Lemma 13 speedup chain over the paper's family
//     Pi_Delta(a, x): per step the parameters, the full problem, and the
//     claimed zero-round verdict.  Everything is re-derivable from first
//     principles, so the verifier re-checks every claim without the engine.
//   * "speedup-trace" -- an explicit R / Rbar iteration: per step the
//     operator applied, the resulting problem, and the renaming map
//     (meaning[newLabel] = set of previous-step labels).  The verifier
//     re-checks the soundness side of each operator plus the zero-round
//     verdicts (see io/verify.hpp for the exact contract).
//
// The serialized form is a sealed-section document (io/file.hpp) with
// sections "params", "steps" and "engine"; loadCertificate rejects any
// format, version or checksum mismatch, so a tampered or truncated file
// never reaches semantic verification.
// Certificates contain no timestamps or timings: re-deriving the same chain
// must reproduce the file byte for byte (asserted in CI against the golden
// certificate and between cold- and warm-store runs).
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "io/serialize.hpp"

namespace relb::io {

struct CertificateStep {
  // family-chain: the family parameters of this step's problem.
  re::Count a = 0;
  re::Count x = 0;
  // speedup-trace: "input", "R", or "Rbar", plus the renaming map from the
  // previous step's labels.
  std::string op;
  std::optional<std::vector<re::LabelSet>> meaning;
  // Both kinds.
  re::Problem problem;
  bool zeroRoundSolvable = false;
  /// Free-form per-step annotations (pass notes, label counts).  Checksummed
  /// but not semantically verified; must stay reproducible (no timings).
  std::vector<std::string> notes;
};

struct Certificate {
  int version = kFormatVersion;
  std::string kind;  // "family-chain" or "speedup-trace"
  // family-chain parameters (0 for speedup-trace).
  re::Count delta = 0;
  re::Count x0 = 0;
  std::vector<CertificateStep> steps;
  /// Freeform generator metadata (tool name, thread count, ...).  Verified
  /// only against the section checksum.
  std::vector<std::pair<std::string, std::string>> engineInfo;

  /// Steps - 1 for a chain: the round lower bound the certificate claims.
  [[nodiscard]] re::Count claimedRounds() const {
    return steps.empty() ? 0 : static_cast<re::Count>(steps.size()) - 1;
  }
};

/// Serializes with per-section checksums; deterministic byte-for-byte.
[[nodiscard]] Json certificateToJson(const Certificate& cert);

/// Validates format, version, and every section checksum before decoding;
/// throws re::Error (naming the section) on any mismatch.
[[nodiscard]] Certificate certificateFromJson(const Json& j);

/// Pretty-printed JSON to `path` via a temp file + atomic rename.
void saveCertificate(const std::filesystem::path& path,
                     const Certificate& cert);

/// Reads and decodes (including checksum validation).  Throws re::Error on
/// I/O failure or any validation error.
[[nodiscard]] Certificate loadCertificate(const std::filesystem::path& path);

}  // namespace relb::io
