// Fuzz entry point + standalone corpus runner for the family-definition
// DSL parser (the fuzz_parse pattern, applied to src/family).
//
// Oracles on every input:
//   * parseFamilyText must either throw re::Error or yield a definition
//     whose render -> parse round-trip is the structural identity (and
//     whose canonical serialization is a fixpoint);
//   * a successfully parsed definition must instantiate deterministically
//     at its parameter defaults, or reject with re::Error -- instantiation
//     of hostile definitions must never crash, loop, or produce an invalid
//     problem (the result always passes Problem::validate, re-asserted
//     through a JSON round-trip).
// Anything else -- a crash, a non-Error exception, a mismatch -- is a
// finding.
//
// Build modes (mirrors tools/fuzz_parse.cpp):
//   * default: standalone runner.  `fuzz_family <file-or-dir>...` replays
//     corpus entries; `fuzz_family --generate <dir>` writes the canonical
//     serialization of every built-in definition into <dir> (this is also
//     how families/*.fam are produced, so the pinned files can never drift
//     from the built-ins except by failing their test).
//   * -DRELB_FUZZ_ENGINE: libFuzzer entry point; the corpus under
//     tests/data/fuzz/family seeds the exploration.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "family/text.hpp"
#include "io/serialize.hpp"

namespace {

// Distinct from re::Error so the catch blocks cannot swallow it: an Error
// is the parser doing its job, a Finding is a broken promise.
struct Finding : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void fuzzOne(std::string_view text) {
  namespace family = relb::family;
  namespace io = relb::io;
  namespace re = relb::re;
  family::FamilyDef def;
  try {
    def = family::parseFamilyText(text);
  } catch (const re::Error&) {
    return;  // rejection with a diagnostic is correct on malformed input
  }
  const std::string canonical = family::renderFamilyText(def);
  if (!(family::parseFamilyText(canonical) == def)) {
    throw Finding("family text round-trip mismatch");
  }
  if (family::renderFamilyText(family::parseFamilyText(canonical)) !=
      canonical) {
    throw Finding("family canonical serialization is not a fixpoint");
  }
  try {
    const re::Problem p = family::instantiateWithDefaults(def);
    const re::Problem again = family::instantiateWithDefaults(def);
    if (!(again == p)) {
      throw Finding("family instantiation is not deterministic");
    }
    const re::Problem reloaded =
        io::problemFromJson(io::Json::parse(io::problemToJson(p).dump()));
    if (!(reloaded == p)) {
      throw Finding("instantiated problem fails the JSON round-trip");
    }
  } catch (const re::Error&) {
    // Unsatisfiable parameters / ill-formed expansions reject cleanly.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzzOne(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}

#ifndef RELB_FUZZ_ENGINE

#include <filesystem>
#include <iostream>
#include <vector>

#include "family/builtin.hpp"
#include "fuzz_corpus.hpp"

namespace {

namespace fs = std::filesystem;

// Writes <name>.fam for every built-in: the generator for both families/
// and the corpus seeds.
int generateBuiltins(const fs::path& dir) {
  namespace family = relb::family;
  fs::create_directories(dir);
  for (const family::FamilyDef& def : family::builtinFamilies()) {
    family::saveFamilyFile(dir / (def.name + ".fam"), def);
  }
  std::cout << "fuzz_family: wrote "
            << family::builtinFamilies().size()
            << " canonical definitions to " << dir.string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--generate") {
    return generateBuiltins(args[1]);
  }
  if (args.empty() || args[0] == "--help") {
    std::cerr << "usage: fuzz_family <file-or-dir>...\n"
              << "       fuzz_family --generate <dir>\n"
              << "Replays fuzz corpus entries through the family-definition\n"
              << "DSL parser (see docs/testing.md), or writes the canonical\n"
              << "serialization of the built-in families.  Exits 0 iff\n"
              << "every entry behaves.\n";
    return args.empty() ? 2 : 0;
  }
  return relb::tools::runCorpus("fuzz_family", args, fuzzOne);
}

#endif  // RELB_FUZZ_ENGINE
