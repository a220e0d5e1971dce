// Fuzz entry point + standalone corpus runner for the problem parsers.
//
// Two oracles run on every input:
//   * io::parseProblemText must either throw re::Error or yield a problem
//     whose render -> parse round-trip is the identity;
//   * io::Json::parse + io::problemFromJson, with the same contract on the
//     JSON side.
// Anything else -- a crash, a non-Error exception, a round-trip mismatch --
// is a finding.
//
// Build modes:
//   * default: standalone runner.  `fuzz_parse <file-or-dir>...` replays
//     every corpus entry (directories are walked recursively) and exits 0
//     iff all of them behave; `fuzz_parse --generate <count> <seed> <dir>`
//     serializes fresh random problems (text and JSON) into <dir> to grow
//     the corpus from src/gen.
//   * -DRELB_FUZZ_ENGINE (with clang and -fsanitize=fuzzer): drops main()
//     and exposes LLVMFuzzerTestOneInput for libFuzzer.  The committed
//     corpus under tests/data/fuzz/parse seeds the exploration.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/serialize.hpp"
#include "re/problem.hpp"

namespace {

// Distinct from re::Error so the catch blocks below cannot swallow it: an
// Error is the parser doing its job, a Finding is the parser breaking a
// promise.
struct Finding : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void fuzzOne(std::string_view text) {
  namespace io = relb::io;
  namespace re = relb::re;
  try {
    const re::Problem p = io::parseProblemText(text);
    const re::Problem again = io::parseProblemText(io::renderProblemText(p));
    if (!(again == p)) {
      throw Finding("parseProblemText round-trip mismatch");
    }
  } catch (const re::Error&) {
    // Rejection with a diagnostic is correct behavior on malformed input.
  }
  try {
    const io::Json j = io::Json::parse(text);
    const re::Problem p = io::problemFromJson(j);
    const re::Problem again =
        io::problemFromJson(io::Json::parse(io::problemToJson(p).dump()));
    if (!(again == p)) {
      throw Finding("problemFromJson round-trip mismatch");
    }
  } catch (const re::Error&) {
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
#include <fstream>
#include <iostream>
#include <random>
#include <vector>

#include "gen/random_problem.hpp"
#include "fuzz_corpus.hpp"

namespace {

namespace fs = std::filesystem;

// Serializes `count` random problems into `dir`, both formats.  File names
// embed the seed so regenerated corpora never collide with existing entries.
int generateCorpus(int count, unsigned seed, const fs::path& dir) {
  namespace gen = relb::gen;
  namespace io = relb::io;
  fs::create_directories(dir);
  std::mt19937 rng(seed);
  gen::RandomProblemOptions options;
  options.rightClosurePass = true;
  for (int i = 0; i < count; ++i) {
    const relb::re::Problem p = gen::randomProblem(rng, options);
    const std::string stem =
        "gen-" + std::to_string(seed) + "-" + std::to_string(i);
    std::ofstream(dir / (stem + ".txt"), std::ios::binary)
        << io::renderProblemText(p);
    std::ofstream(dir / (stem + ".json"), std::ios::binary)
        << io::problemToJson(p).dumpPretty() << "\n";
  }
  std::cout << "fuzz_parse: wrote " << 2 * count << " corpus entries to "
            << dir.string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 4 && args[0] == "--generate") {
    return generateCorpus(std::stoi(args[1]),
                          static_cast<unsigned>(std::stoul(args[2])),
                          args[3]);
  }
  if (args.empty() || args[0] == "--help") {
    std::cerr << "usage: fuzz_parse <file-or-dir>...\n"
              << "       fuzz_parse --generate <count> <seed> <dir>\n"
              << "Replays fuzz corpus entries through the problem parsers\n"
              << "(see docs/testing.md), or grows the corpus with random\n"
              << "generator output.  Exits 0 iff every entry behaves.\n";
    return args.empty() ? 2 : 0;
  }
  return relb::tools::runCorpus("fuzz_parse", args, fuzzOne);
}

#endif  // RELB_FUZZ_ENGINE
