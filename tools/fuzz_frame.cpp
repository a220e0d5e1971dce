// Fuzz entry point + standalone corpus runner for the service wire protocol
// (serve/protocol.hpp).
//
// Three oracles run on every input:
//   * FrameDecoder fed the raw bytes (whole, then byte-at-a-time -- the two
//     feeds must agree on payloads and on whether the stream poisons) must
//     either yield payloads or throw re::Error; once poisoned it must stay
//     poisoned;
//   * every extracted payload goes through Json::parse + requestFromJson
//     and responseFromJson, which must either throw re::Error or yield an
//     envelope whose re-encode -> decode round-trip is the identity;
//   * any payload that decodes must also re-frame: encodeFrame(payload)
//     fed back through a fresh decoder must return the identical payload.
// Anything else -- a crash, a non-Error exception, a disagreement between
// the two feeds, a round-trip mismatch -- is a finding.
//
// Build modes mirror fuzz_parse.cpp: a standalone corpus runner by default
// (`fuzz_frame <file-or-dir>...`, plus `--generate <count> <seed> <dir>` to
// grow the corpus from well-formed random envelopes), and a libFuzzer
// target with -DRELB_FUZZ (clang only).  The committed corpus lives under
// tests/data/fuzz/serve.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "serve/protocol.hpp"

namespace {

// Distinct from re::Error so the catch blocks below cannot swallow it: an
// Error is the decoder doing its job, a Finding is the decoder breaking a
// promise.
struct Finding : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct DecodeRun {
  std::vector<std::string> payloads;
  bool poisoned = false;
};

DecodeRun drain(relb::serve::FrameDecoder& decoder) {
  DecodeRun run;
  try {
    while (true) {
      std::optional<std::string> payload = decoder.next();
      if (!payload.has_value()) break;
      run.payloads.push_back(std::move(*payload));
    }
  } catch (const relb::re::Error&) {
    run.poisoned = true;
    // Poison must be sticky.
    try {
      (void)decoder.next();
      throw Finding("poisoned decoder yielded instead of rethrowing");
    } catch (const relb::re::Error&) {
    }
  }
  return run;
}

void checkPayload(const std::string& payload) {
  namespace serve = relb::serve;
  namespace io = relb::io;
  // Re-framing a decoded payload is the identity.
  serve::FrameDecoder again;
  again.feed(serve::encodeFrame(payload));
  if (again.next() != payload) {
    throw Finding("encodeFrame(payload) did not decode back to payload");
  }
  try {
    const io::Json j = io::Json::parse(payload);
    try {
      const serve::Request request = serve::requestFromJson(j);
      const serve::Request reencoded =
          serve::requestFromJson(serve::requestToJson(request));
      if (serve::requestToJson(reencoded).dump() !=
          serve::requestToJson(request).dump()) {
        throw Finding("request envelope round-trip mismatch");
      }
    } catch (const relb::re::Error&) {
    }
    try {
      const serve::Response response = serve::responseFromJson(j);
      const serve::Response reencoded =
          serve::responseFromJson(serve::responseToJson(response));
      if (serve::responseToJson(reencoded).dump() !=
          serve::responseToJson(response).dump()) {
        throw Finding("response envelope round-trip mismatch");
      }
    } catch (const relb::re::Error&) {
    }
  } catch (const relb::re::Error&) {
    // Payloads need not be JSON at the framing layer.
  }
}

void fuzzOne(std::string_view bytes) {
  namespace serve = relb::serve;
  // Whole-buffer feed and byte-at-a-time feed must agree exactly: the
  // decoder is incremental by contract.
  serve::FrameDecoder whole;
  whole.feed(bytes);
  const DecodeRun wholeRun = drain(whole);

  serve::FrameDecoder trickle;
  DecodeRun trickleRun;
  for (std::size_t i = 0; i < bytes.size() && !trickleRun.poisoned; ++i) {
    trickle.feed(bytes.substr(i, 1));
    DecodeRun step = drain(trickle);
    trickleRun.poisoned = step.poisoned;
    for (std::string& payload : step.payloads) {
      trickleRun.payloads.push_back(std::move(payload));
    }
  }
  if (wholeRun.poisoned != trickleRun.poisoned ||
      wholeRun.payloads != trickleRun.payloads) {
    throw Finding("whole-buffer and incremental decodes disagree");
  }
  for (const std::string& payload : wholeRun.payloads) {
    checkPayload(payload);
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

#include "fuzz_corpus.hpp"

namespace {

namespace fs = std::filesystem;

// Serializes well-formed framed envelopes (requests and responses, with a
// few back-to-back frames per entry) into `dir` to seed exploration.
int generateCorpus(int count, unsigned seed, const fs::path& dir) {
  namespace serve = relb::serve;
  fs::create_directories(dir);
  std::mt19937 rng(seed);
  for (int i = 0; i < count; ++i) {
    std::string bytes;
    const int frames = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < frames; ++f) {
      switch (rng() % 4) {
        case 0: {
          serve::Request request;
          request.kind = serve::Request::Kind::kPing;
          request.id = static_cast<std::int64_t>(rng() % 100);
          bytes += serve::encodeFrame(serve::requestToJson(request).dump());
          break;
        }
        case 1: {
          serve::Request request;
          request.kind = serve::Request::Kind::kProblem;
          request.id = static_cast<std::int64_t>(rng() % 100);
          request.nodeSpec = "M^3; P O^2";
          request.edgeSpec = "M [P O]; O O";
          request.maxSteps = 1 + static_cast<int>(rng() % 6);
          request.wantCertificate = (rng() % 2) == 0;
          bytes += serve::encodeFrame(serve::requestToJson(request).dump());
          break;
        }
        case 2: {
          serve::Request request;
          request.kind = serve::Request::Kind::kChain;
          request.id = static_cast<std::int64_t>(rng() % 100);
          request.chainDelta = static_cast<std::int64_t>(rng() % 5);
          request.deadlineMillis = static_cast<std::int64_t>(rng() % 1000);
          bytes += serve::encodeFrame(serve::requestToJson(request).dump());
          break;
        }
        default: {
          serve::Response response = serve::errorResponse(
              static_cast<std::int64_t>(rng() % 100),
              serve::StatusCode::kRejected, "admission queue full");
          bytes += serve::encodeFrame(serve::responseToJson(response).dump());
          break;
        }
      }
    }
    const std::string stem =
        "gen-" + std::to_string(seed) + "-" + std::to_string(i);
    std::ofstream(dir / (stem + ".frames"), std::ios::binary) << bytes;
  }
  std::cout << "fuzz_frame: wrote " << count << " corpus entries to "
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
    std::cerr << "usage: fuzz_frame <file-or-dir>...\n"
              << "       fuzz_frame --generate <count> <seed> <dir>\n"
              << "Replays fuzz corpus entries through the service frame\n"
              << "decoder and envelope codecs (see docs/service.md).\n"
              << "Exits 0 iff every entry behaves.\n";
    return args.empty() ? 2 : 0;
  }
  return relb::tools::runCorpus("fuzz_frame", args, fuzzOne);
}

#endif  // RELB_FUZZ_ENGINE
