#include "store/step_store.hpp"

#include <fstream>
#include <sstream>

#include "io/certificate.hpp"  // atomicWriteFile
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace relb::store {

using io::Json;
using re::Error;
using re::Problem;
using re::StepOptions;
using re::StepResult;
using re::ZeroRoundMode;

namespace {

constexpr std::string_view kFormatStamp = "relb-store 1";

const char* zeroRoundTag(ZeroRoundMode mode) {
  switch (mode) {
    case ZeroRoundMode::kSymmetricPorts: return "zr0";
    case ZeroRoundMode::kAdversarialPorts: return "zr1";
    case ZeroRoundMode::kWithEdgeInputs: return "zr2";
  }
  throw Error("step_store: unknown zero-round mode");
}

std::string hashHex(std::uint64_t hash) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

std::string wrapEntry(Json payload) {
  Json out = Json::object();
  out.set("format", "relb-store-entry");
  out.set("version", io::kFormatVersion);
  const std::string checksum = io::fnv1a64Hex(payload.dump());
  out.set("payload", std::move(payload));
  out.set("checksum", checksum);
  return out.dump() + "\n";
}

/// Parses and checksum-validates an entry file; throws re::Error on any
/// corruption (malformed JSON, bad format/version, checksum mismatch).
Json unwrapEntry(const std::string& text) {
  const Json doc = Json::parse(text);
  if (doc.at("format").asString() != "relb-store-entry") {
    throw Error("step_store: not a store entry");
  }
  if (doc.at("version").asInt() != io::kFormatVersion) {
    throw Error("step_store: unsupported entry version");
  }
  const Json& payload = doc.at("payload");
  if (io::fnv1a64Hex(payload.dump()) != doc.at("checksum").asString()) {
    throw Error("step_store: entry checksum mismatch");
  }
  return payload;
}

std::optional<std::string> readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string StoreStats::describe() const {
  return "store: " + std::to_string(hits) + " hits / " +
         std::to_string(misses) + " misses / " + std::to_string(writes) +
         " writes / " + std::to_string(quarantined) + " quarantined\n";
}

DiskStepStore::DiskStepStore(std::filesystem::path root,
                             obs::Registry& registry)
    : root_(std::move(root)),
      quarantinedCounter_(registry.counter("store.quarantine")) {
  std::filesystem::create_directories(root_ / "objects");
  std::filesystem::create_directories(root_ / "quarantine");
  const std::filesystem::path stamp = root_ / "FORMAT";
  if (const auto existing = readFile(stamp)) {
    // Trailing newline tolerated; anything else is another version.
    std::string trimmed = *existing;
    while (!trimmed.empty() && (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    if (trimmed != kFormatStamp) {
      throw Error("step_store: '" + root_.string() +
                  "' has incompatible format stamp '" + trimmed +
                  "' (expected '" + std::string(kFormatStamp) + "')");
    }
  } else {
    io::atomicWriteFile(stamp, std::string(kFormatStamp) + "\n");
  }
}

std::filesystem::path DiskStepStore::entryPath(std::uint64_t hash,
                                               const char* tag) const {
  const std::string hex = hashHex(hash);
  return root_ / "objects" / hex.substr(0, 2) / (hex + "." + tag + ".json");
}

void DiskStepStore::quarantine(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::rename(path, root_ / "quarantine" / path.filename(), ec);
  if (ec) std::filesystem::remove(path, ec);
  count(&StoreStats::quarantined);
  quarantinedCounter_.add();
}

void DiskStepStore::count(std::size_t StoreStats::* counter) {
  std::lock_guard lock(mutex_);
  ++(stats_.*counter);
}

StoreStats DiskStepStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t DiskStepStore::objectCount() const {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(
           root_ / "objects", ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file() && it->path().extension() == ".json") ++n;
  }
  return n;
}

std::optional<StepResult> DiskStepStore::loadStep(int kind,
                                                  const Problem& input,
                                                  std::uint64_t hash,
                                                  const StepOptions& options) {
  const obs::ScopedSpan span("store.load");
  const std::filesystem::path path =
      entryPath(hash, kind == 0 ? "r" : "rbar");
  const auto text = readFile(path);
  if (!text) {
    count(&StoreStats::misses);
    return std::nullopt;
  }
  try {
    const Json payload = unwrapEntry(*text);
    if (payload.at("op").asInt() != kind) {
      throw Error("step_store: entry operator mismatch");
    }
    if (io::problemFromJson(payload.at("input")) != input) {
      // Structural-hash collision: a different problem owns this slot.
      count(&StoreStats::misses);
      return std::nullopt;
    }
    if (kind == 1 &&
        (payload.at("max_rbar_delta").asInt() != options.maxRbarDelta ||
         payload.at("enumeration_limit").asInt() !=
             static_cast<std::int64_t>(options.enumerationLimit))) {
      // Computed under other guards; not corrupt, just not reusable.
      count(&StoreStats::misses);
      return std::nullopt;
    }
    const Json& result = payload.at("result");
    StepResult out;
    out.problem = io::problemFromJson(result.at("problem"));
    for (const Json& s : result.at("meaning").asArray()) {
      out.meaning.push_back(io::labelSetFromJson(s, input.alphabet.size()));
    }
    if (static_cast<int>(out.meaning.size()) != out.problem.alphabet.size()) {
      throw Error("step_store: meaning size does not match result alphabet");
    }
    count(&StoreStats::hits);
    return out;
  } catch (const Error&) {
    quarantine(path);
    count(&StoreStats::misses);
    return std::nullopt;
  }
}

void DiskStepStore::storeStep(int kind, const Problem& input,
                              std::uint64_t hash, const StepOptions& options,
                              const StepResult& result) {
  const obs::ScopedSpan span("store.write");
  Json payload = Json::object();
  payload.set("op", kind);
  payload.set("input", io::problemToJson(input));
  if (kind == 1) {
    payload.set("max_rbar_delta", options.maxRbarDelta);
    payload.set("enumeration_limit",
                static_cast<std::int64_t>(options.enumerationLimit));
  }
  Json res = Json::object();
  res.set("problem", io::problemToJson(result.problem));
  Json meaning = Json::array();
  for (const re::LabelSet s : result.meaning) {
    meaning.push(io::labelSetToJson(s));
  }
  res.set("meaning", std::move(meaning));
  payload.set("result", std::move(res));

  const std::filesystem::path path =
      entryPath(hash, kind == 0 ? "r" : "rbar");
  std::filesystem::create_directories(path.parent_path());
  io::atomicWriteFile(path, wrapEntry(std::move(payload)));
  count(&StoreStats::writes);
}

std::optional<std::string> DiskStepStore::loadStepRefusal(
    int kind, const Problem& input, std::uint64_t hash,
    const StepOptions& options) {
  const std::filesystem::path path =
      entryPath(hash, kind == 0 ? "rref" : "rbarref");
  const auto text = readFile(path);
  if (!text) return std::nullopt;
  const obs::ScopedSpan span("store.load");
  try {
    const Json payload = unwrapEntry(*text);
    if (payload.at("op").asInt() != kind) {
      throw Error("step_store: entry operator mismatch");
    }
    if (io::problemFromJson(payload.at("input")) != input ||
        payload.at("max_rbar_delta").asInt() != options.maxRbarDelta ||
        payload.at("enumeration_limit").asInt() !=
            static_cast<std::int64_t>(options.enumerationLimit)) {
      return std::nullopt;  // another problem's or other guards' refusal
    }
    std::string message = payload.at("refusal").asString();
    count(&StoreStats::hits);
    return message;
  } catch (const Error&) {
    quarantine(path);
    return std::nullopt;
  }
}

void DiskStepStore::storeStepRefusal(int kind, const Problem& input,
                                     std::uint64_t hash,
                                     const StepOptions& options,
                                     const std::string& message) {
  const obs::ScopedSpan span("store.write");
  Json payload = Json::object();
  payload.set("op", kind);
  payload.set("input", io::problemToJson(input));
  payload.set("max_rbar_delta", options.maxRbarDelta);
  payload.set("enumeration_limit",
              static_cast<std::int64_t>(options.enumerationLimit));
  payload.set("refusal", message);

  const std::filesystem::path path =
      entryPath(hash, kind == 0 ? "rref" : "rbarref");
  std::filesystem::create_directories(path.parent_path());
  io::atomicWriteFile(path, wrapEntry(std::move(payload)));
  count(&StoreStats::writes);
}

std::optional<bool> DiskStepStore::loadZeroRound(ZeroRoundMode mode,
                                                 const Problem& input,
                                                 std::uint64_t hash) {
  const obs::ScopedSpan span("store.load");
  const std::filesystem::path path = entryPath(hash, zeroRoundTag(mode));
  const auto text = readFile(path);
  if (!text) {
    count(&StoreStats::misses);
    return std::nullopt;
  }
  try {
    const Json payload = unwrapEntry(*text);
    if (io::problemFromJson(payload.at("input")) != input) {
      count(&StoreStats::misses);
      return std::nullopt;
    }
    const bool solvable = payload.at("solvable").asBool();
    count(&StoreStats::hits);
    return solvable;
  } catch (const Error&) {
    quarantine(path);
    count(&StoreStats::misses);
    return std::nullopt;
  }
}

void DiskStepStore::storeZeroRound(ZeroRoundMode mode, const Problem& input,
                                   std::uint64_t hash, bool solvable) {
  const obs::ScopedSpan span("store.write");
  Json payload = Json::object();
  payload.set("mode", static_cast<std::int64_t>(mode));
  payload.set("input", io::problemToJson(input));
  payload.set("solvable", solvable);

  const std::filesystem::path path = entryPath(hash, zeroRoundTag(mode));
  std::filesystem::create_directories(path.parent_path());
  io::atomicWriteFile(path, wrapEntry(std::move(payload)));
  count(&StoreStats::writes);
}

}  // namespace relb::store
