#include "store/step_store.hpp"

#include "io/file.hpp"
#include "io/serialize.hpp"
#include "obs/trace.hpp"

namespace relb::store {

using io::Json;
using re::Error;
using re::Problem;
using re::StepOptions;
using re::StepResult;
using re::ZeroRoundMode;

// One entry tag.  Every payload is {kindField: kind, "input": problem,
// ["max_rbar_delta", "enumeration_limit" if guarded], valueField: value}.
struct EntrySlot {
  const char* tag;        // the file suffix
  const char* kindField;  // "op" (0 = R, 1 = R-bar) or "mode" (zero-round)
  int kind;
  bool guarded;  // the step guards are part of the key
  const char* valueField;
  /// Refusal lookups, which the engine makes before loadStep: only hits
  /// count, and "store.load" spans only an entry that exists.
  bool probe;
};

namespace {

constexpr std::string_view kFormatStamp = "relb-store 1";

constexpr EntrySlot kStepSlots[] = {
    {"r", "op", 0, false, "result", false},
    {"rbar", "op", 1, true, "result", false}};
constexpr EntrySlot kRefusalSlots[] = {
    {"rref", "op", 0, true, "refusal", true},
    {"rbarref", "op", 1, true, "refusal", true}};
constexpr EntrySlot kZeroRoundSlots[] = {
    {"zr0", "mode", 0, false, "solvable", false},
    {"zr1", "mode", 1, false, "solvable", false},
    {"zr2", "mode", 2, false, "solvable", false}};

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
  if (const auto existing = io::readFile(stamp)) {
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
  const std::string hex = io::hex64(hash);
  return root_ / "objects" / hex.substr(0, 2) / (hex + "." + tag + ".json");
}

void DiskStepStore::quarantine(const std::filesystem::path& path) {
  // Numbered, never overwritten: a second corruption of the same entry
  // must not replace the evidence of the first.
  const std::string name = path.filename().string() + ".";
  std::error_code ec;
  std::filesystem::path target;
  for (unsigned n = 1;; ++n) {
    target = root_ / "quarantine" / (name + std::to_string(n));
    if (!std::filesystem::exists(target, ec)) break;
  }
  std::filesystem::rename(path, target, ec);
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

template <class T>
std::optional<T> DiskStepStore::readEntry(
    const EntrySlot& slot, const StepOptions& options, const Problem& input,
    std::uint64_t hash, const std::function<T(const Json&)>& decode) {
  std::optional<obs::ScopedSpan> span;
  if (!slot.probe) span.emplace("store.load");
  const auto miss = [&] {
    if (!slot.probe) count(&StoreStats::misses);
    return std::nullopt;
  };
  const std::filesystem::path path = entryPath(hash, slot.tag);
  const auto text = io::readFile(path);
  if (!text) return miss();
  if (slot.probe) span.emplace("store.load");
  std::optional<T> out;
  try {
    const Json doc = Json::parse(*text);
    const Json& payload = doc.at("payload");
    if (doc.at("format").asString() != "relb-store-entry" ||
        doc.at("version").asInt() != io::kFormatVersion ||
        io::fnv1a64Hex(payload.dump()) != doc.at("checksum").asString() ||
        payload.at(slot.kindField).asInt() != slot.kind) {
      throw Error("step_store: corrupt entry");
    }
    if (io::problemFromJson(payload.at("input")) != input) {
      return miss();  // structural-hash collision: another problem's slot
    }
    if (slot.guarded &&
        (payload.at("max_rbar_delta").asInt() != options.maxRbarDelta ||
         payload.at("enumeration_limit").asInt() !=
             static_cast<std::int64_t>(options.enumerationLimit))) {
      return miss();  // computed under other guards: not corrupt, not ours
    }
    out = decode(payload.at(slot.valueField));
  } catch (const Error&) {
    quarantine(path);
    return miss();
  }
  count(&StoreStats::hits);
  return out;
}

void DiskStepStore::writeEntry(const EntrySlot& slot,
                               const StepOptions& options,
                               const Problem& input, std::uint64_t hash,
                               Json value) {
  const obs::ScopedSpan span("store.write");
  Json payload = Json::object();
  payload.set(slot.kindField, slot.kind);
  payload.set("input", io::problemToJson(input));
  if (slot.guarded) {
    payload.set("max_rbar_delta", options.maxRbarDelta);
    payload.set("enumeration_limit",
                static_cast<std::int64_t>(options.enumerationLimit));
  }
  payload.set(slot.valueField, std::move(value));
  Json entry = Json::object();
  entry.set("format", "relb-store-entry");
  entry.set("version", io::kFormatVersion);
  const std::string checksum = io::fnv1a64Hex(payload.dump());
  entry.set("payload", std::move(payload));
  entry.set("checksum", checksum);
  const std::filesystem::path path = entryPath(hash, slot.tag);
  std::filesystem::create_directories(path.parent_path());
  io::atomicWriteFile(path, entry.dump() + "\n");
  count(&StoreStats::writes);
}

std::optional<StepResult> DiskStepStore::loadStep(int kind,
                                                  const Problem& input,
                                                  std::uint64_t hash,
                                                  const StepOptions& options) {
  return readEntry<StepResult>(
      kStepSlots[kind], options, input, hash, [&](const Json& result) {
        StepResult out;
        out.problem = io::problemFromJson(result.at("problem"));
        for (const Json& s : result.at("meaning").asArray()) {
          out.meaning.push_back(
              io::labelSetFromJson(s, input.alphabet.size()));
        }
        if (static_cast<int>(out.meaning.size()) !=
            out.problem.alphabet.size()) {
          throw Error(
              "step_store: meaning size does not match result alphabet");
        }
        return out;
      });
}

void DiskStepStore::storeStep(int kind, const Problem& input,
                              std::uint64_t hash, const StepOptions& options,
                              const StepResult& result) {
  Json res = Json::object();
  res.set("problem", io::problemToJson(result.problem));
  Json meaning = Json::array();
  for (const re::LabelSet s : result.meaning) {
    meaning.push(io::labelSetToJson(s));
  }
  res.set("meaning", std::move(meaning));
  writeEntry(kStepSlots[kind], options, input, hash, std::move(res));
}

std::optional<std::string> DiskStepStore::loadStepRefusal(
    int kind, const Problem& input, std::uint64_t hash,
    const StepOptions& options) {
  return readEntry<std::string>(
      kRefusalSlots[kind], options, input, hash,
      [](const Json& refusal) { return refusal.asString(); });
}

void DiskStepStore::storeStepRefusal(int kind, const Problem& input,
                                     std::uint64_t hash,
                                     const StepOptions& options,
                                     const std::string& message) {
  writeEntry(kRefusalSlots[kind], options, input, hash, message);
}

std::optional<bool> DiskStepStore::loadZeroRound(ZeroRoundMode mode,
                                                 const Problem& input,
                                                 std::uint64_t hash) {
  return readEntry<bool>(kZeroRoundSlots[static_cast<int>(mode)], {}, input,
                         hash, [](const Json& v) { return v.asBool(); });
}

void DiskStepStore::storeZeroRound(ZeroRoundMode mode, const Problem& input,
                                   std::uint64_t hash, bool solvable) {
  writeEntry(kZeroRoundSlots[static_cast<int>(mode)], {}, input, hash,
             solvable);
}

}  // namespace relb::store
