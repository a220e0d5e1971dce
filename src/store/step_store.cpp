#include "store/step_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <utility>

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
// the first `keyFields` of kKeyFields, valueField: value}.
struct EntrySlot {
  const char* tag;        // the record tag (the objects/ file suffix)
  const char* kindField;  // "op" (0 = R, 1 = R-bar, 2 = autobound) or
                          // "mode" (zero-round)
  int kind;
  /// How many scalar key fields follow the input: 0, 2 (the step guards)
  /// or 4 (the guards and the autobound search budgets).
  std::size_t keyFields;
  const char* valueField;
  /// Refusal lookups, which the engine makes before loadStep: only hits
  /// count, and "store.load" spans only an entry that exists.
  bool probe;
};

namespace {

constexpr std::string_view kFormatStamp = "relb-store 1";

// The scalar key fields, in payload order; a slot keys on a prefix.
constexpr const char* kKeyFields[] = {"max_rbar_delta", "enumeration_limit",
                                      "max_steps", "max_labels"};

// Every tag; a slot's index here is its Key::tag.
constexpr EntrySlot kSlots[] = {
    {"r", "op", 0, 0, "result", false},
    {"rbar", "op", 1, 2, "result", false},
    {"rref", "op", 0, 2, "refusal", true},
    {"rbarref", "op", 1, 2, "refusal", true},
    {"zr0", "mode", 0, 0, "solvable", false},
    {"zr1", "mode", 1, 0, "solvable", false},
    {"zr2", "mode", 2, 0, "solvable", false},
    {"ab", "op", 2, 4, "bound", false}};
constexpr const EntrySlot* kStepSlots = kSlots;
constexpr const EntrySlot* kRefusalSlots = kSlots + 2;
constexpr const EntrySlot* kZeroRoundSlots = kSlots + 4;
constexpr const EntrySlot& kAutoBoundSlot = kSlots[7];

// The stable names a stored autobound result gives its stop reason.
constexpr std::pair<re::StopReason, std::string_view> kStopReasons[] = {
    {re::StopReason::kFixedPoint, "fixed-point"},
    {re::StopReason::kZeroRoundSolvable, "zero-round-solvable"},
    {re::StopReason::kLabelBudget, "label-budget"},
    {re::StopReason::kStepLimit, "step-limit"},
    {re::StopReason::kEngineLimit, "engine-limit"}};

// The key values a load or store compares or writes (a slot reads the
// first `keyFields`).
std::array<std::int64_t, 4> keyValues(
    const StepOptions& options, const re::AutoLowerBoundOptions& search = {}) {
  return {options.maxRbarDelta,
          static_cast<std::int64_t>(options.enumerationLimit),
          search.maxSteps, search.maxLabels};
}

std::uint8_t tagOf(const EntrySlot& slot) {
  return static_cast<std::uint8_t>(&slot - kSlots);
}

// Record headers are short; the scan keeps this many leading bytes of a line.
constexpr std::size_t kHeaderMax = 32;
constexpr std::size_t kScanChunk = std::size_t{1} << 16;

// flock() on the pack for one scope: appends hold it exclusively, scans
// shared, so a scan never sees another instance's append half done.
class PackLock {
 public:
  PackLock(int fd, int operation, const std::filesystem::path& pack)
      : fd_(fd) {
    while (::flock(fd_, operation) != 0) {
      if (errno != EINTR) {
        throw Error("step_store: cannot lock '" + pack.string() +
                    "': " + std::strerror(errno));
      }
    }
  }
  ~PackLock() { ::flock(fd_, LOCK_UN); }
  PackLock(const PackLock&) = delete;
  PackLock& operator=(const PackLock&) = delete;

 private:
  int fd_;
};

}  // namespace

std::optional<DiskStepStore::Key> DiskStepStore::parseKey(
    std::string_view text) {
  if (text.size() < 18 || text[16] != '.') return std::nullopt;
  Key key;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + 16, key.hash, 16);
  if (ec != std::errc() || end != text.data() + 16) return std::nullopt;
  const std::string_view tag = text.substr(17);
  for (const EntrySlot& slot : kSlots) {
    if (tag == slot.tag) {
      key.tag = tagOf(slot);
      return key;
    }
  }
  return std::nullopt;
}

std::string StoreStats::describe() const {
  return "store: " + std::to_string(hits) + " hits / " +
         std::to_string(misses) + " misses / " + std::to_string(writes) +
         " writes / " + std::to_string(quarantined) + " quarantined\n";
}

DiskStepStore::DiskStepStore(std::filesystem::path root,
                             obs::Registry& registry)
    : root_(std::move(root)),
      quarantinedCounter_(registry.counter("store.quarantine")) {
  std::filesystem::create_directories(root_);
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
  const std::filesystem::path pack = root_ / "pack";
  packFd_ =
      ::open(pack.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (packFd_ < 0) {
    throw Error("step_store: cannot open '" + pack.string() +
                "': " + std::strerror(errno));
  }
  try {
    const obs::ScopedSpan span("store.open");
    indexObjects();
    const PackLock packLock(packFd_, LOCK_SH, pack);
    scanPack();
  } catch (...) {
    ::close(packFd_);
    throw;
  }
}

DiskStepStore::~DiskStepStore() { ::close(packFd_); }

std::filesystem::path DiskStepStore::entryPath(const Key& key) const {
  const std::string hex = io::hex64(key.hash);
  return root_ / "objects" / hex.substr(0, 2) /
         (hex + "." + kSlots[key.tag].tag + ".json");
}

void DiskStepStore::indexObjects() {
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(
           root_ / "objects", ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    const std::filesystem::path& path = it->path();
    if (path.extension() != ".json" || !it->is_regular_file(ec)) continue;
    if (const auto key = parseKey(path.stem().string())) {
      index_[*key].push_back(Location{0, 0, true});
    }
  }
}

void DiskStepStore::scanPack() {
  const std::filesystem::path pack = root_ / "pack";
  struct stat st {};
  if (::fstat(packFd_, &st) != 0) {
    throw Error("step_store: cannot stat '" + pack.string() +
                "': " + std::strerror(errno));
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const auto chunk = std::make_unique_for_overwrite<char[]>(kScanChunk);
  std::string head;  // the current line's first bytes
  std::uint64_t lineStart = scanned_;
  std::uint64_t pos = scanned_;
  while (pos < size) {
    const std::size_t want = std::min<std::uint64_t>(kScanChunk, size - pos);
    const ssize_t n =
        ::pread(packFd_, chunk.get(), want, static_cast<off_t>(pos));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw Error("step_store: cannot read '" + pack.string() +
                  "': " + std::strerror(errno));
    }
    if (n == 0) break;
    const std::string_view data(chunk.get(), static_cast<std::size_t>(n));
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t newline = data.find('\n', at);
      const std::size_t end =
          newline == std::string_view::npos ? data.size() : newline;
      head.append(
          data.substr(at, std::min(end - at, kHeaderMax - head.size())));
      if (newline == std::string_view::npos) break;
      // A complete line [lineStart, pos + newline): index it if its header
      // parses and a body follows.  Anything else (an empty line, a
      // foreign tag) is skipped.
      const std::size_t space = head.find(' ');
      const std::uint64_t lineEnd = pos + newline;
      if (space != std::string::npos && lineStart + space + 1 < lineEnd) {
        if (const auto key =
                parseKey(std::string_view(head).substr(0, space))) {
          const std::uint64_t body = lineStart + space + 1;
          index_[*key].push_back(Location{body, lineEnd - body, false});
        }
      }
      head.clear();
      lineStart = lineEnd + 1;
      at = newline + 1;
    }
    pos += static_cast<std::uint64_t>(n);
  }
  scanned_ = lineStart;
  seen_ = pos;
}

std::vector<DiskStepStore::Location> DiskStepStore::locate(const Key& key) {
  std::lock_guard lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    struct stat st {};
    if (::fstat(packFd_, &st) != 0 ||
        static_cast<std::uint64_t>(st.st_size) == seen_) {
      return {};
    }
    const PackLock packLock(packFd_, LOCK_SH, root_ / "pack");
    scanPack();  // another instance appended since
    it = index_.find(key);
    if (it == index_.end()) return {};
  }
  return {it->second.rbegin(), it->second.rend()};
}

std::optional<std::string> DiskStepStore::readLocation(
    const Key& key, const Location& location) const {
  if (location.v1) return io::readFile(entryPath(key));
  std::string bytes(location.length, '\0');
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n =
        ::pread(packFd_, bytes.data() + got, bytes.size() - got,
                static_cast<off_t>(location.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);
  return bytes;
}

void DiskStepStore::quarantine(const Key& key, const Location& location,
                               std::string_view bytes) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;  // done already
  const auto record =
      std::find(it->second.begin(), it->second.end(), location);
  if (record == it->second.end()) return;
  it->second.erase(record);
  if (it->second.empty()) index_.erase(it);
  // Numbered, never overwritten: a second corruption of the same entry
  // must not replace the evidence of the first.
  const std::string hex = io::hex64(key.hash);
  const std::string name = hex + "." + kSlots[key.tag].tag + ".json.";
  const std::filesystem::path dir = root_ / "quarantine";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::path target;
  for (unsigned n = 1;; ++n) {
    target = dir / (name + std::to_string(n));
    if (!std::filesystem::exists(target, ec)) break;
  }
  if (location.v1) {
    const std::filesystem::path path = entryPath(key);
    std::filesystem::rename(path, target, ec);
    if (ec) std::filesystem::remove(path, ec);
  } else {
    try {
      io::atomicWriteFile(target, bytes);
    } catch (const Error&) {
      // The record is out of the index either way; the copy is evidence.
    }
  }
  ++stats_.quarantined;
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
  std::lock_guard lock(mutex_);
  return index_.size();
}

template <class T>
std::optional<T> DiskStepStore::readEntry(
    const EntrySlot& slot, const KeyValues& keys, const Problem& input,
    std::uint64_t hash, const std::function<T(const Json&)>& decode) {
  std::optional<obs::ScopedSpan> span;
  if (!slot.probe) span.emplace("store.load");
  const Key key{hash, tagOf(slot)};
  for (const Location& location : locate(key)) {
    if (!span) span.emplace("store.load");
    const auto text = readLocation(key, location);
    if (!text) continue;
    try {
      const Json doc = Json::parse(*text);
      const Json& payload = doc.at("payload");
      if (doc.at("format").asString() != "relb-store-entry" ||
          doc.at("version").asInt() != io::kFormatVersion ||
          io::fnv1a64Hex(payload.dump()) != doc.at("checksum").asString() ||
          payload.at(slot.kindField).asInt() != slot.kind) {
        throw Error("step_store: corrupt entry");
      }
      // Another problem's record (a structural-hash collision), or one
      // computed under other guards or budgets: not corrupt, not ours.
      if (io::problemFromJson(payload.at("input")) != input) continue;
      bool sameKey = true;
      for (std::size_t i = 0; i < slot.keyFields; ++i) {
        sameKey = sameKey && payload.at(kKeyFields[i]).asInt() == keys[i];
      }
      if (!sameKey) continue;
      std::optional<T> out = decode(payload.at(slot.valueField));
      count(&StoreStats::hits);
      return out;
    } catch (const Error&) {
      // Stop here: the caller recomputes and appends a record that
      // shadows this one and every older copy.
      quarantine(key, location, *text);
      break;
    }
  }
  if (!slot.probe) count(&StoreStats::misses);
  return std::nullopt;
}

void DiskStepStore::writeEntry(const EntrySlot& slot, const KeyValues& keys,
                               const Problem& input, std::uint64_t hash,
                               Json value) {
  const obs::ScopedSpan span("store.write");
  Json payload = Json::object();
  payload.set(slot.kindField, slot.kind);
  payload.set("input", io::problemToJson(input));
  for (std::size_t i = 0; i < slot.keyFields; ++i) {
    payload.set(kKeyFields[i], keys[i]);
  }
  payload.set(slot.valueField, std::move(value));
  // The entry document {"format", "version", "payload", "checksum"}, as
  // Json::dump would write it (members in insertion order), with the
  // payload dumped once for both the checksum and the record.
  const std::string body = payload.dump();
  const std::string record =
      io::hex64(hash) + "." + slot.tag +
      " {\"format\":\"relb-store-entry\",\"version\":" +
      std::to_string(io::kFormatVersion) + ",\"payload\":" + body +
      ",\"checksum\":\"" + io::fnv1a64Hex(body) + "\"}\n";

  std::lock_guard lock(mutex_);
  const PackLock packLock(packFd_, LOCK_EX, root_ / "pack");
  scanPack();  // other instances' records, up to the pack's end
  if (seen_ != scanned_) {
    // A torn last line: an append that died part-way.  No scan indexes
    // it, and no append is in flight under the lock, so cut it off and
    // this record starts where it did.
    if (::ftruncate(packFd_, static_cast<off_t>(scanned_)) != 0) {
      throw Error("step_store: cannot truncate '" +
                  (root_ / "pack").string() + "': " + std::strerror(errno));
    }
    seen_ = scanned_;
  }
  if (::write(packFd_, record.data(), record.size()) !=
      static_cast<ssize_t>(record.size())) {
    throw Error("step_store: cannot append to '" +
                (root_ / "pack").string() + "'");
  }
  scanPack();  // indexes this record
  ++stats_.writes;
}

std::optional<StepResult> DiskStepStore::loadStep(int kind,
                                                  const Problem& input,
                                                  std::uint64_t hash,
                                                  const StepOptions& options) {
  return readEntry<StepResult>(
      kStepSlots[kind], keyValues(options), input, hash,
      [&](const Json& result) {
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
  writeEntry(kStepSlots[kind], keyValues(options), input, hash,
             std::move(res));
}

std::optional<std::string> DiskStepStore::loadStepRefusal(
    int kind, const Problem& input, std::uint64_t hash,
    const StepOptions& options) {
  return readEntry<std::string>(
      kRefusalSlots[kind], keyValues(options), input, hash,
      [](const Json& refusal) { return refusal.asString(); });
}

bool DiskStepStore::storeStepRefusal(int kind, const Problem& input,
                                     std::uint64_t hash,
                                     const StepOptions& options,
                                     const std::string& message) {
  writeEntry(kRefusalSlots[kind], keyValues(options), input, hash, message);
  return true;
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

std::optional<re::AutoLowerBound> DiskStepStore::loadAutoBound(
    const Problem& start, std::uint64_t hash, const StepOptions& options,
    const re::AutoLowerBoundOptions& search) {
  return readEntry<re::AutoLowerBound>(
      kAutoBoundSlot, keyValues(options, search), start, hash,
      [](const Json& bound) {
        re::AutoLowerBound out;
        out.rounds = static_cast<int>(bound.at("rounds").asInt());
        for (const Json& labels : bound.at("labels_per_step").asArray()) {
          out.labelsPerStep.push_back(static_cast<int>(labels.asInt()));
        }
        const std::string& reason = bound.at("reason").asString();
        const auto* it =
            std::find_if(std::begin(kStopReasons), std::end(kStopReasons),
                         [&](const auto& r) { return r.second == reason; });
        if (it == std::end(kStopReasons)) {
          throw Error("step_store: unknown stop reason '" + reason + "'");
        }
        out.reason = it->first;
        return out;
      });
}

bool DiskStepStore::storeAutoBound(const Problem& start, std::uint64_t hash,
                                   const StepOptions& options,
                                   const re::AutoLowerBoundOptions& search,
                                   const re::AutoLowerBound& bound) {
  Json labels = Json::array();
  for (const int n : bound.labelsPerStep) labels.push(n);
  Json value = Json::object();
  value.set("rounds", bound.rounds);
  value.set("labels_per_step", std::move(labels));
  const auto* it =
      std::find_if(std::begin(kStopReasons), std::end(kStopReasons),
                   [&](const auto& r) { return r.first == bound.reason; });
  value.set("reason", std::string(it->second));
  writeEntry(kAutoBoundSlot, keyValues(options, search), start, hash,
             std::move(value));
  return true;
}

}  // namespace relb::store
