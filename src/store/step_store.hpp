// Content-addressed on-disk step store (the durable half of the PR-2
// engine memo).
//
// Layout under the store root:
//
//   FORMAT                          "relb-store <version>" -- refuses roots
//                                   written by an incompatible version
//   pack                            every entry, one record per line, in
//                                   write order:
//                                     <hash16>.<tag> <entry>\n
//                                   where <hash16> is the structural hash of
//                                   the input problem, <tag> one of r / rbar
//                                   / zr0 / zr1 / zr2 (the zero-round modes)
//                                   / rref / rbarref (refused R / R-bar
//                                   steps: the guard's error message) / ab
//                                   (a whole autoLowerBound result, keyed
//                                   by the start problem, the step guards
//                                   and the search budgets), and <entry>
//                                   the checksummed entry document.
//                                   A key may have several records (an
//                                   `ab` key under several budgets, a
//                                   recomputed corrupt entry); a load
//                                   tries them newest first.
//   objects/<hh>/<hash16>.<tag>.json
//                                   the file-per-entry layout of earlier
//                                   builds (<hh> the first two hex digits),
//                                   each file holding "<entry>\n".  Read,
//                                   never written; a pack record shadows the
//                                   file of its key.
//   quarantine/<hash16>.<tag>.json.<n>
//                                   corrupt entries are copied (pack) or
//                                   moved (objects/) here on read, <n> the
//                                   first free number (never deleted or
//                                   overwritten, never trusted again), and
//                                   dropped from the index; the caller
//                                   transparently recomputes, and the new
//                                   record shadows the corrupt one
//
// Every entry wraps its payload with a checksum over the canonical compact
// JSON encoding; loads validate the checksum, then confirm the stored key
// equals the queried one, then decode.  A record of another input (a
// structural-hash collision) or of other key fields (other guards or
// budgets) is passed over for the next older one; a key none of whose
// records answers is a miss.  One private function reads every tag and one writes it.
//
// Opening scans the pack in bounded chunks and indexes (hash, tag) -> every
// record's (offset, length), oldest first; the index holds offsets, never
// bodies.  A write is one
// write() of a whole record on an O_APPEND descriptor, so a crash leaves at
// most a torn last line: no scan indexes it, and the next append cuts it
// off before writing.  Appends hold an exclusive flock() on the pack and
// scans a shared one, so a scan never sees an append half done.  Several
// stores (in one process or many) may append to one root; a lookup that
// misses rescans the pack if its size changed, so records another instance
// appended are found too.
//
// Thread-safety: all methods may be called concurrently (the engine calls
// them outside its own lock).  The index, the appends and the stats
// counters share one mutex; record reads are positional and run outside it.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "re/engine.hpp"

namespace relb::store {

struct EntrySlot;  // one tag's key, value field and counting policy

struct StoreStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t writes = 0;
  std::size_t quarantined = 0;

  [[nodiscard]] std::string describe() const;
};

class DiskStepStore final : public re::StepStorage {
 public:
  /// Opens `root`, initializing the layout on first use, and indexes its
  /// pack and any objects/ files.  Throws re::Error if `root` carries a
  /// FORMAT stamp of an incompatible version or the pack cannot be opened.
  /// The store.quarantine counter is interned in `registry` (global by
  /// default; inject a session registry for per-client attribution).  The
  /// registry must outlive the store.
  explicit DiskStepStore(std::filesystem::path root,
                         obs::Registry& registry = obs::Registry::global());
  ~DiskStepStore() override;

  DiskStepStore(const DiskStepStore&) = delete;
  DiskStepStore& operator=(const DiskStepStore&) = delete;

  [[nodiscard]] std::optional<re::StepResult> loadStep(
      int kind, const re::Problem& input, std::uint64_t hash,
      const re::StepOptions& options) override;
  void storeStep(int kind, const re::Problem& input, std::uint64_t hash,
                 const re::StepOptions& options,
                 const re::StepResult& result) override;

  /// Refusal entries live under their own tags, so stores written before
  /// refusals were persisted stay valid (and readers that predate them
  /// never see one).  An absent refusal is not counted: the engine asks
  /// loadStep next, which counts the miss.
  [[nodiscard]] std::optional<std::string> loadStepRefusal(
      int kind, const re::Problem& input, std::uint64_t hash,
      const re::StepOptions& options) override;
  bool storeStepRefusal(int kind, const re::Problem& input,
                        std::uint64_t hash, const re::StepOptions& options,
                        const std::string& message) override;

  [[nodiscard]] std::optional<bool> loadZeroRound(
      re::ZeroRoundMode mode, const re::Problem& input,
      std::uint64_t hash) override;
  void storeZeroRound(re::ZeroRoundMode mode, const re::Problem& input,
                      std::uint64_t hash, bool solvable) override;

  /// Autobound results live under the `ab` tag, one record per budget and
  /// guard combination a start problem was searched under; an entry
  /// computed under other guards or budgets does not answer.
  [[nodiscard]] std::optional<re::AutoLowerBound> loadAutoBound(
      const re::Problem& start, std::uint64_t hash,
      const re::StepOptions& options,
      const re::AutoLowerBoundOptions& search) override;
  bool storeAutoBound(const re::Problem& start, std::uint64_t hash,
                      const re::StepOptions& options,
                      const re::AutoLowerBoundOptions& search,
                      const re::AutoLowerBound& bound) override;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] StoreStats stats() const;

  /// Number of distinct keys in the index (pack records and objects/
  /// files, each key once however many records it has).
  [[nodiscard]] std::size_t objectCount() const;

 private:
  /// The scalar key fields a payload may carry after its input: the step
  /// guards, then the autobound search budgets (step_store.cpp).
  using KeyValues = std::array<std::int64_t, 4>;

  /// One entry's key: the input's structural hash and its slot's tag.
  struct Key {
    std::uint64_t hash = 0;
    std::uint8_t tag = 0;  // index into the slot table (step_store.cpp)
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.hash ^
                                      (k.tag * 0x9e3779b97f4a7c15ULL));
    }
  };
  /// Where a record's bytes are: `length` bytes of the pack at `offset`,
  /// or (v1) the whole objects/ file of its key.
  struct Location {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    bool v1 = false;
    bool operator==(const Location&) const = default;
  };

  /// Parses "<hash16>.<tag>" (a record header or an objects/ file stem);
  /// std::nullopt for anything else, tags this build does not know included.
  [[nodiscard]] static std::optional<Key> parseKey(std::string_view text);
  [[nodiscard]] std::filesystem::path entryPath(const Key& key) const;
  /// Indexes every objects/ file (the constructor, before the pack scan).
  void indexObjects();
  /// Indexes the complete records between `scanned_` and the end of the
  /// pack; the caller holds `mutex_` (or is the constructor) and a flock()
  /// on the pack.
  void scanPack();
  /// The records of `key`, newest first, rescanning the pack first if the
  /// key is absent and the pack's size changed.
  [[nodiscard]] std::vector<Location> locate(const Key& key);
  /// The entry's bytes as stored (a short read returns what was read), or
  /// std::nullopt if its objects/ file is gone.
  [[nodiscard]] std::optional<std::string> readLocation(
      const Key& key, const Location& location) const;
  /// For each record of the key, newest first: read -> unwrap and
  /// checksum -> key check (`keys` supplies the slot's key fields) ->
  /// `decode`, which throws re::Error if corrupt.  A record of another
  /// input or key fields is passed over; a corrupt one is quarantined and
  /// ends the lookup with a miss.
  template <class T>
  std::optional<T> readEntry(const EntrySlot& slot, const KeyValues& keys,
                             const re::Problem& input, std::uint64_t hash,
                             const std::function<T(const io::Json&)>& decode);
  /// Key plus `value` -> wrap -> append one record -> index -> count.
  void writeEntry(const EntrySlot& slot, const KeyValues& keys,
                  const re::Problem& input, std::uint64_t hash,
                  io::Json value);
  void quarantine(const Key& key, const Location& location,
                  std::string_view bytes);
  void count(std::size_t StoreStats::* counter);

  std::filesystem::path root_;
  obs::Counter& quarantinedCounter_;
  int packFd_ = -1;
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::vector<Location>, KeyHash> index_;
  std::uint64_t scanned_ = 0;  // end of the last complete pack record seen
  std::uint64_t seen_ = 0;     // pack size at the last scan
  StoreStats stats_;
};

}  // namespace relb::store
