// Content-addressed on-disk step store (the durable half of the PR-2
// engine memo).
//
// Layout under the store root:
//
//   FORMAT                          "relb-store <version>" -- refuses roots
//                                   written by an incompatible version
//   objects/<hh>/<hash16>.<tag>.json one entry per cached result, where
//                                   <hash16> is the structural hash of the
//                                   input problem, <hh> its first two hex
//                                   digits, and <tag> one of r / rbar /
//                                   zr0 / zr1 / zr2 (the zero-round modes)
//                                   / rref / rbarref (refused R / R-bar
//                                   steps: the guard's error message)
//   quarantine/<hash16>.<tag>.json.<n>
//                                   corrupt entries are MOVED here on read,
//                                   <n> the first free number (never deleted
//                                   or overwritten, never trusted again);
//                                   the caller transparently recomputes
//
// Every entry wraps its payload with a checksum over the canonical compact
// JSON encoding; loads validate the checksum, then confirm the stored key
// equals the queried one (a structural-hash collision degrades to a miss),
// then decode.  One private function reads every tag and one writes it;
// writes go through io::atomicWriteFile, so a crash mid-write never leaves
// a half-entry under objects/ -- at worst an orphaned temp file.
//
// Thread-safety: all methods may be called concurrently (the engine calls
// them outside its own lock).  Filesystem operations rely on rename
// atomicity; the stats counters have their own mutex.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

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
  /// Opens `root`, initializing the layout on first use.  Throws re::Error
  /// if `root` carries a FORMAT stamp of an incompatible version.  The
  /// store.quarantine counter is interned in `registry` (global by default;
  /// inject a session registry for per-client attribution).  The registry
  /// must outlive the store.
  explicit DiskStepStore(std::filesystem::path root,
                         obs::Registry& registry = obs::Registry::global());

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
  void storeStepRefusal(int kind, const re::Problem& input,
                        std::uint64_t hash, const re::StepOptions& options,
                        const std::string& message) override;

  [[nodiscard]] std::optional<bool> loadZeroRound(
      re::ZeroRoundMode mode, const re::Problem& input,
      std::uint64_t hash) override;
  void storeZeroRound(re::ZeroRoundMode mode, const re::Problem& input,
                      std::uint64_t hash, bool solvable) override;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] StoreStats stats() const;

  /// Number of entries under objects/ (walks the tree; for tests and the
  /// CLI's --stats output, not a hot path).
  [[nodiscard]] std::size_t objectCount() const;

 private:
  [[nodiscard]] std::filesystem::path entryPath(std::uint64_t hash,
                                                const char* tag) const;
  /// path -> read -> unwrap and checksum -> key check (`options` supplies
  /// the guards) -> `decode`, which throws re::Error if corrupt; or
  /// quarantine.
  template <class T>
  std::optional<T> readEntry(const EntrySlot& slot,
                             const re::StepOptions& options,
                             const re::Problem& input, std::uint64_t hash,
                             const std::function<T(const io::Json&)>& decode);
  /// Key plus `value` -> wrap -> atomic write -> count.
  void writeEntry(const EntrySlot& slot, const re::StepOptions& options,
                  const re::Problem& input, std::uint64_t hash,
                  io::Json value);
  void quarantine(const std::filesystem::path& path);
  void count(std::size_t StoreStats::* counter);

  std::filesystem::path root_;
  obs::Counter& quarantinedCounter_;
  mutable std::mutex mutex_;
  StoreStats stats_;
};

}  // namespace relb::store
