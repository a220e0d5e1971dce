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
//   quarantine/                     corrupt entries are MOVED here on read
//                                   (never deleted, never trusted again);
//                                   the caller transparently recomputes
//
// Every entry wraps its payload with a checksum over the canonical compact
// JSON encoding; loads validate the checksum, then decode, then confirm the
// stored input problem equals the queried one (a structural-hash collision
// degrades to a miss).  Writes go through a same-directory temp file and an
// atomic rename, so a crash mid-write never leaves a half-entry under
// objects/ -- at worst an orphaned temp file that is ignored.
//
// Thread-safety: all methods may be called concurrently (the engine calls
// them outside its own lock).  Filesystem operations rely on rename
// atomicity; the stats counters have their own mutex.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "re/engine.hpp"

namespace relb::store {

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
  void quarantine(const std::filesystem::path& path);
  void count(std::size_t StoreStats::* counter);

  std::filesystem::path root_;
  obs::Counter& quarantinedCounter_;
  mutable std::mutex mutex_;
  StoreStats stats_;
};

}  // namespace relb::store
