// The speedup engine, split at the sharing seam into EngineCore and
// EngineSession.
//
// EngineCore is the thread-safe SHARED half: it owns every cache the speedup
// machinery can reuse across requests --
//   * a step memo (applyR / applyRbar / speedupStep outcomes keyed by the
//     exact structural hash of the input problem -- cache hits return
//     bit-identical results, asserted by tests/re/engine_test.cpp).  An
//     outcome is a result or a *refusal*: the message of the re::Error an
//     engine guard threw, replayed as an identical re::Error on a hit;
//   * whole autoLowerBound results (see autobound.hpp), keyed by the start
//     problem and every option the result depends on -- a warm request
//     skips the greedy label-merge search entirely;
//   * caches for edge-compatibility matrices, strength diagrams, and
//     right-closed-set families (the sub-results every consumer used to
//     recompute from scratch);
//   * zero-round solvability caches for the three port models;
//   * a canonical-problem intern table (see canonical.hpp): fixed-point
//     detection reduces to "canonical form already interned";
//   * the durable StepStorage hook (see store/step_store.hpp), which
//     persists step outcomes (refusals included), zero-round verdicts and
//     whole autoLowerBound results, so a warm process skips the search.
// Any number of sessions, on any threads, may share one core; results are
// bit-identical to cold computes regardless of who warmed the cache.
//
// EngineSession is the cheap PER-REQUEST half and the only way into a
// search (iterateSpeedup, autoLowerBound, buildChainCertificate all take
// one): its own StepOptions and an observability scope (a session-local
// metric registry and tracer handle, see obs/scope.hpp) so concurrent
// requests produce attributable counter and span streams.  Creating a
// session performs a fixed, small amount of work (interning a handful of
// counter names) -- it is meant to be done once per request.  The serial
// Rbar sweep runs in the calling thread's own result arena (re_step.cpp),
// exactly as the free operators do.
//
// Lifetime and sharing rules (docs/architecture.md has the diagram):
//   * core outlives every session over it (sessions hold a shared_ptr, so
//     this is automatic);
//   * an attached obs::SessionScope must outlive the session;
//   * one session serves ONE logical client: its stats are that client's
//     attributed traffic.  The engine's own fan-out may run a session's
//     work on many pool threads, and certifyChain-style helpers probe a
//     session from worker lanes, but two independent clients each take
//     their own session (sharing the core).
//
// The memoized operators are bit-identical to the free functions
// applyR/applyRbar/speedupStep in re_step.hpp: both run the same
// detail:: operators, the session handing them its cached sub-results.
//
// Only re::Error is memoized as a refusal: it is what the engine's size
// guards throw, and nothing else throws it inside the engine (interrupts,
// deadlines and shutdown are checked by callers between engine calls).
//
// Thread-safety: every cache follows one memo discipline (engine.cpp): a
// full-key lookup under the core mutex, the computation outside it -- two
// sessions missing the same key concurrently may both compute it (the first
// insert wins and the results are identical anyway) -- then insert and
// count under it.  Statistics counters -- the core-wide aggregate and each
// session's own view -- are updated under the same mutex.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "re/autobound.hpp"
#include "re/canonical.hpp"
#include "re/diagram.hpp"
#include "re/re_step.hpp"

namespace relb::obs {
class Registry;
class SessionScope;
class Tracer;
}  // namespace relb::obs

namespace relb::re {

/// Former name of StepOptions.  The benchmark harness (perfbench/harness)
/// still builds against it; in-tree code says StepOptions.
using PassOptions = StepOptions;

/// Counters for every cache.  `hits + misses` is the number of lookups;
/// `misses` is the number of times the underlying computation ran (a step
/// that an engine guard refused counts as a miss; replaying the refusal
/// counts as a hit).  Both the core-wide aggregate (EngineCore::stats) and
/// each session's attributed share (EngineSession::stats) use this shape;
/// per session, a hit served from another session's earlier work still
/// counts as a hit here.
struct CacheStats {
  std::size_t stepHits = 0, stepMisses = 0;
  std::size_t edgeCompatHits = 0, edgeCompatMisses = 0;
  std::size_t strengthHits = 0, strengthMisses = 0;
  std::size_t rightClosedHits = 0, rightClosedMisses = 0;
  std::size_t zeroRoundHits = 0, zeroRoundMisses = 0;
  std::size_t canonicalHits = 0, canonicalMisses = 0;
  std::size_t autoboundHits = 0, autoboundMisses = 0;
  /// Distinct canonical forms interned so far (per session: interned by
  /// THIS session first).
  std::size_t internedProblems = 0;
  /// Attached-store traffic (zero when no store is attached).  A store hit
  /// fills the in-memory memo *without* counting a miss: "0 misses" in a
  /// warm-store run means zero recomputations.
  std::size_t storeHits = 0, storeMisses = 0, storeWrites = 0;

  [[nodiscard]] std::string describe() const;
};

/// Which zero-round analysis a cached verdict belongs to.
enum class ZeroRoundMode {
  kSymmetricPorts,
  kAdversarialPorts,
  kWithEdgeInputs,
};

/// Durable backing for the step memo (results and refusals), the
/// zero-round cache and the autobound memo.  An attached storage is
/// consulted on every in-memory miss and written through on every
/// computation, making results survive across processes (see
/// store/step_store.hpp for the on-disk implementation).
///
/// Contract:
///   * `hash` is structuralHash(input); implementations key on it but MUST
///     confirm equality against the stored input before reporting a hit (a
///     collision must degrade to a miss, never to a wrong answer).
///   * loadStep must only report a hit when the result is valid for
///     `options` (for Rbar: equal maxRbarDelta and enumerationLimit;
///     numThreads never affects results and must be ignored).
///   * All methods may be called concurrently from engine worker threads.
///   * loadStepRefusal follows the same rules, but a refusal is only valid
///     for equal maxRbarDelta and enumerationLimit for BOTH kinds.  The
///     engine asks for a refusal first and falls back to loadStep, so an
///     absent refusal should not count as a store miss.
///   * loadAutoBound only reports a hit for equal maxSteps and maxLabels
///     (`search`) and equal maxRbarDelta and enumerationLimit (`options`).
///   * A load returning std::nullopt means "recompute"; corrupt entries
///     must not throw out of loads.
class StepStorage {
 public:
  virtual ~StepStorage() = default;

  /// `kind` is 0 for R, 1 for Rbar (matching the in-memory memo).
  [[nodiscard]] virtual std::optional<StepResult> loadStep(
      int kind, const Problem& input, std::uint64_t hash,
      const StepOptions& options) = 0;
  virtual void storeStep(int kind, const Problem& input, std::uint64_t hash,
                         const StepOptions& options,
                         const StepResult& result) = 0;

  /// A persisted refusal: the re::Error message a guard threw for this
  /// step.  The defaults persist nothing (refusals are then recomputed once
  /// per process).  The store half returns whether it persisted anything;
  /// the engine counts a store write only then.
  [[nodiscard]] virtual std::optional<std::string> loadStepRefusal(
      int /*kind*/, const Problem& /*input*/, std::uint64_t /*hash*/,
      const StepOptions& /*options*/) {
    return std::nullopt;
  }
  virtual bool storeStepRefusal(int /*kind*/, const Problem& /*input*/,
                                std::uint64_t /*hash*/,
                                const StepOptions& /*options*/,
                                const std::string& /*message*/) {
    return false;
  }

  [[nodiscard]] virtual std::optional<bool> loadZeroRound(
      ZeroRoundMode mode, const Problem& input, std::uint64_t hash) = 0;
  virtual void storeZeroRound(ZeroRoundMode mode, const Problem& input,
                              std::uint64_t hash, bool solvable) = 0;

  /// A persisted whole autoLowerBound result for `start`; `search` supplies
  /// maxSteps and maxLabels, `options` the step guards.  The defaults
  /// persist nothing (the search then runs once per process); the store
  /// half returns whether it persisted anything, as storeStepRefusal does.
  [[nodiscard]] virtual std::optional<AutoLowerBound> loadAutoBound(
      const Problem& /*start*/, std::uint64_t /*hash*/,
      const StepOptions& /*options*/,
      const AutoLowerBoundOptions& /*search*/) {
    return std::nullopt;
  }
  virtual bool storeAutoBound(const Problem& /*start*/, std::uint64_t /*hash*/,
                              const StepOptions& /*options*/,
                              const AutoLowerBoundOptions& /*search*/,
                              const AutoLowerBound& /*bound*/) {
    return false;
  }
};

/// The shared, thread-safe cache core.  Holds no per-request state: options
/// and observability attribution live in EngineSession.
class EngineCore {
 public:
  EngineCore();
  ~EngineCore();

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Attaches (or, with nullptr, detaches) a durable step store shared by
  /// every session over this core.  Attaching is transparent to every
  /// consumer: results are bit-identical with and without a store; only the
  /// stats change.  Safe to call at any time, but results cached in memory
  /// before attachment are not written back.
  void attachStore(std::shared_ptr<StepStorage> store);

  /// The currently attached store (nullptr when none).
  [[nodiscard]] std::shared_ptr<StepStorage> store() const;

  /// Aggregate cache traffic across every session that ever used this core.
  [[nodiscard]] CacheStats stats() const;
  void resetStats();

 private:
  friend class EngineSession;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Per-operator observability record of speedupStepWithStats.
struct PassStats {
  std::string name;
  std::int64_t wallMicros = 0;
  int labelsIn = 0;
  int labelsOut = 0;
  std::size_t nodeConfigsIn = 0;
  std::size_t nodeConfigsOut = 0;
  std::size_t edgeConfigsIn = 0;
  std::size_t edgeConfigsOut = 0;
  /// True iff the operator recomputed nothing: it was served from the step
  /// memo or the attached store.
  bool fromCache = false;
};

struct SpeedupStepStats {
  Problem problem;
  std::array<PassStats, 2> passes;  // ApplyR, ApplyRbar

  /// Renders the per-operator table printed by `round_eliminator_cli
  /// --stats` (its `note` column is always empty).
  [[nodiscard]] std::string renderStatsTable() const;
};

/// The per-request session.  All speedup entry points live here; every
/// lookup and computation is recorded both in the shared core's aggregate
/// stats and in this session's own attributed stats/counters.
class EngineSession {
 public:
  /// Session over `core` (nullptr: a private core of its own), optionally
  /// carrying an observability scope (nullptr: global registry/tracer).
  explicit EngineSession(std::shared_ptr<EngineCore> core = nullptr,
                         StepOptions options = {},
                         obs::SessionScope* scope = nullptr);
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  [[nodiscard]] const StepOptions& options() const { return options_; }

  [[nodiscard]] EngineCore& core() { return *core_; }
  [[nodiscard]] const std::shared_ptr<EngineCore>& coreHandle() const {
    return core_;
  }

  /// The metric registry this session's counters land in (the scope's local
  /// registry, or the global one for scope-less sessions).
  [[nodiscard]] obs::Registry& registry() const { return *registry_; }
  /// The tracer this session's spans are emitted through.
  [[nodiscard]] obs::Tracer& tracer() const { return *tracer_; }

  /// Delegates to the shared core.
  void attachStore(std::shared_ptr<StepStorage> store);

  // -- Memoized speedup operators (bit-identical to the free functions) ----

  /// A refused step throws re::Error; the refusal is memoized too, so a
  /// repeat throws the identical message without recomputing.
  [[nodiscard]] StepResult applyR(const Problem& p);
  [[nodiscard]] StepResult applyRbar(const Problem& p);
  [[nodiscard]] Problem speedupStep(const Problem& p);

  /// speedupStep with one PassStats row per operator (ApplyR, ApplyRbar):
  /// the table `round_eliminator_cli --stats` prints per step.  Each
  /// operator runs under a `pass.<name>` span and sets the `re.labels.last`
  /// gauge.
  [[nodiscard]] SpeedupStepStats speedupStepWithStats(const Problem& p);

  // -- Memoized automatic lower bound ----------------------------------------

  /// The automatic lower-bound search (autobound.hpp), memoized as a whole:
  /// keyed by `start`, options.maxSteps and options.maxLabels, and this
  /// session's maxRbarDelta and enumerationLimit (numThreads never affects
  /// results).  With a store attached, a miss reads the store before
  /// searching and a searched result is written through.  On a miss the
  /// search's speedup steps and (heavily repeated) zero-round checks go
  /// through this session's memos too.
  [[nodiscard]] AutoLowerBound autoLowerBound(
      const Problem& start, const AutoLowerBoundOptions& options = {});

  // -- Cached sub-results --------------------------------------------------

  /// Degree-2 compatibility matrix of an edge constraint (see re_step.hpp).
  [[nodiscard]] std::vector<LabelSet> edgeCompatibility(const Constraint& edge,
                                                        int alphabetSize);

  /// Strength relation of a constraint (see diagram.hpp); keyed by the
  /// constraint's structure and the enumeration limit.
  [[nodiscard]] StrengthRelation strength(const Constraint& constraint,
                                          int alphabetSize,
                                          std::size_t enumerationLimit);

  /// Non-empty right-closed subsets of `universe` under the strength
  /// relation of `constraint`.
  [[nodiscard]] std::vector<LabelSet> rightClosedSets(
      const Constraint& constraint, int alphabetSize, LabelSet universe,
      std::size_t enumerationLimit);

  // -- Cached zero-round analyses ------------------------------------------

  [[nodiscard]] bool zeroRoundSolvable(const Problem& p, ZeroRoundMode mode);

  // -- Canonical interning -------------------------------------------------

  struct InternResult {
    std::uint64_t hash = 0;
    /// True iff an identical canonical form was interned before this call
    /// (by any session sharing the core).
    bool alreadyInterned = false;
    CanonicalForm canonical;
  };

  /// Canonicalizes `p` (memoized by exact structure) and interns the
  /// canonical form.  Two problems equal up to label renaming intern to the
  /// same entry.  Throws Error when canonicalization refuses (see
  /// canonical.hpp); callers needing a fallback should catch it.
  [[nodiscard]] InternResult intern(const Problem& p);

  // -- Statistics ----------------------------------------------------------

  /// This session's attributed cache traffic.
  [[nodiscard]] CacheStats stats() const;
  /// Resets this session's view only (the core aggregate is untouched).
  void resetStats();

 private:
  struct Tick;      // one counter and its registry mirror (engine.cpp)
  struct Traffic;   // one cache's hit and miss ticks (engine.cpp)
  struct ObsHooks;  // every cache's ticks, interned per session (engine.cpp)

  /// The step memo behind applyR (kind 0) and applyRbar (kind 1).
  [[nodiscard]] StepResult memoizedStep(int kind, const Problem& p);

  /// The search behind autoLowerBound, run on a memo miss (autobound.cpp).
  [[nodiscard]] AutoLowerBound searchLowerBound(
      const Problem& start, const AutoLowerBoundOptions& options);

  /// The caches the attached store does not back.
  struct InMemory {};

  /// The memo discipline every cache goes through (engine.cpp): `probe`
  /// holds the full key's fields by reference, `through` is the store's
  /// read-through/write-through for the caches it backs.
  template <typename Table, typename Probe, typename Compute,
            typename Through = InMemory>
  [[nodiscard]] typename Table::Value memo(Table& table, std::uint64_t hash,
                                           const Traffic& traffic,
                                           const Probe& probe,
                                           const Compute& compute,
                                           const Through& through = {});

  /// Ticks one counter in the core aggregate, this session's view and its
  /// registry mirror, if any.  The caller holds the core mutex.
  void count(const Tick& tick);

  std::shared_ptr<EngineCore> core_;
  StepOptions options_;
  obs::Registry* registry_;
  obs::Tracer* tracer_;
  std::unique_ptr<ObsHooks> obs_;
  /// Session-attributed stats; guarded by the core's mutex (every update
  /// site already holds it).
  CacheStats stats_;
};

}  // namespace relb::re
