#include "re/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "re/zero_round.hpp"
#include "util/arena.hpp"

namespace relb::re {

namespace {

std::uint64_t mixKey(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (v ^ (v >> 31));
}

}  // namespace

std::string CacheStats::describe() const {
  const auto line = [](const char* name, std::size_t hits,
                       std::size_t misses) {
    return std::string(name) + ": " + std::to_string(hits) + " hits / " +
           std::to_string(misses) + " misses\n";
  };
  std::string out;
  out += line("speedup steps", stepHits, stepMisses);
  out += line("edge compatibility", edgeCompatHits, edgeCompatMisses);
  out += line("strength diagrams", strengthHits, strengthMisses);
  out += line("right-closed families", rightClosedHits, rightClosedMisses);
  out += line("zero-round analyses", zeroRoundHits, zeroRoundMisses);
  out += line("canonical forms", canonicalHits, canonicalMisses);
  out += line("automatic lower bounds", autoboundHits, autoboundMisses);
  out += "interned problems: " + std::to_string(internedProblems) + "\n";
  out += "step store: " + std::to_string(storeHits) + " hits / " +
         std::to_string(storeMisses) + " misses / " +
         std::to_string(storeWrites) + " writes\n";
  return out;
}

// ---------------------------------------------------------------------------
// EngineCore
// ---------------------------------------------------------------------------

struct EngineCore::Impl {
  // Every cache follows the same discipline: buckets keyed by a 64-bit
  // structural hash, entries carrying the full key for exact comparison (a
  // hash collision degrades to a miss-like scan, never to a wrong answer).
  struct StepEntry {
    int kind;  // 0 = R, 1 = Rbar
    Problem input;
    Count maxRbarDelta;
    std::size_t enumerationLimit;
    std::optional<StepResult> result;  // unset: the step was refused
    std::string refusal;               // the guard's re::Error message

    /// R results hold under any options; R-bar results and every refusal
    /// only under the guards they were computed with.
    [[nodiscard]] bool answers(int k, const Problem& p,
                               const StepOptions& o) const {
      return kind == k && input == p &&
             ((kind == 0 && result) ||
              (maxRbarDelta == o.maxRbarDelta &&
               enumerationLimit == o.enumerationLimit));
    }
    /// The memoized outcome: the result, or the refusal rethrown verbatim.
    [[nodiscard]] StepResult replay() const {
      if (!result) throw Error(refusal);
      return *result;
    }
  };
  struct AutoboundEntry {
    Problem start;
    int maxSteps;
    int maxLabels;
    Count maxRbarDelta;
    std::size_t enumerationLimit;
    AutoLowerBound result;
  };
  struct EdgeCompatEntry {
    Constraint edge;
    int alphabetSize;
    std::vector<LabelSet> compat;
  };
  struct StrengthEntry {
    Constraint constraint;
    int alphabetSize;
    std::size_t limit;
    StrengthRelation relation{0};
  };
  struct RightClosedEntry {
    Constraint constraint;
    int alphabetSize;
    LabelSet universe;
    std::size_t limit;
    std::vector<LabelSet> sets;
  };
  struct ZeroRoundEntry {
    Problem input;
    ZeroRoundMode mode;
    bool solvable;
  };
  struct CanonicalEntry {
    Problem input;
    CanonicalForm form;
  };

  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, std::vector<StepEntry>> steps;
  std::unordered_map<std::uint64_t, std::vector<AutoboundEntry>> autobounds;
  std::unordered_map<std::uint64_t, std::vector<EdgeCompatEntry>> edgeCompat;
  std::unordered_map<std::uint64_t, std::vector<StrengthEntry>> strengths;
  std::unordered_map<std::uint64_t, std::vector<RightClosedEntry>> rightClosed;
  std::unordered_map<std::uint64_t, std::vector<ZeroRoundEntry>> zeroRound;
  std::unordered_map<std::uint64_t, std::vector<CanonicalEntry>> canonicals;
  std::unordered_map<std::uint64_t, std::vector<Problem>> interned;
  /// Aggregate across every session over this core.
  CacheStats stats;
  /// Durable write-through backing; consulted on memo misses.  Load/store
  /// calls run OUTSIDE the mutex (the storage is thread-safe by contract).
  std::shared_ptr<StepStorage> storage;
};

EngineCore::EngineCore() : impl_(std::make_unique<Impl>()) {}

EngineCore::~EngineCore() = default;

void EngineCore::attachStore(std::shared_ptr<StepStorage> store) {
  std::lock_guard lock(impl_->mutex);
  impl_->storage = std::move(store);
}

std::shared_ptr<StepStorage> EngineCore::store() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->storage;
}

CacheStats EngineCore::stats() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->stats;
}

void EngineCore::resetStats() {
  std::lock_guard lock(impl_->mutex);
  impl_->stats = CacheStats{};
}

// ---------------------------------------------------------------------------
// EngineSession
// ---------------------------------------------------------------------------

/// Counter references mirrored into the session's registry (the per-session
/// CacheStats stay the source of truth for `--stats`; the registry is what
/// run reports and counter-based tests read).  Interned once per session,
/// ticked with relaxed atomic adds.  For scope-less sessions the registry is
/// the global one, so names collide deliberately: globals aggregate.
struct EngineSession::ObsHooks {
  obs::Counter& memoHit;
  obs::Counter& memoMiss;
  obs::Counter& zeroRoundHit;
  obs::Counter& zeroRoundMiss;
  obs::Counter& canonicalHit;
  obs::Counter& canonicalMiss;
  obs::Counter& autoboundHit;
  obs::Counter& autoboundMiss;
  obs::Counter& storeHit;
  obs::Counter& storeMiss;
  obs::Counter& storeWrite;

  explicit ObsHooks(obs::Registry& r)
      : memoHit(r.counter("engine.memo.hit")),
        memoMiss(r.counter("engine.memo.miss")),
        zeroRoundHit(r.counter("engine.zero_round.hit")),
        zeroRoundMiss(r.counter("engine.zero_round.miss")),
        canonicalHit(r.counter("engine.canonical.hit")),
        canonicalMiss(r.counter("engine.canonical.miss")),
        autoboundHit(r.counter("engine.autobound.hit")),
        autoboundMiss(r.counter("engine.autobound.miss")),
        storeHit(r.counter("store.hit")),
        storeMiss(r.counter("store.miss")),
        storeWrite(r.counter("store.write")) {}
};

EngineSession::EngineSession(std::shared_ptr<EngineCore> core,
                             PassOptions options, obs::SessionScope* scope)
    : core_(core != nullptr ? std::move(core)
                            : std::make_shared<EngineCore>()),
      options_(options),
      registry_(scope != nullptr ? &scope->registry()
                                 : &obs::Registry::global()),
      tracer_(scope != nullptr ? &scope->tracer() : &obs::Tracer::global()),
      obs_(std::make_unique<ObsHooks>(*registry_)),
      arena_(std::make_unique<util::Arena>()) {
  if (options_.arena == nullptr) options_.arena = arena_.get();
}

EngineSession::~EngineSession() = default;

void EngineSession::attachStore(std::shared_ptr<StepStorage> store) {
  core_->attachStore(std::move(store));
}

StepResult EngineSession::applyR(const Problem& p) {
  return memoizedStep(0, p);
}

StepResult EngineSession::applyRbar(const Problem& p) {
  return memoizedStep(1, p);
}

StepResult EngineSession::memoizedStep(int kind, const Problem& p) {
  const obs::ScopedSpan span(kind == 0 ? "engine.applyR" : "engine.applyRbar",
                             *tracer_);
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t hash = structuralHash(p);
  const std::uint64_t key = mixKey(static_cast<std::uint64_t>(kind), hash);
  std::shared_ptr<StepStorage> storage;
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.steps.find(key);
    if (it != impl.steps.end()) {
      for (const auto& e : it->second) {
        if (e.answers(kind, p, options_)) {
          ++impl.stats.stepHits;
          ++stats_.stepHits;
          obs_->memoHit.add();
          return e.replay();
        }
      }
    }
    storage = impl.storage;
  }
  EngineCore::Impl::StepEntry entry{kind, p, options_.maxRbarDelta,
                                    options_.enumerationLimit, {}, {}};
  if (storage != nullptr) {
    std::optional<std::string> refusal =
        storage->loadStepRefusal(kind, p, hash, options_);
    if (!refusal) entry.result = storage->loadStep(kind, p, hash, options_);
    std::lock_guard lock(impl.mutex);
    if (refusal || entry.result) {
      if (refusal) entry.refusal = std::move(*refusal);
      ++impl.stats.storeHits;
      ++stats_.storeHits;
      obs_->storeHit.add();
      impl.steps[key].push_back(entry);
      return entry.replay();
    }
    ++impl.stats.storeMisses;
    ++stats_.storeMisses;
    obs_->storeMiss.add();
  }
  const int n = p.alphabet.size();
  try {
    if (kind == 0) {
      entry.result = detail::applyR(
          p, options_, [&] { return edgeCompatibility(p.edge, n); });
    } else {
      entry.result = detail::applyRbar(p, options_, [&] {
        return rightClosedSets(p.node, n, p.alphabet.all(),
                               options_.enumerationLimit);
      });
    }
  } catch (const Error& e) {
    entry.refusal = e.what();
  }
  {
    std::lock_guard lock(impl.mutex);
    ++impl.stats.stepMisses;
    ++stats_.stepMisses;
    obs_->memoMiss.add();
    impl.steps[key].push_back(entry);
  }
  if (storage != nullptr) {
    if (entry.result) {
      storage->storeStep(kind, p, hash, options_, *entry.result);
    } else {
      storage->storeStepRefusal(kind, p, hash, options_, entry.refusal);
    }
    std::lock_guard lock(impl.mutex);
    ++impl.stats.storeWrites;
    ++stats_.storeWrites;
    obs_->storeWrite.add();
  }
  return entry.replay();
}

Problem EngineSession::speedupStep(const Problem& p) {
  return applyRbar(applyR(p).problem).problem;
}

SpeedupStepStats EngineSession::speedupStepWithStats(const Problem& p) {
  SpeedupStepStats out;
  out.problem = p;
  const auto run = [&](PassStats& st, const char* name, auto op) {
    st.name = name;
    st.labelsIn = out.problem.alphabet.size();
    st.nodeConfigsIn = out.problem.node.size();
    st.edgeConfigsIn = out.problem.edge.size();
    const std::string spanName = "pass." + st.name;  // outlives the span
    const CacheStats before = stats();
    const auto t0 = std::chrono::steady_clock::now();
    {
      const obs::ScopedSpan span(spanName, *tracer_);
      out.problem = (this->*op)(out.problem).problem;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const CacheStats after = stats();
    st.wallMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
    st.fromCache = after.stepHits > before.stepHits &&
                   after.stepMisses == before.stepMisses;
    const auto labels = static_cast<std::int64_t>(out.problem.alphabet.size());
    registry_->gauge("re.labels.last").set(labels);
    if (tracer_->enabled()) tracer_->counter("re.labels.last", labels);
    st.labelsOut = out.problem.alphabet.size();
    st.nodeConfigsOut = out.problem.node.size();
    st.edgeConfigsOut = out.problem.edge.size();
  };
  run(out.passes[0], "ApplyR", &EngineSession::applyR);
  run(out.passes[1], "ApplyRbar", &EngineSession::applyRbar);
  return out;
}

AutoLowerBound EngineSession::autoLowerBound(
    const Problem& start, const AutoLowerBoundOptions& options) {
  const obs::ScopedSpan span("engine.autobound", *tracer_);
  EngineCore::Impl& impl = *core_->impl_;
  const auto matches = [&](const EngineCore::Impl::AutoboundEntry& e) {
    return e.maxSteps == options.maxSteps &&
           e.maxLabels == options.maxLabels &&
           e.maxRbarDelta == options_.maxRbarDelta &&
           e.enumerationLimit == options_.enumerationLimit && e.start == start;
  };
  std::uint64_t key = structuralHash(start);
  for (const std::uint64_t field :
       {static_cast<std::uint64_t>(options.maxSteps),
        static_cast<std::uint64_t>(options.maxLabels),
        static_cast<std::uint64_t>(options_.maxRbarDelta),
        static_cast<std::uint64_t>(options_.enumerationLimit)}) {
    key = mixKey(key, field);
  }
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.autobounds.find(key);
    if (it != impl.autobounds.end()) {
      for (const auto& e : it->second) {
        if (matches(e)) {
          ++impl.stats.autoboundHits;
          ++stats_.autoboundHits;
          obs_->autoboundHit.add();
          return e.result;
        }
      }
    }
  }
  AutoLowerBound result = detail::autoLowerBoundImpl(start, options, *this);
  std::lock_guard lock(impl.mutex);
  ++impl.stats.autoboundMisses;
  ++stats_.autoboundMisses;
  obs_->autoboundMiss.add();
  impl.autobounds[key].push_back({start, options.maxSteps, options.maxLabels,
                                  options_.maxRbarDelta,
                                  options_.enumerationLimit, result});
  return result;
}

std::vector<LabelSet> EngineSession::edgeCompatibility(const Constraint& edge,
                                                       int alphabetSize) {
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t key =
      mixKey(structuralHash(edge), static_cast<std::uint64_t>(alphabetSize));
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.edgeCompat.find(key);
    if (it != impl.edgeCompat.end()) {
      for (const auto& e : it->second) {
        if (e.alphabetSize == alphabetSize && e.edge == edge) {
          ++impl.stats.edgeCompatHits;
          ++stats_.edgeCompatHits;
          return e.compat;
        }
      }
    }
  }
  std::vector<LabelSet> compat = re::edgeCompatibility(edge, alphabetSize);
  std::lock_guard lock(impl.mutex);
  ++impl.stats.edgeCompatMisses;
  ++stats_.edgeCompatMisses;
  impl.edgeCompat[key].push_back({edge, alphabetSize, compat});
  return compat;
}

StrengthRelation EngineSession::strength(const Constraint& constraint,
                                         int alphabetSize,
                                         std::size_t enumerationLimit) {
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t key = mixKey(
      mixKey(structuralHash(constraint),
             static_cast<std::uint64_t>(alphabetSize)),
      enumerationLimit);
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.strengths.find(key);
    if (it != impl.strengths.end()) {
      for (const auto& e : it->second) {
        if (e.alphabetSize == alphabetSize && e.limit == enumerationLimit &&
            e.constraint == constraint) {
          ++impl.stats.strengthHits;
          ++stats_.strengthHits;
          return e.relation;
        }
      }
    }
  }
  StrengthRelation relation = [&] {
    const obs::ScopedSpan span("re.strength", *tracer_);
    return computeStrength(constraint, alphabetSize, enumerationLimit);
  }();
  std::lock_guard lock(impl.mutex);
  ++impl.stats.strengthMisses;
  ++stats_.strengthMisses;
  impl.strengths[key].push_back(
      {constraint, alphabetSize, enumerationLimit, relation});
  return relation;
}

std::vector<LabelSet> EngineSession::rightClosedSets(
    const Constraint& constraint, int alphabetSize, LabelSet universe,
    std::size_t enumerationLimit) {
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t key = mixKey(
      mixKey(mixKey(structuralHash(constraint),
                    static_cast<std::uint64_t>(alphabetSize)),
             universe.bits()),
      enumerationLimit);
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.rightClosed.find(key);
    if (it != impl.rightClosed.end()) {
      for (const auto& e : it->second) {
        if (e.alphabetSize == alphabetSize && e.universe == universe &&
            e.limit == enumerationLimit && e.constraint == constraint) {
          ++impl.stats.rightClosedHits;
          ++stats_.rightClosedHits;
          return e.sets;
        }
      }
    }
  }
  std::vector<LabelSet> sets =
      strength(constraint, alphabetSize, enumerationLimit)
          .allRightClosedSets(universe);
  std::lock_guard lock(impl.mutex);
  ++impl.stats.rightClosedMisses;
  ++stats_.rightClosedMisses;
  impl.rightClosed[key].push_back(
      {constraint, alphabetSize, universe, enumerationLimit, sets});
  return sets;
}

bool EngineSession::zeroRoundSolvable(const Problem& p, ZeroRoundMode mode) {
  const obs::ScopedSpan span("engine.zeroRound", *tracer_);
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t hash = structuralHash(p);
  const std::uint64_t key =
      mixKey(static_cast<std::uint64_t>(mode) + 7, hash);
  std::shared_ptr<StepStorage> storage;
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.zeroRound.find(key);
    if (it != impl.zeroRound.end()) {
      for (const auto& e : it->second) {
        if (e.mode == mode && e.input == p) {
          ++impl.stats.zeroRoundHits;
          ++stats_.zeroRoundHits;
          obs_->zeroRoundHit.add();
          return e.solvable;
        }
      }
    }
    storage = impl.storage;
  }
  if (storage != nullptr) {
    if (const auto loaded = storage->loadZeroRound(mode, p, hash)) {
      std::lock_guard lock(impl.mutex);
      ++impl.stats.storeHits;
      ++stats_.storeHits;
      obs_->storeHit.add();
      impl.zeroRound[key].push_back({p, mode, *loaded});
      return *loaded;
    }
    std::lock_guard lock(impl.mutex);
    ++impl.stats.storeMisses;
    ++stats_.storeMisses;
    obs_->storeMiss.add();
  }
  bool solvable = false;
  switch (mode) {
    case ZeroRoundMode::kSymmetricPorts:
      solvable = zeroRoundSolvableSymmetricPorts(p);
      break;
    case ZeroRoundMode::kAdversarialPorts:
      solvable = zeroRoundSolvableAdversarialPorts(p);
      break;
    case ZeroRoundMode::kWithEdgeInputs:
      solvable = zeroRoundSolvableWithEdgeInputs(p);
      break;
  }
  {
    std::lock_guard lock(impl.mutex);
    ++impl.stats.zeroRoundMisses;
    ++stats_.zeroRoundMisses;
    obs_->zeroRoundMiss.add();
    impl.zeroRound[key].push_back({p, mode, solvable});
  }
  if (storage != nullptr) {
    storage->storeZeroRound(mode, p, hash, solvable);
    std::lock_guard lock(impl.mutex);
    ++impl.stats.storeWrites;
    ++stats_.storeWrites;
    obs_->storeWrite.add();
  }
  return solvable;
}

EngineSession::InternResult EngineSession::intern(const Problem& p) {
  const obs::ScopedSpan span("engine.intern", *tracer_);
  EngineCore::Impl& impl = *core_->impl_;
  const std::uint64_t exactKey = structuralHash(p);
  std::optional<CanonicalForm> form;
  {
    std::lock_guard lock(impl.mutex);
    const auto it = impl.canonicals.find(exactKey);
    if (it != impl.canonicals.end()) {
      for (const auto& e : it->second) {
        if (e.input == p) {
          ++impl.stats.canonicalHits;
          ++stats_.canonicalHits;
          obs_->canonicalHit.add();
          form = e.form;
          break;
        }
      }
    }
  }
  if (!form) {
    form = canonicalize(p);
    std::lock_guard lock(impl.mutex);
    ++impl.stats.canonicalMisses;
    ++stats_.canonicalMisses;
    obs_->canonicalMiss.add();
    impl.canonicals[exactKey].push_back({p, *form});
  }

  InternResult result;
  result.hash = form->hash;
  result.canonical = std::move(*form);
  std::lock_guard lock(impl.mutex);
  auto& orbit = impl.interned[result.hash];
  result.alreadyInterned =
      std::any_of(orbit.begin(), orbit.end(), [&](const Problem& q) {
        return q == result.canonical.problem;
      });
  if (!result.alreadyInterned) {
    orbit.push_back(result.canonical.problem);
    ++impl.stats.internedProblems;
    ++stats_.internedProblems;
  }
  return result;
}

CacheStats EngineSession::stats() const {
  std::lock_guard lock(core_->impl_->mutex);
  return stats_;
}

void EngineSession::resetStats() {
  std::lock_guard lock(core_->impl_->mutex);
  stats_ = CacheStats{};
}

std::string SpeedupStepStats::renderStatsTable() const {
  // Column layout:  pass | wall us | labels in->out | node cfgs | edge cfgs
  //                 | cache | note
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"pass", "wall(us)", "labels", "node cfgs", "edge cfgs",
                  "cache", "note"});
  for (const PassStats& s : passes) {
    rows.push_back({s.name, std::to_string(s.wallMicros),
                    std::to_string(s.labelsIn) + "->" +
                        std::to_string(s.labelsOut),
                    std::to_string(s.nodeConfigsIn) + "->" +
                        std::to_string(s.nodeConfigsOut),
                    std::to_string(s.edgeConfigsIn) + "->" +
                        std::to_string(s.edgeConfigsOut),
                    s.fromCache ? "hit" : "miss", ""});
  }
  std::vector<std::size_t> width(rows.front().size(), 0);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) {
        out.append(width[c] - row[c].size() + 2, ' ');
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace relb::re
