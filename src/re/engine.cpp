#include "re/engine.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "re/zero_round.hpp"

namespace relb::re {

namespace {

std::uint64_t mixKey(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (v ^ (v >> 31));
}

/// One memo table.  Buckets are keyed by a 64-bit structural hash and
/// every entry carries its full key -- a tuple of every input the value
/// depends on, scalars first so a mismatch is found cheaply -- so a hash
/// collision degrades to a miss-like scan, never to a wrong answer.
template <typename K, typename V>
struct MemoTable {
  using Key = K;
  using Value = V;
  struct Entry {
    Key key;
    Value value;
  };
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
};

/// A memoized step: the result, or the refusal an engine guard threw.
struct StepOutcome {
  std::optional<StepResult> result;  // unset: the step was refused
  std::string refusal;               // the guard's re::Error message

  /// The result, or the refusal rethrown verbatim.
  [[nodiscard]] StepResult replay() && {
    if (!result) throw Error(refusal);
    return std::move(*result);
  }
};

/// kind (0 = R, 1 = Rbar), maxRbarDelta, enumerationLimit, input.
using StepTable =
    MemoTable<std::tuple<int, Count, std::size_t, Problem>, StepOutcome>;

/// An entry answers a lookup (`probe`: the key's fields, by reference) iff
/// its key equals the probe ...
template <typename Entry, typename Probe>
bool answers(const Entry& entry, const Probe& probe) {
  return entry.key == probe;
}

/// ... except that R results hold under any guards; R-bar results and
/// every refusal only under the guards they were computed with.
template <typename Probe>
bool answers(const StepTable::Entry& entry, const Probe& probe) {
  const auto& [kind, maxRbarDelta, enumerationLimit, input] = entry.key;
  return kind == std::get<0>(probe) && input == std::get<3>(probe) &&
         ((kind == 0 && entry.value.result) ||
          (maxRbarDelta == std::get<1>(probe) &&
           enumerationLimit == std::get<2>(probe)));
}

/// Read-through and write-through of the attached store for one memoized
/// value: `load(storage)` returns std::optional<Value>, `save(storage,
/// value)` persists a computed one and returns whether anything was
/// written (an optional pair's default writes nothing).
template <typename Load, typename Save>
struct ThroughStore {
  Load load;
  Save save;
};
template <typename Load, typename Save>
ThroughStore(Load, Save) -> ThroughStore<Load, Save>;

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
  mutable std::mutex mutex;
  StepTable steps;
  /// maxSteps, maxLabels, maxRbarDelta, enumerationLimit, start.
  MemoTable<std::tuple<int, int, Count, std::size_t, Problem>, AutoLowerBound>
      autobounds;
  /// alphabetSize, edge.
  MemoTable<std::tuple<int, Constraint>, std::vector<LabelSet>> edgeCompat;
  /// alphabetSize, enumerationLimit, constraint.
  MemoTable<std::tuple<int, std::size_t, Constraint>, StrengthRelation>
      strengths;
  /// alphabetSize, universe, enumerationLimit, constraint.
  MemoTable<std::tuple<int, LabelSet, std::size_t, Constraint>,
            std::vector<LabelSet>>
      rightClosed;
  MemoTable<std::tuple<ZeroRoundMode, Problem>, bool> zeroRound;
  MemoTable<std::tuple<Problem>, CanonicalForm> canonicals;
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

/// One counter: a CacheStats member, mirrored into a registry counter where
/// the cache has one (the per-session CacheStats stay the source of truth
/// for `--stats`; the registry is what run reports and counter-based tests
/// read).
struct EngineSession::Tick {
  std::size_t CacheStats::*field;
  obs::Counter* mirror;
};

struct EngineSession::Traffic {
  Tick hit;
  Tick miss;
};

/// Every cache's ticks.  The registry counters are interned once per session
/// and ticked with relaxed atomic adds; for scope-less sessions the registry
/// is the global one, so names collide deliberately: globals aggregate.
/// Edge compatibility, strength and right-closed sets have no registry
/// counters.
struct EngineSession::ObsHooks {
  Traffic step;
  Traffic zeroRound;
  Traffic canonical;
  Traffic autobound;
  Traffic store;
  Tick storeWrite;
  Traffic edgeCompat{{&CacheStats::edgeCompatHits, nullptr},
                     {&CacheStats::edgeCompatMisses, nullptr}};
  Traffic strength{{&CacheStats::strengthHits, nullptr},
                   {&CacheStats::strengthMisses, nullptr}};
  Traffic rightClosed{{&CacheStats::rightClosedHits, nullptr},
                      {&CacheStats::rightClosedMisses, nullptr}};
  Tick interned{&CacheStats::internedProblems, nullptr};

  explicit ObsHooks(obs::Registry& r)
      : step{{&CacheStats::stepHits, &r.counter("engine.memo.hit")},
             {&CacheStats::stepMisses, &r.counter("engine.memo.miss")}},
        zeroRound{
            {&CacheStats::zeroRoundHits, &r.counter("engine.zero_round.hit")},
            {&CacheStats::zeroRoundMisses,
             &r.counter("engine.zero_round.miss")}},
        canonical{
            {&CacheStats::canonicalHits, &r.counter("engine.canonical.hit")},
            {&CacheStats::canonicalMisses,
             &r.counter("engine.canonical.miss")}},
        autobound{
            {&CacheStats::autoboundHits, &r.counter("engine.autobound.hit")},
            {&CacheStats::autoboundMisses,
             &r.counter("engine.autobound.miss")}},
        store{{&CacheStats::storeHits, &r.counter("store.hit")},
              {&CacheStats::storeMisses, &r.counter("store.miss")}},
        storeWrite{&CacheStats::storeWrites, &r.counter("store.write")} {}
};

void EngineSession::count(const Tick& tick) {
  ++(core_->impl_->stats.*tick.field);
  ++(stats_.*tick.field);
  if (tick.mirror != nullptr) tick.mirror->add();
}

/// A lookup counts a hit or, once the value is computed, a miss.  With a
/// store attached (`through` is a ThroughStore), a miss first reads the
/// store -- a store hit fills the memo and counts a store hit, not a miss --
/// and a computed value is written through, counting a store write if the
/// storage persisted it.  A computation that throws
/// propagates with nothing inserted and no miss counted.
template <typename Table, typename Probe, typename Compute, typename Through>
typename Table::Value EngineSession::memo(Table& table, std::uint64_t hash,
                                          const Traffic& traffic,
                                          const Probe& probe,
                                          const Compute& compute,
                                          const Through& through) {
  using Value = typename Table::Value;
  constexpr bool kDurable = !std::is_same_v<Through, InMemory>;
  EngineCore::Impl& impl = *core_->impl_;
  std::shared_ptr<StepStorage> storage;
  {
    std::lock_guard lock(impl.mutex);
    if (const auto it = table.buckets.find(hash);
        it != table.buckets.end()) {
      for (const auto& entry : it->second) {
        if (answers(entry, probe)) {
          count(traffic.hit);
          return entry.value;
        }
      }
    }
    if constexpr (kDurable) storage = impl.storage;
  }
  const auto insert = [&](const Tick& tick, const Value& value) {
    typename Table::Entry entry{typename Table::Key(probe), value};
    std::lock_guard lock(impl.mutex);
    count(tick);
    table.buckets[hash].push_back(std::move(entry));
  };
  if constexpr (kDurable) {
    if (storage != nullptr) {
      if (std::optional<Value> loaded = through.load(*storage)) {
        insert(obs_->store.hit, *loaded);
        return *std::move(loaded);
      }
      std::lock_guard lock(impl.mutex);
      count(obs_->store.miss);
    }
  }
  Value value = compute();
  insert(traffic.miss, value);
  if constexpr (kDurable) {
    if (storage != nullptr && through.save(*storage, value)) {
      std::lock_guard lock(impl.mutex);
      count(obs_->storeWrite);
    }
  }
  return value;
}

EngineSession::EngineSession(std::shared_ptr<EngineCore> core,
                             StepOptions options, obs::SessionScope* scope)
    : core_(core != nullptr ? std::move(core)
                            : std::make_shared<EngineCore>()),
      options_(options),
      registry_(scope != nullptr ? &scope->registry()
                                 : &obs::Registry::global()),
      tracer_(scope != nullptr ? &scope->tracer() : &obs::Tracer::global()),
      obs_(std::make_unique<ObsHooks>(*registry_)) {}

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
  const std::uint64_t hash = structuralHash(p);
  const auto compute = [&] {
    StepOutcome out;
    const int n = p.alphabet.size();
    try {
      if (kind == 0) {
        out.result =
            detail::applyR(p, [&] { return edgeCompatibility(p.edge, n); });
      } else {
        out.result = detail::applyRbar(p, options_, [&] {
          return rightClosedSets(p.node, n, p.alphabet.all(),
                                 options_.enumerationLimit);
        });
      }
    } catch (const Error& e) {
      out.refusal = e.what();
    }
    return out;
  };
  const ThroughStore store{
      [&](StepStorage& s) -> std::optional<StepOutcome> {
        if (auto refusal = s.loadStepRefusal(kind, p, hash, options_)) {
          return StepOutcome{std::nullopt, std::move(*refusal)};
        }
        if (auto result = s.loadStep(kind, p, hash, options_)) {
          return StepOutcome{std::move(result), {}};
        }
        return std::nullopt;
      },
      [&](StepStorage& s, const StepOutcome& out) {
        if (!out.result) {
          return s.storeStepRefusal(kind, p, hash, options_, out.refusal);
        }
        s.storeStep(kind, p, hash, options_, *out.result);
        return true;
      }};
  return memo(core_->impl_->steps,
              mixKey(static_cast<std::uint64_t>(kind), hash), obs_->step,
              std::forward_as_tuple(kind, options_.maxRbarDelta,
                                    options_.enumerationLimit, p),
              compute, store)
      .replay();
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
    st.fromCache = after.stepMisses == before.stepMisses;
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
  const std::uint64_t startHash = structuralHash(start);
  std::uint64_t hash = startHash;
  for (const std::uint64_t field :
       {static_cast<std::uint64_t>(options.maxSteps),
        static_cast<std::uint64_t>(options.maxLabels),
        static_cast<std::uint64_t>(options_.maxRbarDelta),
        static_cast<std::uint64_t>(options_.enumerationLimit)}) {
    hash = mixKey(hash, field);
  }
  return memo(core_->impl_->autobounds, hash, obs_->autobound,
              std::forward_as_tuple(options.maxSteps, options.maxLabels,
                                    options_.maxRbarDelta,
                                    options_.enumerationLimit, start),
              [&] { return searchLowerBound(start, options); },
              ThroughStore{
                  [&](StepStorage& s) {
                    return s.loadAutoBound(start, startHash, options_,
                                           options);
                  },
                  [&](StepStorage& s, const AutoLowerBound& bound) {
                    return s.storeAutoBound(start, startHash, options_,
                                            options, bound);
                  }});
}

std::vector<LabelSet> EngineSession::edgeCompatibility(const Constraint& edge,
                                                       int alphabetSize) {
  return memo(
      core_->impl_->edgeCompat,
      mixKey(structuralHash(edge), static_cast<std::uint64_t>(alphabetSize)),
      obs_->edgeCompat, std::forward_as_tuple(alphabetSize, edge),
      [&] { return re::edgeCompatibility(edge, alphabetSize); });
}

StrengthRelation EngineSession::strength(const Constraint& constraint,
                                         int alphabetSize,
                                         std::size_t enumerationLimit) {
  return memo(core_->impl_->strengths,
              mixKey(mixKey(structuralHash(constraint),
                            static_cast<std::uint64_t>(alphabetSize)),
                     enumerationLimit),
              obs_->strength,
              std::forward_as_tuple(alphabetSize, enumerationLimit, constraint),
              [&] {
                const obs::ScopedSpan span("re.strength", *tracer_);
                return computeStrength(constraint, alphabetSize,
                                       enumerationLimit);
              });
}

std::vector<LabelSet> EngineSession::rightClosedSets(
    const Constraint& constraint, int alphabetSize, LabelSet universe,
    std::size_t enumerationLimit) {
  return memo(core_->impl_->rightClosed,
              mixKey(mixKey(mixKey(structuralHash(constraint),
                                   static_cast<std::uint64_t>(alphabetSize)),
                            universe.bits()),
                     enumerationLimit),
              obs_->rightClosed,
              std::forward_as_tuple(alphabetSize, universe, enumerationLimit,
                                    constraint),
              [&] {
                return strength(constraint, alphabetSize, enumerationLimit)
                    .allRightClosedSets(universe);
              });
}

bool EngineSession::zeroRoundSolvable(const Problem& p, ZeroRoundMode mode) {
  const obs::ScopedSpan span("engine.zeroRound", *tracer_);
  const std::uint64_t hash = structuralHash(p);
  return memo(
      core_->impl_->zeroRound,
      mixKey(static_cast<std::uint64_t>(mode) + 7, hash), obs_->zeroRound,
      std::forward_as_tuple(mode, p),
      [&] {
        switch (mode) {
          case ZeroRoundMode::kSymmetricPorts:
            return zeroRoundSolvableSymmetricPorts(p);
          case ZeroRoundMode::kAdversarialPorts:
            return zeroRoundSolvableAdversarialPorts(p);
          case ZeroRoundMode::kWithEdgeInputs:
            return zeroRoundSolvableWithEdgeInputs(p);
        }
        return false;
      },
      ThroughStore{
          [&](StepStorage& s) { return s.loadZeroRound(mode, p, hash); },
          [&](StepStorage& s, bool solvable) {
            s.storeZeroRound(mode, p, hash, solvable);
            return true;
          }});
}

EngineSession::InternResult EngineSession::intern(const Problem& p) {
  const obs::ScopedSpan span("engine.intern", *tracer_);
  InternResult result;
  result.canonical =
      memo(core_->impl_->canonicals, structuralHash(p), obs_->canonical,
           std::forward_as_tuple(p), [&] { return canonicalize(p); });
  result.hash = result.canonical.hash;
  EngineCore::Impl& impl = *core_->impl_;
  std::lock_guard lock(impl.mutex);
  auto& orbit = impl.interned[result.hash];
  result.alreadyInterned =
      std::any_of(orbit.begin(), orbit.end(), [&](const Problem& q) {
        return q == result.canonical.problem;
      });
  if (!result.alreadyInterned) {
    orbit.push_back(result.canonical.problem);
    count(obs_->interned);
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
