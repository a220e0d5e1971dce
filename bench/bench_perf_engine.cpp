// P1-P3 -- engine microbenchmarks (google-benchmark), in three groups:
//
//   * Symbolic-Delta benchmarks: condensed-configuration / proof-script
//     paths whose cost is independent of Delta; these deliberately take
//     astronomically large Delta arguments (up to 2^40).
//   * Exact-engine benchmarks: subset sweeps and packed-word enumerations
//     whose guards (StepOptions::maxRbarDelta = 8, <= 16 labels, per-label
//     counts <= 15) bound the feasible Delta.  Arguments stay within those
//     guards so every registered benchmark actually runs -- huge-Delta
//     arguments would make applyRbar throw, not measure.
//   * Serial-vs-parallel benchmarks: the same exact-engine hot paths with
//     StepOptions::numThreads 1 (serial) vs 0 (one thread per core), across
//     Delta.  bench/run_bench.sh filters these into BENCH_speedup.json to
//     track the repo's perf trajectory.  Delta = 7, 8 are feasible but cost
//     tens of seconds to minutes per iteration; the registered range stops
//     at 6 to keep full bench runs interactive.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/lemma6.hpp"
#include "gen/random_problem.hpp"
#include "io/serialize.hpp"
#include "core/lemma8.hpp"
#include "core/sequence.hpp"
#include "family/builtin.hpp"
#include "family/derive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "re/bitkernels.hpp"
#include "re/edge_compat.hpp"
#include "re/engine.hpp"
#include "re/re_step.hpp"
#include "re/simplify.hpp"
#include "re/cycle_verifier.hpp"
#include "re/tree_verifier.hpp"
#include "re/zero_round.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/step_store.hpp"

namespace {

using namespace relb;

// ---------------------------------------------------------------------------
// Symbolic-Delta benchmarks (cost independent of Delta; huge Delta welcome).
// ---------------------------------------------------------------------------

void BM_ApplyR_Family(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto pi = core::familyProblem(delta, delta / 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::applyR(pi));
  }
}
BENCHMARK(BM_ApplyR_Family)->Arg(8)->Arg(1 << 10)->Arg(1 << 20)->Arg(1 << 30);

void BM_VerifyLemma6(benchmark::State& state) {
  const re::Count delta = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verifyLemma6(delta, delta / 2, 1));
  }
}
BENCHMARK(BM_VerifyLemma6)->Arg(8)->Arg(1 << 10)->Arg(1 << 20)->Arg(1 << 30);

void BM_VerifyLemma8Symbolic(benchmark::State& state) {
  const re::Count delta = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::verifyLemma8Symbolic(delta, delta / 2, 1));
  }
}
BENCHMARK(BM_VerifyLemma8Symbolic)
    ->Arg(8)
    ->Arg(1 << 10)
    ->Arg(1 << 20)
    ->Arg(1 << 30);

void BM_FlowMembership(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto pi = core::familyProblem(delta, delta / 2, 7);
  re::Word w(5, 0);
  w[core::kM] = delta - 7;
  w[core::kX] = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pi.node.containsWord(w));
  }
}
BENCHMARK(BM_FlowMembership)->Arg(8)->Arg(1 << 20)->Arg(re::Count{1} << 40);

void BM_ExactChain(benchmark::State& state) {
  const re::Count delta = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exactChain(delta, 1));
  }
}
BENCHMARK(BM_ExactChain)->Arg(1 << 10)->Arg(1 << 20);

void BM_ZeroRoundCheck(benchmark::State& state) {
  const auto pi = core::familyProblem(state.range(0), state.range(0) / 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::zeroRoundSolvableSymmetricPorts(pi));
  }
}
BENCHMARK(BM_ZeroRoundCheck)->Arg(8)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Exact-engine benchmarks (enumeration guards bound the feasible Delta).
// ---------------------------------------------------------------------------

void BM_VerifyLemma8Exact(benchmark::State& state) {
  const re::Count delta = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::verifyLemma8Exact(delta, delta, 0));
  }
}
BENCHMARK(BM_VerifyLemma8Exact)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_CycleSolvable(benchmark::State& state) {
  const auto pi = re::misProblem(2);
  const int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::cycleSolvable(pi, radius));
  }
}
BENCHMARK(BM_CycleSolvable)->Arg(0)->Arg(1)->Arg(2);

void BM_TreeSolvable3(benchmark::State& state) {
  const auto pi = re::misProblem(3);
  const int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::treeSolvable3(pi, radius));
  }
}
BENCHMARK(BM_TreeSolvable3)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Serial-vs-parallel benchmarks.  Second argument is StepOptions::numThreads
// (1 = serial reference, 0 = one thread per hardware core); the serial and
// parallel rows are asserted bit-identical by
// tests/re/re_step_parallel_test.cpp, so any delta here is pure perf.
// ---------------------------------------------------------------------------

void BM_SpeedupStepMis(benchmark::State& state) {
  const auto mis = re::misProblem(state.range(0));
  re::StepOptions options;
  options.numThreads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::speedupStep(mis, options));
  }
}
BENCHMARK(BM_SpeedupStepMis)
    ->ArgsProduct({{2, 3, 4}, {1, 0}});

// Attaches per-iteration registry-counter deltas to a benchmark's JSON row,
// so BENCH_speedup.json breaks each timing down into the work it measures
// (configurations enumerated, antichain tests, labels produced).
class CounterScope {
 public:
  explicit CounterScope(benchmark::State& state)
      : state_(state), before_(obs::Registry::global().snapshot()) {}
  ~CounterScope() {
    const auto after = obs::Registry::global().snapshot();
    const auto perIter = [&](const char* name) {
      return benchmark::Counter(
          static_cast<double>(after.counterValue(name) -
                              before_.counterValue(name)),
          benchmark::Counter::kAvgIterations);
    };
    state_.counters["rbar_candidates"] = perIter("re.rbar.candidates");
    state_.counters["rbar_maximal"] = perIter("re.rbar.maximal");
    state_.counters["antichain_tests"] = perIter("re.antichain.tests");
    state_.counters["closed_sets"] = perIter("re.r.closed_sets");
    state_.counters["labels_produced"] = perIter("re.labels.produced");
    state_.counters["pool_batches"] = perIter("pool.batches");
  }

 private:
  benchmark::State& state_;
  obs::Registry::Snapshot before_;
};

void BM_SpeedupStepFamily(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto pi = core::familyProblem(delta, delta / 2, 1);
  re::StepOptions options;
  options.numThreads = static_cast<int>(state.range(1));
  const CounterScope counters(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::speedupStep(pi, options));
  }
}
BENCHMARK(BM_SpeedupStepFamily)
    ->ArgsProduct({{4, 5, 6, 7}, {1, 0}})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_MaximalEdgePairs(benchmark::State& state) {
  // A reproducible dense edge constraint over `labels` labels: many closed
  // sets, each giving a maximal pair (no domination filter runs, so
  // antichain_tests is 0).  Serial; the trailing argument is
  // always 1, so the rows keep the "/1" names the regression gate reads as
  // serial.
  const int labels = static_cast<int>(state.range(0));
  const CounterScope counters(state);
  std::mt19937 rng(12345);
  std::bernoulli_distribution coin(0.35);
  re::Constraint edge(2, {});
  for (int a = 0; a < labels; ++a) {
    for (int b = a; b < labels; ++b) {
      if (coin(rng)) {
        edge.add(re::Configuration(
            {{re::LabelSet{static_cast<re::Label>(a)}, 1},
             {re::LabelSet{static_cast<re::Label>(b)}, 1}}));
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::maximalEdgePairs(edge, labels));
  }
}
BENCHMARK(BM_MaximalEdgePairs)
    ->ArgsProduct({{10, 14, 18}, {1}})
    ->UseRealTime();

void BM_MaximalEdgePairsWorstCase(benchmark::State& state) {
  // compat[a] = all labels but a: 2^n - 2 closed sets, the most any matrix
  // has, so this is the intersection closure's worst case, paired as
  // (A, complement of A).
  const int labels = static_cast<int>(state.range(0));
  const CounterScope counters(state);
  const re::LabelSet all = re::LabelSet::full(labels);
  std::vector<re::LabelSet> compat;
  for (int a = 0; a < labels; ++a) {
    compat.push_back(all - re::LabelSet{static_cast<re::Label>(a)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        re::detail::maximalEdgePairsFromCompat(compat, labels));
  }
}
BENCHMARK(BM_MaximalEdgePairsWorstCase)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Bit-parallel kernel rows (re/bitkernels.hpp and friends), so the regression
// gate sees the kernels directly, not only the end-to-end chains above.  All
// serial: the kernels themselves are single-lane primitives.
// ---------------------------------------------------------------------------

void BM_DominationFilter(benchmark::State& state) {
  // The completability test of the Rbar sweep: a partial packed word probed
  // against a batch of allowed words with the SWAR byte-lane comparison.
  const int numWords = static_cast<int>(state.range(0));
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> label(0, 11);
  std::vector<re::kernels::ExpandedWord> words;
  std::vector<re::kernels::ExpandedWord> probes;
  for (int i = 0; i < numWords; ++i) {
    re::kernels::PackedWord w = 0;
    for (int s = 0; s < 8; ++s) {
      w += re::kernels::PackedWord{1} << (4 * label(rng));
    }
    words.push_back(re::kernels::expandWord(w));
    re::kernels::PackedWord p = 0;
    for (int s = 0; s < 4; ++s) {
      p += re::kernels::PackedWord{1} << (4 * label(rng));
    }
    probes.push_back(re::kernels::expandWord(p));
  }
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const re::kernels::ExpandedWord p : probes) {
      hits += re::kernels::dominatedBySome(p, words.data(), words.size());
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_DominationFilter)->Arg(64)->Arg(512);

void BM_RightClosure(benchmark::State& state) {
  // allRightClosedSets over a pseudo-random dense strength relation: the
  // 2^k subset sweep with the per-label closure table.
  const int labels = static_cast<int>(state.range(0));
  std::mt19937 rng(777);
  std::bernoulli_distribution coin(0.3);
  re::StrengthRelation rel(labels);
  for (int strong = 0; strong < labels; ++strong) {
    for (int weak = 0; weak < labels; ++weak) {
      if (strong != weak && coin(rng)) {
        rel.set(static_cast<re::Label>(strong), static_cast<re::Label>(weak),
                true);
      }
    }
  }
  const re::LabelSet universe = re::LabelSet::full(labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.allRightClosedSets(universe));
  }
}
BENCHMARK(BM_RightClosure)->Arg(12)->Arg(16);

void BM_SubsetSweep(benchmark::State& state) {
  // The closed-set enumeration of maximalEdgePairsFromCompat on a
  // synthetic compatibility matrix, isolated from constraint construction.
  // The row name is kept from the 2^n subset sweep the enumeration
  // replaced, so the gate keeps its history.
  const int labels = static_cast<int>(state.range(0));
  std::mt19937 rng(999);
  std::bernoulli_distribution coin(0.35);
  std::vector<re::LabelSet> compat(static_cast<std::size_t>(labels));
  for (int a = 0; a < labels; ++a) {
    for (int b = a; b < labels; ++b) {
      if (coin(rng)) {
        compat[static_cast<std::size_t>(a)].insert(static_cast<re::Label>(b));
        compat[static_cast<std::size_t>(b)].insert(static_cast<re::Label>(a));
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        re::detail::maximalEdgePairsFromCompat(compat, labels));
  }
}
BENCHMARK(BM_SubsetSweep)->Arg(12)->Arg(16);

void BM_CertifyChain(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const int numThreads = static_cast<int>(state.range(1));
  const auto chain = core::exactChain(delta, 1);
  const CounterScope counters(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::certifyChain(chain, numThreads));
  }
}
BENCHMARK(BM_CertifyChain)
    ->ArgsProduct({{1 << 10, 1 << 20}, {1, 0}})
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Warm-session benchmarks: the same hot paths served from an EngineSession
// whose caches were warmed once before the timing loop.  The measured cost
// is hashing + lookup; the delta against the cold rows above is what the
// cross-layer memoization buys consumers like autobound / certifyChain.
// ---------------------------------------------------------------------------

void BM_SpeedupStepMisCached(benchmark::State& state) {
  const auto mis = re::misProblem(state.range(0));
  re::EngineSession ctx;
  benchmark::DoNotOptimize(ctx.speedupStep(mis));  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.speedupStep(mis));
  }
}
BENCHMARK(BM_SpeedupStepMisCached)->Arg(2)->Arg(3)->Arg(4);

void BM_SpeedupStepFamilyCached(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto pi = core::familyProblem(delta, delta / 2, 1);
  re::EngineSession ctx;
  benchmark::DoNotOptimize(ctx.speedupStep(pi));  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.speedupStep(pi));
  }
}
BENCHMARK(BM_SpeedupStepFamilyCached)->Arg(4)->Arg(5)->Arg(6);

void BM_CertifyChainCached(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const int numThreads = static_cast<int>(state.range(1));
  const auto chain = core::exactChain(delta, 1);
  re::EngineSession ctx;
  benchmark::DoNotOptimize(core::certifyChain(chain, ctx, numThreads));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::certifyChain(chain, ctx, numThreads));
  }
}
BENCHMARK(BM_CertifyChainCached)
    ->ArgsProduct({{1 << 10, 1 << 20}, {1, 0}})
    ->UseRealTime();

// Cold automatic lower bound of a built-in family at its default parameters
// and the family deriver's budgets: a fresh session (private core, no store)
// per iteration, so every speedup step, merge candidate and zero-round check
// is computed -- the `re.autobound` layer of a cold `round_eliminator_cli
// --family` run.  The session's steps are serial; the zero-round checks'
// edge-pair sweep runs at the default width, as it does in the CLI, so the
// row measures wall time like the other engine rows.
void BM_AutoBoundCold(benchmark::State& state, const char* familyName) {
  const auto def = family::findBuiltin(familyName);
  if (!def) {
    state.SkipWithError("unknown built-in family");
    return;
  }
  const auto problem = family::instantiateWithDefaults(*def);
  const family::DeriveOptions derive;
  re::AutoLowerBoundOptions options;
  options.maxSteps = derive.maxSteps;
  options.maxLabels = derive.autoboundMaxLabels;
  re::StepOptions serial;
  serial.numThreads = 1;
  const CounterScope counters(state);
  for (auto _ : state) {
    re::EngineSession session(nullptr, serial);
    benchmark::DoNotOptimize(session.autoLowerBound(problem, options));
  }
}
BENCHMARK_CAPTURE(BM_AutoBoundCold, two_ruling_set, "two_ruling_set")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_AutoBoundCold, pi, "pi")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One edge-input zero-round verdict (the check the automatic lower bound's
// merge loop runs per candidate), uncached: the maximal edge pairs, then one
// interval cover of [0, Delta] per pair.  On a merge candidate of MIS at
// Delta = 3 after two speedup steps (labels 0 and 1 of 19 merged), and on
// Pi_Delta(Delta/2, 1), which is unsolvable, so every pair is tried; its
// Delta = 2^20 row costs what the Delta = 8 row does.
void BM_ZeroRoundEdgeInputs(benchmark::State& state, int which) {
  re::Problem p;
  if (which == 0) {
    re::EngineSession session;
    p = re::mergeTwoLabels(
        session.speedupStep(session.speedupStep(re::misProblem(3))), 0, 1);
  } else {
    const re::Count delta = which == 1 ? 8 : re::Count{1} << 20;
    p = core::familyProblem(delta, delta / 2, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(re::zeroRoundSolvableWithEdgeInputs(p));
  }
}
BENCHMARK_CAPTURE(BM_ZeroRoundEdgeInputs, mis3_candidate, 0);
BENCHMARK_CAPTURE(BM_ZeroRoundEdgeInputs, family_delta8, 1);
BENCHMARK_CAPTURE(BM_ZeroRoundEdgeInputs, family_delta2p20, 2);

// ---------------------------------------------------------------------------
// Session-layer benchmarks (the EngineCore / EngineSession split).
// BM_SessionCreate is the per-request price of the split: constructing a
// session over an already-warm shared core must stay trivially cheap, since
// the driver pays it on every run() and services pay it per request.
// BM_ConcurrentSessions is the contention row: N threads, each with its own
// session over ONE shared core, all served from the warm memo -- what the
// core's single lock costs when every lookup is a hit.
// ---------------------------------------------------------------------------

void BM_SessionCreate(benchmark::State& state) {
  auto core = std::make_shared<re::EngineCore>();
  {
    re::EngineSession warm(core);
    benchmark::DoNotOptimize(warm.speedupStep(re::misProblem(3)));
  }
  for (auto _ : state) {
    re::EngineSession session(core);
    benchmark::DoNotOptimize(&session);
  }
}
BENCHMARK(BM_SessionCreate);

void BM_ConcurrentSessions(benchmark::State& state) {
  // Magic static: warmed exactly once, shared by every benchmark thread.
  static const std::shared_ptr<re::EngineCore> core = [] {
    auto c = std::make_shared<re::EngineCore>();
    re::EngineSession warm(c);
    benchmark::DoNotOptimize(warm.speedupStep(re::misProblem(3)));
    return c;
  }();
  const auto mis = re::misProblem(3);
  for (auto _ : state) {
    re::EngineSession session(core);
    benchmark::DoNotOptimize(session.speedupStep(mis));
  }
}
BENCHMARK(BM_ConcurrentSessions)->Threads(2)->Threads(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Disk-store benchmarks: certifyChain backed by the content-addressed step
// store (src/store).  Cold = empty store, every step computed and written
// through; warm = a fresh context over a fully populated store, every step
// loaded and checksum-verified from disk with zero recomputation.  The gap
// between the warm row and BM_CertifyChainCached is the price of disk
// persistence over the in-memory memo.
// ---------------------------------------------------------------------------

std::filesystem::path benchStoreDir() {
  return std::filesystem::temp_directory_path() / "relb-bench-store";
}

void BM_CertifyChainColdStore(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto chain = core::exactChain(delta, 1);
  const auto dir = benchStoreDir();
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<store::DiskStepStore>(dir));
    benchmark::DoNotOptimize(core::certifyChain(chain, ctx, 1));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CertifyChainColdStore)
    ->Arg(1 << 10)
    ->Arg(1 << 20)
    ->UseRealTime();

void BM_CertifyChainWarmStore(benchmark::State& state) {
  const re::Count delta = state.range(0);
  const auto chain = core::exactChain(delta, 1);
  const auto dir = benchStoreDir();
  std::filesystem::remove_all(dir);
  {
    re::EngineSession warmup;
    warmup.attachStore(std::make_shared<store::DiskStepStore>(dir));
    benchmark::DoNotOptimize(core::certifyChain(chain, warmup, 1));
  }
  for (auto _ : state) {
    // Fresh context and store handle each iteration: everything is served
    // from disk, nothing from the in-memory memo.
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<store::DiskStepStore>(dir));
    benchmark::DoNotOptimize(core::certifyChain(chain, ctx, 1));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CertifyChainWarmStore)
    ->Arg(1 << 10)
    ->Arg(1 << 20)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Service benchmarks (src/serve): the daemon measured through its own unix
// socket.  One shared Server over a warm core for the whole benchmark
// process; every timed request is a cache hit, so the rows price the serve
// layer itself -- framing, scheduling, session setup, socket hops -- not the
// engine.  BM_ServeRoundTrip is the single-request end-to-end latency floor;
// BM_ServeThroughput keeps `clients` connections in flight at once
// (send-all, then receive-all, per iteration), which is the concurrency the
// per-connection threads under the scheduler's worker cap deliver.  Real
// time throughout: the work happens on server threads, not the caller's.
// ---------------------------------------------------------------------------

const std::string& benchSocketPath() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("relb-bench-serve-" + std::to_string(::getpid()) + ".sock"))
          .string();
  return path;
}

serve::Request benchServeRequest() {
  serve::Request request;
  request.kind = serve::Request::Kind::kProblem;
  request.id = 1;
  request.nodeSpec = "M^3; P O^2";
  request.edgeSpec = "M [P O]; O O";
  request.maxSteps = 3;
  request.wantStats = false;
  return request;
}

serve::Server& benchServer() {
  static const auto server = [] {
    serve::ServeConfig config;
    config.unixSocketPath = benchSocketPath();
    auto owned = std::make_unique<serve::Server>(config);
    owned->start();
    // Warm the shared core once, outside any timing loop.
    serve::Client warm = serve::Client::connectUnix(benchSocketPath());
    if (!warm.roundTrip(benchServeRequest()).ok()) {
      std::abort();  // a broken server would silently poison every row
    }
    return owned;
  }();
  return *server;
}

void BM_ServeRoundTrip(benchmark::State& state) {
  benchServer();
  serve::Client client = serve::Client::connectUnix(benchSocketPath());
  const serve::Request request = benchServeRequest();
  for (auto _ : state) {
    const serve::Response response = client.roundTrip(request);
    if (!response.ok()) {
      state.SkipWithError(response.status.c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRoundTrip)->UseRealTime();

void BM_ServeThroughput(benchmark::State& state) {
  benchServer();
  const int clients = static_cast<int>(state.range(0));
  std::vector<serve::Client> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    pool.push_back(serve::Client::connectUnix(benchSocketPath()));
  }
  const serve::Request request = benchServeRequest();
  for (auto _ : state) {
    for (serve::Client& client : pool) {
      client.send(request);
    }
    for (serve::Client& client : pool) {
      const serve::Response response = client.receive();
      if (!response.ok()) {
        state.SkipWithError(response.status.c_str());
        return;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgNames({"clients"})
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Observability overhead.  BM_ScopedSpanNoSink is the fast path every
// instrumented hot path pays unconditionally -- it must stay in the
// low-nanosecond range (tests/obs/overhead_test.cpp asserts the resulting
// < 2% bound against certifyChain).  The sink rows bound what --trace adds.
// ---------------------------------------------------------------------------

void BM_ScopedSpanNoSink(benchmark::State& state) {
  obs::Tracer tracer;  // no sinks: construction is one relaxed load
  for (auto _ : state) {
    const obs::ScopedSpan span("bench.span", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ScopedSpanNoSink);

void BM_ScopedSpanNullSink(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.addSink(std::make_shared<obs::NullSink>());
  for (auto _ : state) {
    const obs::ScopedSpan span("bench.span", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ScopedSpanNullSink);

void BM_ScopedSpanRingSink(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.addSink(std::make_shared<obs::RingBufferSink>(1024));
  for (auto _ : state) {
    const obs::ScopedSpan span("bench.span", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ScopedSpanRingSink);

void BM_RegistryCounterAdd(benchmark::State& state) {
  obs::Counter& counter = obs::Registry::global().counter("bench.counter");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_RegistryCounterAdd);

// ---------------------------------------------------------------------------
// Random-problem generator (src/gen): the throughput floor under the
// property suites.  One row per pass configuration -- the post-passes
// (right closure, relaxation) dominate generation cost, and a regression
// here silently stretches every tier-2 CI run.
// ---------------------------------------------------------------------------

void BM_GenerateRandomProblem(benchmark::State& state) {
  gen::RandomProblemOptions options;
  options.rightClosurePass = state.range(0) != 0;
  options.relaxationPass = state.range(1) != 0;
  std::mt19937 rng(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::randomProblem(rng, options));
  }
}
BENCHMARK(BM_GenerateRandomProblem)
    ->ArgNames({"closure", "relax"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// The generate -> serialize path the fuzz-corpus generator
// (tools/fuzz_parse --generate) and the round-trip suites pay per case.
void BM_GenerateAndRenderText(benchmark::State& state) {
  const gen::RandomProblemOptions options;
  std::mt19937 rng(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        io::renderProblemText(gen::randomProblem(rng, options)));
  }
}
BENCHMARK(BM_GenerateAndRenderText);

}  // namespace

BENCHMARK_MAIN();
