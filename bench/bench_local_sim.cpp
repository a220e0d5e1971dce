// Massive-scale LOCAL simulator benchmarks (docs/simulator.md), linked into
// bench_perf_engine so run_bench.sh ships them in BENCH_speedup.json:
//
//   BM_CsrBuild        CsrGraph::fromParents on a pre-generated random-tree
//                      parent array at numThreads = 1 -- the degree-count +
//                      prefix-sum + fill passes, one arena allocation, no
//                      generator cost.  Gated by tools/check_bench.py on
//                      cpu_time, so it must stay serial: at a wider width
//                      only the calling lane's CPU time would count.
//   BM_CsrBuildParallel
//                      The same build at the default width, on wall time.
//   BM_LubyMisRound    One full-frontier Luby round (both phases + survivor
//                      merge) at nodes x threads; the serial rows are gated
//                      by tools/check_bench.py, the threads=0 rows track the
//                      parallel trajectory.
//   BM_LocalSimEndToEnd
//                      runSim at nodes x threads: random-tree build, Luby
//                      MIS, the Section 1.1 domset reduction, and the
//                      verifier -- the whole relb_localsim run minus process
//                      start, on wall time.
//
// Instances are cached per node count: generation (the splitmix64 sweep) is
// paid once per process, not per iteration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "local/families.hpp"
#include "local/kernels.hpp"
#include "local/sim.hpp"

namespace {

using relb::local::CsrGraph;
using relb::local::Frontier;
using relb::local::MisFlag;
using relb::local::TreeInstance;
using relb::local::Vertex;

const TreeInstance& cachedTree(std::uint64_t nodes) {
  static std::map<std::uint64_t, TreeInstance> cache;
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    it = cache
             .emplace(nodes, relb::local::makeTree(
                                 relb::local::Family::kRandomTree, nodes,
                                 /*maxDegree=*/0, /*seed=*/1))
             .first;
  }
  return it->second;
}

void runCsrBuild(benchmark::State& state, int numThreads) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const std::vector<Vertex>& parents = cachedTree(nodes).parents;
  for (auto _ : state) {
    CsrGraph g = CsrGraph::fromParents(parents, numThreads);
    benchmark::DoNotOptimize(g.numHalfEdges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}

void BM_CsrBuild(benchmark::State& state) {
  runCsrBuild(state, relb::util::kSerialNumThreads);
}
BENCHMARK(BM_CsrBuild)->Arg(1000000)->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

void BM_CsrBuildParallel(benchmark::State& state) {
  runCsrBuild(state, relb::util::kDefaultNumThreads);
}
BENCHMARK(BM_CsrBuildParallel)->Arg(1000000)->Arg(10000000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LubyMisRound(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const TreeInstance& inst = cachedTree(nodes);
  const Vertex n = inst.graph.numNodes();
  std::vector<MisFlag> misState(n);
  std::vector<std::uint8_t> inMark(n);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(misState.begin(), misState.end(), MisFlag::kUndecided);
    std::fill(inMark.begin(), inMark.end(), std::uint8_t{0});
    Frontier frontier = relb::local::fullFrontier(n);
    state.ResumeTiming();
    Frontier next = relb::local::lubyMisRound(inst.graph, frontier, misState,
                                              inMark, /*seed=*/1, /*round=*/0,
                                              threads);
    benchmark::DoNotOptimize(next.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_LubyMisRound)
    ->Args({1000000, 1})
    ->Args({1000000, 0})
    ->Args({10000000, 1})
    ->Args({10000000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LocalSimEndToEnd(benchmark::State& state) {
  relb::local::SimOptions options;
  options.family = relb::local::Family::kRandomTree;
  options.nodes = static_cast<std::uint64_t>(state.range(0));
  options.algo = relb::local::Algo::kDomsetReduction;
  options.seed = 1;
  options.numThreads = static_cast<int>(state.range(1));
  options.verify = true;
  for (auto _ : state) {
    const relb::local::SimResult result = relb::local::runSim(options);
    benchmark::DoNotOptimize(result.stateChecksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.nodes));
}
BENCHMARK(BM_LocalSimEndToEnd)
    ->Args({10000000, 1})
    ->Args({10000000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
