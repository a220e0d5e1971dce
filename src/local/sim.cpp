#include "local/sim.hpp"

#include <cstdio>
#include <functional>
#include <span>

#include "local/kernels.hpp"
#include "local/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "re/types.hpp"
#include "util/thread_pool.hpp"

namespace relb::local {

namespace {

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

template <typename T>
std::uint64_t checksumSpan(std::span<const T> values, std::uint64_t hash) {
  return fnv1a64(values.data(), values.size() * sizeof(T), hash);
}

}  // namespace

std::optional<Algo> algoFromName(std::string_view name) {
  if (name == "luby-mis") return Algo::kLubyMis;
  if (name == "color-reduction") return Algo::kColorReduction;
  if (name == "domset-reduction") return Algo::kDomsetReduction;
  return std::nullopt;
}

const char* algoName(Algo algo) {
  switch (algo) {
    case Algo::kLubyMis: return "luby-mis";
    case Algo::kColorReduction: return "color-reduction";
    case Algo::kDomsetReduction: return "domset-reduction";
  }
  return "?";
}

std::string SimResult::summary() const {
  std::string out = "rounds: " + std::to_string(rounds) +
                    "  solution-size: " + std::to_string(solutionSize) +
                    "  verified: ";
  out += verified ? "yes" : "skipped";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(stateChecksum));
  out += "\nstate-checksum: ";
  out += hex;
  return out;
}

SimResult runSim(const SimOptions& options) {
  auto& registry = obs::Registry::global();
  auto& tracer = obs::Tracer::global();
  obs::Counter& roundsTotal = registry.counter("local.rounds.total");
  obs::Counter& frontierProcessed =
      registry.counter("local.frontier.processed");

  SimResult result;

  TreeInstance instance;
  {
    obs::ScopedSpan span("local.build");
    {
      obs::ScopedSpan parentsSpan("local.build.parents");
      instance.parents = makeParents(options.family, options.nodes,
                                     options.maxDegree, options.seed,
                                     options.numThreads);
    }
    obs::ScopedSpan csrSpan("local.build.csr");
    instance.graph =
        CsrGraph::fromParents(instance.parents, options.numThreads);
  }
  const CsrGraph& g = instance.graph;
  result.nodes = g.numNodes();
  result.halfEdges = g.numHalfEdges();
  result.maxDegree = g.maxDegree();
  result.graphBytes = g.layoutBytes();
  registry.gauge("local.nodes").set(static_cast<std::int64_t>(result.nodes));
  registry.gauge("local.half_edges")
      .set(static_cast<std::int64_t>(result.halfEdges));
  registry.gauge("local.max_degree")
      .set(static_cast<std::int64_t>(result.maxDegree));

  const RoundHook hook = [&](int, std::uint64_t active) {
    roundsTotal.add(1);
    frontierProcessed.add(active);
    if (tracer.enabled()) {
      tracer.counter("local.frontier", static_cast<std::int64_t>(active));
    }
  };

  // The kernel runs under the local.algo root span; verification gets its
  // own local.verify root span afterwards (the report's phase table then
  // separates kernel time from checking time).
  std::function<bool()> verifier;
  {
    obs::ScopedSpan span("local.algo");
    switch (options.algo) {
      case Algo::kLubyMis: {
        auto mis = std::make_shared<MisRun>(
            lubyMis(g, options.seed, options.numThreads, hook));
        result.rounds = mis->rounds;
        result.solutionSize = mis->misSize;
        result.stateChecksum = checksumSpan(
            std::span<const MisFlag>(mis->state), 0xcbf29ce484222325ull);
        verifier = [&g, &options, mis] {
          return csrIsMaximalIndependentSet(g, mis->state, options.numThreads);
        };
        break;
      }
      case Algo::kColorReduction: {
        auto colors = std::make_shared<ColorRun>(
            treeColorReduce(g, instance.parents, options.numThreads, hook));
        result.rounds = colors->rounds;
        result.solutionSize = colors->numColors;
        result.stateChecksum =
            checksumSpan(std::span<const std::uint32_t>(colors->colors),
                         0xcbf29ce484222325ull);
        verifier = [&g, &options, colors] {
          return csrIsProperColoring(g, colors->colors, 3, options.numThreads);
        };
        break;
      }
      case Algo::kDomsetReduction: {
        MisRun mis = lubyMis(g, options.seed, options.numThreads, hook);
        auto domset = std::make_shared<DomsetRun>(
            domsetFromMis(g, mis.state, options.numThreads, hook));
        result.rounds = mis.rounds + domset->rounds;
        result.solutionSize = domset->setSize;
        const std::uint64_t hash =
            checksumSpan(std::span<const std::uint8_t>(domset->inSet),
                         0xcbf29ce484222325ull);
        result.stateChecksum =
            checksumSpan(std::span<const Vertex>(domset->dominator), hash);
        verifier = [&g, &options, domset] {
          return csrIsZeroOutdegreeDominatingSet(
              g, domset->inSet, domset->dominator, options.numThreads);
        };
        break;
      }
    }
  }
  if (options.verify) {
    bool ok = false;
    {
      obs::ScopedSpan span("local.verify");
      ok = verifier();
    }
    if (!ok) {
      throw re::Error(std::string("runSim: verifier rejected the ") +
                      algoName(options.algo) + " output");
    }
    result.verified = true;
  }
  return result;
}

}  // namespace relb::local
