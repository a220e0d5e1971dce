// relb_loadgen: client and load generator for relb-served.
//
// Two modes.
//
// Single-shot (--chain DELTA, optionally --cert-out FILE): sends one chain
// request asking for the certificate and the session stats, writes the
// certificate bytes verbatim to FILE, and prints
//
//     status: ok
//     session: N hits / M misses / W writes
//     autobound: H hits / M misses
//
// -- the lines the CI service job greps: a warm duplicate request must show
// `0 misses / 0 writes`, and FILE must be byte-identical (`cmp`) to what
// `round_eliminator_cli --chain DELTA --save-cert` writes, because both are
// the same driver run over the same engine.  --node SPEC --edge SPEC sends
// one problem request instead (the CLI's positional mode, --max-steps
// steps); a warm duplicate must answer from the autobound memo.
//
// Load mode (default): replays --requests mixed requests over --clients
// concurrent connections -- random problems drawn from gen::randomProblem
// under --seed (deterministic: same seed, same request stream), a chain
// request every --chain-every, and a repeat of an earlier problem every
// --duplicate-every (the warm-cache path) -- then prints a latency /
// throughput / cache-hit-rate summary.
//
//   relb_loadgen (--unix PATH | --host H --port P) [mode flags]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "family/builtin.hpp"
#include "gen/family_sample.hpp"
#include "gen/random_problem.hpp"
#include "re/problem.hpp"
#include "re/types.hpp"
#include "serve/client.hpp"
#include "util/parse.hpp"

namespace {

using relb::serve::Client;
using relb::serve::Request;
using relb::serve::Response;
using relb::serve::StatusCode;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string unixPath;

  // Load mode.
  int requests = 256;
  int clients = 8;
  unsigned seed = 42;
  int maxSteps = 2;
  int chainEvery = 16;
  int duplicateEvery = 4;
  int familyEvery = 0;
  long deadlineMs = 0;

  // Single-shot mode.
  std::string nodeSpec;
  std::string edgeSpec;
  long chainDelta = -1;
  long chainX0 = 1;
  std::string certOut;
};

int usage(std::ostream& out, int code) {
  out << "usage: relb_loadgen (--unix PATH | --host H --port P) [options]\n"
         "single-shot mode:\n"
         "  --chain DELTA        send one chain request (with certificate)\n"
         "  --x0 X               chain start parameter (default 1)\n"
         "  --cert-out FILE      write the returned certificate bytes to "
         "FILE\n"
         "  --node SPEC --edge SPEC\n"
         "                       send one problem request instead (with "
         "--max-steps)\n"
         "load mode (default):\n"
         "  --requests N         total requests to send (default 256)\n"
         "  --clients N          concurrent connections (default 8)\n"
         "  --seed S             request-stream seed (default 42)\n"
         "  --max-steps N        per-problem speedup budget (default 2)\n"
         "  --chain-every K      every K-th request is a chain (default 16,"
         " 0 = never)\n"
         "  --duplicate-every K  every K-th request repeats an earlier one "
         "(default 4, 0 = never)\n"
         "  --family-every K     every K-th request instantiates a built-in "
         "family (default 0 = never)\n"
         "  --deadline-ms N      per-request admission deadline (default 0)"
         "\n";
  return code;
}

/// The CLI's ';'-separated spec for one constraint.
std::string toSpec(const std::string& renderedConstraint) {
  std::string spec;
  for (const char ch : renderedConstraint) {
    if (ch == '\n') {
      if (!spec.empty() && spec.back() != ';') spec += ';';
    } else {
      spec += ch;
    }
  }
  while (!spec.empty() && spec.back() == ';') spec.pop_back();
  return spec;
}

Client connect(const Options& options) {
  if (!options.unixPath.empty()) return Client::connectUnix(options.unixPath);
  return Client::connectTcp(options.host, options.port);
}

int runSingleShot(const Options& options) {
  Request request;
  request.id = 1;
  if (options.nodeSpec.empty()) {
    request.kind = Request::Kind::kChain;
    request.chainDelta = options.chainDelta;
    request.chainX0 = options.chainX0;
    request.wantCertificate = true;
  } else {
    request.kind = Request::Kind::kProblem;
    request.nodeSpec = options.nodeSpec;
    request.edgeSpec = options.edgeSpec;
    request.maxSteps = options.maxSteps;
  }
  request.deadlineMillis = options.deadlineMs;

  Client client = connect(options);
  const Response response = client.roundTrip(request);
  std::cout << "status: " << response.status << "\n";
  if (response.stats.has_value()) {
    std::cout << "session: " << response.stats->describeLine() << "\n"
              << "autobound: " << response.stats->autoboundHits
              << " hits / " << response.stats->autoboundMisses
              << " misses\n";
  }
  if (!response.diagnostics.empty()) std::cerr << response.diagnostics;
  if (!response.ok()) return 1;
  if (!options.certOut.empty()) {
    if (response.certificate.empty()) {
      std::cerr << "relb_loadgen: response carried no certificate\n";
      return 1;
    }
    std::ofstream file(options.certOut, std::ios::binary);
    file << response.certificate;
    if (!file.good()) {
      std::cerr << "relb_loadgen: cannot write " << options.certOut << "\n";
      return 1;
    }
    std::cout << "wrote certificate: " << options.certOut << " ("
              << response.certificate.size() << " bytes)\n";
  }
  return 0;
}

struct Tally {
  std::int64_t ok = 0, failed = 0, rejected = 0, expired = 0, other = 0;
  std::int64_t hits = 0, misses = 0, writes = 0;
  std::vector<std::int64_t> latencyMicros;
};

int runLoad(const Options& options) {
  // The request stream is a pure function of the seed: random problems,
  // periodic chains, and periodic repeats of earlier problems (the warm
  // path a shared cache exists for).
  std::mt19937 rng(options.seed);
  relb::gen::RandomProblemOptions problemOptions;
  problemOptions.maxAlphabet = 3;
  problemOptions.maxDelta = 3;
  std::vector<Request> stream;
  stream.reserve(static_cast<std::size_t>(options.requests));
  std::vector<std::size_t> problemIndices;
  for (int i = 0; i < options.requests; ++i) {
    Request request;
    request.id = i + 1;
    request.deadlineMillis = options.deadlineMs;
    if (options.chainEvery > 0 && (i + 1) % options.chainEvery == 0) {
      request.kind = Request::Kind::kChain;
      request.chainDelta = 2 + (i / options.chainEvery) % 2;
      request.chainX0 = 1;
    } else if (options.familyEvery > 0 && (i + 1) % options.familyEvery == 0) {
      // Round-robin over the built-ins, parameters drawn from the stream
      // RNG: family-shaped problems with non-default parameter points.
      const auto& families = relb::family::builtinFamilies();
      const relb::family::FamilyDef& def =
          families[static_cast<std::size_t>(i / options.familyEvery) %
                   families.size()];
      relb::gen::FamilySampleOptions sampleOptions;
      sampleOptions.minDelta = 2;
      sampleOptions.maxDelta = 3;
      const relb::re::Problem p =
          relb::gen::randomFamilyProblem(rng, def, sampleOptions);
      request.kind = Request::Kind::kProblem;
      request.nodeSpec = toSpec(p.node.render(p.alphabet));
      request.edgeSpec = toSpec(p.edge.render(p.alphabet));
      request.maxSteps = options.maxSteps;
      problemIndices.push_back(stream.size());
    } else if (options.duplicateEvery > 0 && !problemIndices.empty() &&
               (i + 1) % options.duplicateEvery == 0) {
      const std::size_t pick = problemIndices[std::uniform_int_distribution<
          std::size_t>(0, problemIndices.size() - 1)(rng)];
      request = stream[pick];
      request.id = i + 1;
    } else {
      const relb::re::Problem p =
          relb::gen::randomProblem(rng, problemOptions);
      request.kind = Request::Kind::kProblem;
      request.nodeSpec = toSpec(p.node.render(p.alphabet));
      request.edgeSpec = toSpec(p.edge.render(p.alphabet));
      request.maxSteps = options.maxSteps;
      problemIndices.push_back(stream.size());
    }
    stream.push_back(std::move(request));
  }

  // Round-robin partition over the client connections; every thread speaks
  // its own connection, sequentially.
  const int clients = std::max(1, options.clients);
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto begin = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      try {
        Client client = connect(options);
        for (std::size_t i = static_cast<std::size_t>(c);
             i < stream.size(); i += static_cast<std::size_t>(clients)) {
          const auto sent = std::chrono::steady_clock::now();
          const Response response = client.roundTrip(stream[i]);
          const auto got = std::chrono::steady_clock::now();
          tally.latencyMicros.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(got -
                                                                    sent)
                  .count());
          switch (response.code) {
            case StatusCode::kOk: ++tally.ok; break;
            case StatusCode::kFailed: ++tally.failed; break;
            case StatusCode::kRejected: ++tally.rejected; break;
            case StatusCode::kDeadlineExpired: ++tally.expired; break;
            default: ++tally.other; break;
          }
          if (response.stats.has_value()) {
            tally.hits += response.stats->totalHits();
            tally.misses += response.stats->totalMisses();
            tally.writes += response.stats->storeWrites;
          }
        }
      } catch (const relb::re::Error& e) {
        // A dead connection invalidates this lane's remaining requests;
        // they are reported as 'other'.
        std::cerr << "relb_loadgen: client " << c << ": " << e.what()
                  << "\n";
        ++tally.other;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  Tally total;
  for (const Tally& tally : tallies) {
    total.ok += tally.ok;
    total.failed += tally.failed;
    total.rejected += tally.rejected;
    total.expired += tally.expired;
    total.other += tally.other;
    total.hits += tally.hits;
    total.misses += tally.misses;
    total.writes += tally.writes;
    total.latencyMicros.insert(total.latencyMicros.end(),
                               tally.latencyMicros.begin(),
                               tally.latencyMicros.end());
  }
  std::sort(total.latencyMicros.begin(), total.latencyMicros.end());
  const auto percentile = [&](double p) -> std::int64_t {
    if (total.latencyMicros.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(total.latencyMicros.size() - 1));
    return total.latencyMicros[rank];
  };
  const std::int64_t elapsedMillis =
      std::chrono::duration_cast<std::chrono::milliseconds>(end - begin)
          .count();
  const double seconds =
      static_cast<double>(std::max<std::int64_t>(elapsedMillis, 1)) / 1000.0;

  std::cout << "loadgen: " << stream.size() << " requests over " << clients
            << " connections in " << elapsedMillis << " ms ("
            << static_cast<std::int64_t>(
                   static_cast<double>(stream.size()) / seconds)
            << " req/s)\n";
  std::cout << "status: " << total.ok << " ok, " << total.failed
            << " failed, " << total.rejected << " rejected, " << total.expired
            << " expired, " << total.other << " other\n";
  std::cout << "latency: p50 " << percentile(0.50) << " us, p90 "
            << percentile(0.90) << " us, p99 " << percentile(0.99)
            << " us, max " << percentile(1.0) << " us\n";
  const std::int64_t lookups = total.hits + total.misses;
  std::cout << "cache: " << total.hits << " hits / " << total.misses
            << " misses / " << total.writes << " writes (hit rate "
            << (lookups == 0
                    ? 0
                    : (100 * total.hits + lookups / 2) / lookups)
            << "%)\n";
  // The stream is fully deterministic, so 'other' is always a bug --
  // either here or in the server.
  return total.other == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool haveEndpoint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "relb_loadgen: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers are read whole: a trailing character, a sign on an unsigned
    // flag or an out-of-range value is a bad value, and so is a negative
    // count or deadline.
    const auto number = [&](auto& dest) {
      if (!relb::util::parseNumber(value(), dest)) {
        throw std::invalid_argument(arg);
      }
    };
    const auto count = [&](auto& dest) {
      number(dest);
      if (std::cmp_less(dest, 0)) throw std::invalid_argument(arg);
    };
    try {
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--host") {
        options.host = value();
        haveEndpoint = true;
      } else if (arg == "--port") {
        std::uint16_t port = 0;
        number(port);
        options.port = port;
        haveEndpoint = true;
      } else if (arg == "--unix") {
        options.unixPath = value();
        haveEndpoint = true;
      } else if (arg == "--requests") {
        count(options.requests);
      } else if (arg == "--clients") {
        count(options.clients);
      } else if (arg == "--seed") {
        count(options.seed);
      } else if (arg == "--max-steps") {
        count(options.maxSteps);
      } else if (arg == "--chain-every") {
        count(options.chainEvery);
      } else if (arg == "--duplicate-every") {
        count(options.duplicateEvery);
      } else if (arg == "--family-every") {
        count(options.familyEvery);
      } else if (arg == "--deadline-ms") {
        count(options.deadlineMs);
      } else if (arg == "--chain") {
        count(options.chainDelta);  // negative would read as "no chain"
      } else if (arg == "--x0") {
        number(options.chainX0);
      } else if (arg == "--cert-out") {
        options.certOut = value();
      } else if (arg == "--node") {
        options.nodeSpec = value();
      } else if (arg == "--edge") {
        options.edgeSpec = value();
      } else {
        std::cerr << "relb_loadgen: unknown flag '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    } catch (const std::exception&) {
      std::cerr << "relb_loadgen: bad value for " << arg << "\n";
      return 2;
    }
  }
  if (!haveEndpoint) {
    std::cerr << "relb_loadgen: need --unix PATH or --host/--port\n";
    return usage(std::cerr, 2);
  }
  if (options.nodeSpec.empty() != options.edgeSpec.empty()) {
    std::cerr << "relb_loadgen: --node and --edge go together\n";
    return usage(std::cerr, 2);
  }
  try {
    return options.chainDelta >= 0 || !options.nodeSpec.empty()
               ? runSingleShot(options)
               : runLoad(options);
  } catch (const relb::re::Error& e) {
    std::cerr << "relb_loadgen: " << e.what() << "\n";
    return 1;
  }
}
