// perfbench_harness: the traced half of the relb benchmark.
//
// Calls the program's public functions in the order its binaries call them,
// with a span around every call, and prints one JSON object with the spans,
// counters and correctness checks.  perfbench/lib/traced.py folds the spans
// into per-layer metrics.  The spans are the benchmark's own: they are kept
// in memory and written out when the command ends.
//
//   perfbench_harness derive   --jobs FILE [--only NAME] --work DIR --threads N
//                              [--no-spans]
//   perfbench_harness warm     --requests FILE --repeats K
//   perfbench_harness ping     --unix PATH --count N
//   perfbench_harness localsim --seed S --nodes N --threads N [--no-spans]
//
// `derive` mirrors driver::run over one EngineSession per job: a cold pass
// against a fresh step store, a warm pass that reads it back, then a
// certificate re-verification.  `warm` times driver::run and autoLowerBound
// over one warm EngineCore, as the service daemon runs them.  `ping` times
// service round trips on a live daemon.  `localsim` mirrors runSim for the
// random-tree MIS -> 0-outdegree dominating set run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sequence.hpp"
#include "driver/driver.hpp"
#include "family/builtin.hpp"
#include "family/derive.hpp"
#include "io/certificate.hpp"
#include "io/verify.hpp"
#include "local/families.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "re/autobound.hpp"
#include "re/diagram.hpp"
#include "re/engine.hpp"
#include "re/problem.hpp"
#include "re/zero_round.hpp"
#include "serve/client.hpp"
#include "store/step_store.hpp"

namespace fs = std::filesystem;
using namespace relb;

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// In-memory span log.  Spans from pool workers (store calls issued inside
// fanned-out engine sections) are kept with main = false.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  struct Span {
    std::string name;
    bool main = true;
    double startMs = 0;
    double endMs = 0;
  };

  class Scope {
   public:
    Scope(Recorder& rec, std::string name)
        : rec_(rec), name_(std::move(name)), start_(rec.enabled_ ? nowMs() : 0) {}
    ~Scope() {
      if (rec_.enabled_) rec_.add(std::move(name_), start_, nowMs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    std::string name_;
    double start_;
  };

  void add(std::string name, double start, double end) {
    const bool main = std::this_thread::get_id() == mainThread_;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), main, start, end});
  }

  [[nodiscard]] std::string toJson() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "[" + jsonString(s.name) + "," + (s.main ? "1" : "0") + "," +
             num(s.startMs) + "," + num(s.endMs) + "]";
    }
    return out + "]";
  }

 private:
  const bool enabled_;
  const std::thread::id mainThread_ = std::this_thread::get_id();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Forwards to the on-disk store with a span around every read and write.
class TimedStore final : public re::StepStorage {
 public:
  TimedStore(std::shared_ptr<store::DiskStepStore> inner, Recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::optional<re::StepResult> loadStep(int kind, const re::Problem& input,
                                         std::uint64_t hash,
                                         const re::StepOptions& options) override {
    const Recorder::Scope span(rec_, "store.read");
    return inner_->loadStep(kind, input, hash, options);
  }
  void storeStep(int kind, const re::Problem& input, std::uint64_t hash,
                 const re::StepOptions& options,
                 const re::StepResult& result) override {
    const Recorder::Scope span(rec_, "store.write");
    inner_->storeStep(kind, input, hash, options, result);
  }
  std::optional<bool> loadZeroRound(re::ZeroRoundMode mode,
                                    const re::Problem& input,
                                    std::uint64_t hash) override {
    const Recorder::Scope span(rec_, "store.read");
    return inner_->loadZeroRound(mode, input, hash);
  }
  void storeZeroRound(re::ZeroRoundMode mode, const re::Problem& input,
                      std::uint64_t hash, bool solvable) override {
    const Recorder::Scope span(rec_, "store.write");
    inner_->storeZeroRound(mode, input, hash, solvable);
  }

 private:
  std::shared_ptr<store::DiskStepStore> inner_;
  Recorder& rec_;
};

std::vector<std::vector<std::string>> readTabLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw re::Error("cannot read " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, '\t')) fields.push_back(field);
    rows.push_back(std::move(fields));
  }
  return rows;
}

std::string splitLines(std::string spec) {
  for (char& ch : spec) {
    if (ch == ';') ch = '\n';
  }
  return spec;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uintmax_t treeBytes(const fs::path& root) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

const char* kCounters[] = {"re.rbar.candidates", "re.antichain.tests",
                           "pool.batches", "pool.items"};

// ---------------------------------------------------------------------------
// derive
// ---------------------------------------------------------------------------

struct JobOutcome {
  std::string certBytes;
  std::optional<int> bound;
  std::optional<re::Count> published;
};

// One derivation over a fresh session, against the store at `storeDir`.
// Same call sequence driver::run makes for the job's mode.
JobOutcome runJob(const std::vector<std::string>& job, const fs::path& storeDir,
                  const fs::path& certPath, int threads, Recorder& rec,
                  re::CacheStats& stats) {
  const std::string& kind = job.at(1);
  JobOutcome out;

  std::shared_ptr<TimedStore> timed;
  {
    const Recorder::Scope span(rec, "store.open");
    timed = std::make_shared<TimedStore>(
        std::make_shared<store::DiskStepStore>(storeDir), rec);
  }
  re::PassOptions options;
  options.numThreads = threads;
  auto core = std::make_shared<re::EngineCore>();
  re::EngineSession session(core, options);
  session.attachStore(timed);

  io::Certificate cert;
  const auto save = [&] {
    {
      const Recorder::Scope span(rec, "io.cert_encode");
      io::saveCertificate(certPath, cert);
    }
    const Recorder::Scope span(rec, "bench.check");
    out.certBytes = readFile(certPath);
  };
  if (kind == "family") {
    family::FamilyDef def;
    family::Env params;
    re::Problem problem;
    {
      const Recorder::Scope span(rec, "family.instantiate");
      auto builtin = family::findBuiltin(job.at(2));
      if (!builtin) throw re::Error("unknown family " + job.at(2));
      def = std::move(*builtin);
      params = family::resolveParams(def, {});
      problem = family::instantiate(def, params);
      out.published = family::publishedBound(def, params);
    }
    const family::DeriveOptions derive;
    {
      const Recorder::Scope span(rec, "re.autobound");
      re::AutoLowerBoundOptions lb;
      lb.maxSteps = derive.maxSteps;
      lb.maxLabels = derive.autoboundMaxLabels;
      lb.context = &session;
      out.bound = re::autoLowerBound(problem, lb).rounds;
    }
    {
      const Recorder::Scope span(rec, "core.certify");
      cert = family::buildTraceCertificate(problem, session, derive.maxSteps,
                                           derive.traceMaxLabels);
      family::annotateCertificate(cert, def, params);
    }
    save();
  } else if (kind == "problem") {
    const int maxSteps = std::stoi(job.at(4));
    re::Problem p;
    {
      const Recorder::Scope span(rec, "re.analyze");
      p = re::Problem::parse(splitLines(job.at(2)), splitLines(job.at(3)));
      (void)re::computeStrength(p.edge, p.alphabet.size());
      try {
        (void)re::computeStrengthScalable(p.node, p.alphabet.size());
      } catch (const re::Error&) {
      }
      (void)re::zeroRoundSolvableSymmetricPorts(p);
      (void)re::zeroRoundSolvableAdversarialPorts(p);
      (void)re::zeroRoundSolvableWithEdgeInputs(p);
    }
    {
      const Recorder::Scope span(rec, "re.iterate");
      re::IterateOptions it;
      it.maxSteps = maxSteps;
      it.maxLabels = 16;
      it.stepOptions.numThreads = threads;
      it.context = &session;
      (void)re::iterateSpeedup(p, it);
    }
    {
      const Recorder::Scope span(rec, "core.certify");
      cert = family::buildTraceCertificate(p, session, maxSteps, 16);
    }
    save();
    {
      const Recorder::Scope span(rec, "re.autobound");
      re::AutoLowerBoundOptions lb;
      lb.maxSteps = maxSteps;
      lb.maxLabels = 10;
      lb.stepOptions.numThreads = threads;
      lb.context = &session;
      try {
        out.bound = re::autoLowerBound(p, lb).rounds;
      } catch (const re::Error&) {
      }
    }
  } else if (kind == "chain") {
    {
      const Recorder::Scope span(rec, "core.certify");
      const core::Chain chain = core::exactChain(std::stol(job.at(2)), 1);
      cert = core::buildChainCertificate(chain, &session, threads);
    }
    save();
  } else {
    throw re::Error("unknown job kind " + kind);
  }
  const re::CacheStats s = session.stats();
  stats.stepMisses += s.stepMisses;
  stats.zeroRoundHits += s.zeroRoundHits;
  stats.zeroRoundMisses += s.zeroRoundMisses;
  stats.storeWrites += s.storeWrites;
  return out;
}

int cmdDerive(const std::string& jobsPath, const std::string& only,
              const fs::path& work, int threads, bool spans) {
  auto jobs = readTabLines(jobsPath);
  if (!only.empty()) {
    std::erase_if(jobs, [&](const auto& job) { return job.at(0) != only; });
    if (jobs.empty()) throw re::Error("no job named " + only);
  }
  Recorder rec(spans);
  re::CacheStats stats;
  std::vector<std::string> failures;
  std::uintmax_t storeBytes = 0;
  const auto before = obs::Registry::global().snapshot();

  const double start = nowMs();
  for (const auto& job : jobs) {
    const fs::path dir = work / job.at(0);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path storeDir = dir / "store";
    const fs::path coldCert = dir / "cold.json";
    const fs::path warmCert = dir / "warm.json";
    try {
      const JobOutcome cold = runJob(job, storeDir, coldCert, threads, rec, stats);
      const JobOutcome warm = runJob(job, storeDir, warmCert, threads, rec, stats);
      bool verified = false;
      {
        const Recorder::Scope span(rec, "io.cert_verify");
        verified = io::verifyCertificate(io::loadCertificate(warmCert)).ok;
      }
      const Recorder::Scope span(rec, "bench.check");
      storeBytes += treeBytes(storeDir);
      if (cold.certBytes != warm.certBytes) {
        failures.push_back(job[0] + ": cold and warm certificates differ");
      }
      if (!verified) failures.push_back(job[0] + ": certificate does not verify");
      if (cold.published && (!cold.bound || *cold.bound < *cold.published)) {
        failures.push_back(job[0] + ": derived bound below the published bound");
      }
    } catch (const std::exception& e) {
      failures.push_back(job[0] + ": " + e.what());
    }
  }
  const double end = nowMs();

  const auto after = obs::Registry::global().snapshot();
  std::ostringstream out;
  out << "{\"threads\":" << threads << ",\"wall_ms\":" << num(end - start)
      << ",\"counters\":{";
  for (const char* name : kCounters) {
    out << jsonString(name) << ":"
        << (after.counterValue(name) - before.counterValue(name)) << ",";
  }
  out << "\"engine.step_misses\":" << stats.stepMisses
      << ",\"engine.zero_round_lookups\":"
      << (stats.zeroRoundHits + stats.zeroRoundMisses)
      << ",\"store.writes\":" << stats.storeWrites
      << ",\"store.bytes\":" << storeBytes << "},\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i > 0 ? "," : "") << jsonString(failures[i]);
  }
  out << "],\"spans\":" << rec.toJson() << "}\n";
  std::cout << out.str();
  return 0;
}

// ---------------------------------------------------------------------------
// warm: driver::run and autoLowerBound over one warm core
// ---------------------------------------------------------------------------

int cmdWarm(const std::string& requestsPath, int repeats) {
  const auto requests = readTabLines(requestsPath);
  auto core = std::make_shared<re::EngineCore>();
  std::ostringstream out;
  out << "{\"requests\":[";
  bool firstRequest = true;
  for (const auto& r : requests) {
    driver::RunRequest run;
    run.numThreads = util::kSerialNumThreads;  // as the daemon's lanes run it
    if (r.at(1) == "chain") {
      run.mode = driver::RunRequest::Mode::kChain;
      run.chainDelta = std::stol(r.at(2));
      run.captureCert = true;
    } else {
      run.mode = driver::RunRequest::Mode::kProblem;
      run.nodeSpec = r.at(2);
      run.edgeSpec = r.at(3);
      run.maxSteps = std::stoi(r.at(4));
    }
    const driver::RunResult first = driver::run(run, core);  // warms the core
    std::vector<double> runMs;
    std::vector<double> autoboundMs;
    bool identical = first.status == driver::RunStatus::kOk;
    for (int k = 0; k < repeats; ++k) {
      double t = nowMs();
      const driver::RunResult again = driver::run(run, core);
      runMs.push_back(nowMs() - t);
      identical = identical && again.output == first.output &&
                  again.certificateBytes == first.certificateBytes;
      if (run.mode != driver::RunRequest::Mode::kProblem) continue;
      re::PassOptions options;
      options.numThreads = util::kSerialNumThreads;
      re::EngineSession session(core, options);
      const re::Problem p =
          re::Problem::parse(splitLines(run.nodeSpec), splitLines(run.edgeSpec));
      re::AutoLowerBoundOptions lb;
      lb.maxSteps = run.maxSteps;
      lb.maxLabels = 10;
      lb.stepOptions.numThreads = util::kSerialNumThreads;
      lb.context = &session;
      t = nowMs();
      try {
        (void)re::autoLowerBound(p, lb);
      } catch (const re::Error&) {
      }
      autoboundMs.push_back(nowMs() - t);
    }
    out << (firstRequest ? "" : ",") << "{\"name\":" << jsonString(r.at(0))
        << ",\"identical\":" << (identical ? "true" : "false")
        << ",\"run_ms\":[";
    for (std::size_t i = 0; i < runMs.size(); ++i) {
      out << (i > 0 ? "," : "") << num(runMs[i]);
    }
    out << "],\"autobound_ms\":[";
    for (std::size_t i = 0; i < autoboundMs.size(); ++i) {
      out << (i > 0 ? "," : "") << num(autoboundMs[i]);
    }
    out << "]}";
    firstRequest = false;
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

// ---------------------------------------------------------------------------
// ping: service round trips on a live daemon
// ---------------------------------------------------------------------------

int cmdPing(const std::string& socketPath, int count) {
  serve::Client client = serve::Client::connectUnix(socketPath);
  serve::Request ping;
  ping.kind = serve::Request::Kind::kPing;
  std::ostringstream out;
  out << "{\"rtt_us\":[";
  for (int i = 0; i < count; ++i) {
    ping.id = i + 1;
    const double t = nowMs();
    const serve::Response r = client.roundTrip(ping);
    const double rtt = (nowMs() - t) * 1e3;
    if (!r.ok() || r.id != ping.id) throw re::Error("bad ping response");
    out << (i > 0 ? "," : "") << num(rtt);
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

// ---------------------------------------------------------------------------
// localsim
// ---------------------------------------------------------------------------

// Captures when the first Luby round span starts, which splits the time
// before round 0 from round 0 itself.
class FirstRoundSink final : public obs::TraceSink {
 public:
  void consume(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceEvent::Kind::kSpan &&
        event.name == "local.round.luby" &&
        (first_ < 0 || event.startMicros < first_)) {
      first_ = event.startMicros;
    }
  }
  [[nodiscard]] std::int64_t firstStartMicros() const { return first_; }

 private:
  std::int64_t first_ = -1;
};

std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

int cmdLocalsim(std::uint64_t seed, std::uint64_t nodes, int threads,
                bool spans) {
  Recorder rec(spans);
  std::vector<std::pair<std::uint64_t, double>> rounds;  // (active, end ms)
  const local::RoundHook hook = [&](int, std::uint64_t active) {
    rounds.emplace_back(active, nowMs());
  };

  const double start = nowMs();
  local::TreeInstance instance;
  {
    const Recorder::Scope span(rec, "local.make_tree");
    instance = local::makeTree(local::Family::kRandomTree, nodes, 0, seed);
  }
  const local::CsrGraph& g = instance.graph;
  local::MisRun mis;
  double lubyStart = 0;
  double firstRoundStart = -1;
  {
    auto sink = std::make_shared<FirstRoundSink>();
    obs::Tracer& tracer = obs::Tracer::global();
    if (spans) tracer.addSink(sink);
    const Recorder::Scope span(rec, "local.luby");
    lubyStart = nowMs();
    mis = local::lubyMis(g, seed, threads, hook);
    tracer.removeSink(sink.get());
    if (sink->firstStartMicros() >= 0) {
      firstRoundStart =
          (static_cast<double>(tracer.epochNanos()) +
           static_cast<double>(sink->firstStartMicros()) * 1e3) / 1e6;
    }
  }
  const std::size_t lubyRounds = rounds.size();
  local::DomsetRun domset;
  {
    const Recorder::Scope span(rec, "local.domset");
    domset = local::domsetFromMis(g, mis.state, threads, hook);
  }
  bool verified = false;
  {
    const Recorder::Scope span(rec, "local.verify");
    verified = local::csrIsZeroOutdegreeDominatingSet(g, domset.inSet,
                                                      domset.dominator, threads);
  }
  const double end = nowMs();

  // Outside the timed wall: the checksum and the CSR build re-timed on the
  // same parents.
  std::uint64_t checksum = fnv1a64(domset.inSet.data(), domset.inSet.size(),
                                   0xcbf29ce484222325ull);
  checksum = fnv1a64(domset.dominator.data(),
                     domset.dominator.size() * sizeof(local::Vertex), checksum);
  double csrMs = nowMs();
  const local::CsrGraph rebuilt = local::CsrGraph::fromParents(instance.parents);
  csrMs = nowMs() - csrMs;

  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(checksum));
  std::ostringstream out;
  out << "{\"wall_ms\":" << num(end - start) << ",\"threads\":" << util::resolveThreadCount(threads)
      << ",\"nodes\":" << g.numNodes() << ",\"half_edges\":" << g.numHalfEdges()
      << ",\"layout_bytes\":" << g.layoutBytes()
      << ",\"rebuilt_equal\":"
      << (rebuilt.numHalfEdges() == g.numHalfEdges() ? "true" : "false")
      << ",\"csr_build_ms\":" << num(csrMs) << ",\"luby_start_ms\":"
      << num(lubyStart) << ",\"first_round_start_ms\":" << num(firstRoundStart)
      << ",\"rounds\":[";
  for (std::size_t i = 0; i < lubyRounds; ++i) {
    out << (i > 0 ? "," : "") << "[" << rounds[i].first << ","
        << num(rounds[i].second) << "]";
  }
  out << "],\"mis_size\":" << mis.misSize << ",\"domset_size\":" << domset.setSize
      << ",\"verified\":" << (verified ? "true" : "false")
      << ",\"state_checksum\":\"" << hex << "\",\"spans\":" << rec.toJson()
      << "}\n";
  std::cout << out.str();
  return 0;
}

std::string flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

bool hasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 2; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness {derive|warm|ping|localsim} ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "derive") {
      return cmdDerive(flag(argc, argv, "--jobs"), flag(argc, argv, "--only"),
                       flag(argc, argv, "--work"),
                       std::stoi(flag(argc, argv, "--threads", "0")),
                       !hasFlag(argc, argv, "--no-spans"));
    }
    if (cmd == "warm") {
      return cmdWarm(flag(argc, argv, "--requests"),
                     std::stoi(flag(argc, argv, "--repeats", "3")));
    }
    if (cmd == "ping") {
      return cmdPing(flag(argc, argv, "--unix"),
                     std::stoi(flag(argc, argv, "--count", "200")));
    }
    if (cmd == "localsim") {
      return cmdLocalsim(std::stoull(flag(argc, argv, "--seed", "1")),
                         std::stoull(flag(argc, argv, "--nodes", "10000000")),
                         std::stoi(flag(argc, argv, "--threads", "0")),
                         !hasFlag(argc, argv, "--no-spans"));
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_harness: unknown command '" << cmd << "'\n";
  return 2;
}
