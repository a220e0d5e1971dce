// DiskStepStore: persistence across contexts, crash safety (a torn last
// pack line is skipped; truncated and corrupted records are quarantined and
// recomputed, never trusted), the zero-recomputation guarantee for
// warm-store runs, roots that mix objects/ files and a pack, concurrent
// appends to one pack, and the exact bytes of every entry tag.
#include "store/step_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "core/family.hpp"
#include "core/sequence.hpp"
#include "io/certificate.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "re/canonical.hpp"
#include "re/problem.hpp"
#include "re/re_step.hpp"

namespace relb::store {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<fs::path> objectFiles(const fs::path& root) {
  std::vector<fs::path> out;
  for (const auto& entry :
       fs::recursive_directory_iterator(root / "objects")) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string fileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// One pack line: its key "<hash16>.<tag>" and the entry body after it.
struct PackRecord {
  std::string key;
  std::string body;
};

std::vector<PackRecord> packRecords(const fs::path& root) {
  std::vector<PackRecord> out;
  std::istringstream in(fileBytes(root / "pack"));
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    out.push_back({line.substr(0, space), line.substr(space + 1)});
  }
  return out;
}

void writePackRecords(const fs::path& root,
                      const std::vector<PackRecord>& records) {
  std::ofstream out(root / "pack", std::ios::binary | std::ios::trunc);
  for (const PackRecord& r : records) out << r.key << ' ' << r.body << '\n';
}

// Replaces the body of the pack's last record -- the one a store reads for
// its key -- with `edit(body)`, bypassing the store on purpose.
void editLastRecord(const fs::path& root,
                    const std::function<std::string(std::string)>& edit) {
  std::vector<PackRecord> records = packRecords(root);
  ASSERT_FALSE(records.empty());
  records.back().body = edit(records.back().body);
  writePackRecords(root, records);
}

// Every record of `actual`'s pack, plus its newline, equals the objects/
// file of its key under `expected`, and each side has one per key.
void expectPackMatchesObjects(const fs::path& actual,
                              const fs::path& expected) {
  const std::vector<PackRecord> records = packRecords(actual);
  std::map<std::string, std::string> got;
  for (const PackRecord& r : records) got[r.key] = r.body + "\n";
  EXPECT_EQ(got.size(), records.size()) << "one record per key";
  std::map<std::string, std::string> want;
  for (const fs::path& file : objectFiles(expected)) {
    want[file.stem().string()] = fileBytes(file);
  }
  EXPECT_EQ(got, want);
}

// Loads the entry the objects/ file `file` holds through `store` (its key,
// guards and budgets come from the file's payload); if `copy` is given,
// stores what was loaded there.  Returns whether the load hit.
bool loadObjectFile(DiskStepStore& store, const fs::path& file,
                    DiskStepStore* copy = nullptr) {
  const io::Json payload = io::Json::parse(fileBytes(file)).at("payload");
  const re::Problem input = io::problemFromJson(payload.at("input"));
  const std::uint64_t hash = re::structuralHash(input);
  const std::string tag = file.stem().extension().string().substr(1);
  re::StepOptions options;
  if (const io::Json* delta = payload.find("max_rbar_delta")) {
    options.maxRbarDelta = delta->asInt();
    options.enumerationLimit =
        static_cast<std::size_t>(payload.at("enumeration_limit").asInt());
  }
  if (tag == "r" || tag == "rbar") {
    const int kind = tag == "r" ? 0 : 1;
    const auto result = store.loadStep(kind, input, hash, options);
    if (result && copy) copy->storeStep(kind, input, hash, options, *result);
    return result.has_value();
  }
  if (tag == "rref" || tag == "rbarref") {
    const int kind = tag == "rref" ? 0 : 1;
    const auto refusal = store.loadStepRefusal(kind, input, hash, options);
    if (refusal && copy) {
      copy->storeStepRefusal(kind, input, hash, options, *refusal);
    }
    return refusal.has_value();
  }
  if (tag == "ab") {
    re::AutoLowerBoundOptions search;
    search.maxSteps = static_cast<int>(payload.at("max_steps").asInt());
    search.maxLabels = static_cast<int>(payload.at("max_labels").asInt());
    const auto bound = store.loadAutoBound(input, hash, options, search);
    if (bound && copy) {
      copy->storeAutoBound(input, hash, options, search, *bound);
    }
    return bound.has_value();
  }
  const auto mode = static_cast<re::ZeroRoundMode>(payload.at("mode").asInt());
  const auto solvable = store.loadZeroRound(mode, input, hash);
  if (solvable && copy) copy->storeZeroRound(mode, input, hash, *solvable);
  return solvable.has_value();
}

TEST(DiskStepStore, InitializesLayoutAndRejectsForeignFormat) {
  const fs::path dir = freshDir("store-layout");
  {
    DiskStepStore store(dir);
    EXPECT_TRUE(fs::exists(dir / "FORMAT"));
    EXPECT_TRUE(fs::exists(dir / "pack"));
    EXPECT_EQ(store.objectCount(), 0u);
  }
  // Reopening an existing store is fine.
  DiskStepStore reopened(dir);
  // A root stamped by some other (future) version is refused.
  {
    std::ofstream out(dir / "FORMAT", std::ios::trunc);
    out << "relb-store 999\n";
  }
  EXPECT_THROW(DiskStepStore bad(dir), re::Error);
}

TEST(DiskStepStore, StepResultsPersistAcrossContexts) {
  const fs::path dir = freshDir("store-persist");
  const re::Problem p = re::misProblem(3);

  re::StepResult coldR, coldRbar;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    coldR = ctx.applyR(p);
    coldRbar = ctx.applyRbar(coldR.problem);
    const auto stats = ctx.stats();
    EXPECT_EQ(stats.stepMisses, 2u);
    EXPECT_EQ(stats.storeHits, 0u);
    EXPECT_EQ(stats.storeWrites, 2u);
  }

  // A brand-new context with the same store recomputes nothing.
  re::EngineSession warm;
  auto store = std::make_shared<DiskStepStore>(dir);
  warm.attachStore(store);
  const re::StepResult warmR = warm.applyR(p);
  const re::StepResult warmRbar = warm.applyRbar(warmR.problem);
  EXPECT_EQ(warmR.problem, coldR.problem);
  EXPECT_EQ(warmR.meaning, coldR.meaning);
  EXPECT_EQ(warmRbar.problem, coldRbar.problem);
  EXPECT_EQ(warmRbar.meaning, coldRbar.meaning);
  const auto stats = warm.stats();
  EXPECT_EQ(stats.stepMisses, 0u) << "warm store must recompute nothing";
  EXPECT_EQ(stats.storeHits, 2u);
  EXPECT_EQ(store->stats().hits, 2u);

  // Second lookup in the same context is served by the in-memory memo, not
  // the disk.
  (void)warm.applyR(p);
  EXPECT_EQ(warm.stats().storeHits, 2u);
  EXPECT_EQ(warm.stats().stepHits, 1u);
}

TEST(DiskStepStore, WarmChainCertificationRecomputesNothing) {
  const fs::path dir = freshDir("store-chain");
  const core::Chain chain = core::exactChain(32, 1);
  std::string coldBytes, warmBytes;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    const auto cert = core::buildChainCertificate(chain, ctx);
    coldBytes = io::certificateToJson(cert).dumpPretty();
    EXPECT_GT(ctx.stats().zeroRoundMisses, 0u);
  }
  {
    // The warm run is also observable through the global counter registry:
    // every step is served by the store (store.hit ticks once per step,
    // store.miss not at all).  Asserted on snapshot deltas, not stdout.
    const auto before = obs::Registry::global().snapshot();
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    const auto cert = core::buildChainCertificate(chain, ctx);
    warmBytes = io::certificateToJson(cert).dumpPretty();
    EXPECT_EQ(ctx.stats().zeroRoundMisses, 0u);
    EXPECT_EQ(ctx.stats().stepMisses, 0u);
    EXPECT_EQ(ctx.stats().storeHits, chain.steps.size());
    const auto after = obs::Registry::global().snapshot();
    EXPECT_EQ(after.counterValue("store.hit") -
                  before.counterValue("store.hit"),
              chain.steps.size());
    EXPECT_EQ(after.counterValue("store.miss"),
              before.counterValue("store.miss"));
    EXPECT_EQ(after.counterValue("store.write"),
              before.counterValue("store.write"));
  }
  EXPECT_EQ(coldBytes, warmBytes) << "certificates must be bit-identical "
                                     "between cold- and warm-store runs";
}

TEST(DiskStepStore, TruncatedEntryIsQuarantinedAndRecomputed) {
  const fs::path dir = freshDir("store-truncate");
  const re::Problem p = re::misProblem(3);
  re::StepResult expected;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    expected = ctx.applyR(p);
  }
  // A record whose entry was cut in half but whose line is complete.
  ASSERT_EQ(packRecords(dir).size(), 1u);
  editLastRecord(dir, [](const std::string& body) {
    return body.substr(0, body.size() / 2);
  });

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  const re::StepResult recomputed = ctx.applyR(p);
  EXPECT_EQ(recomputed.problem, expected.problem);
  EXPECT_EQ(recomputed.meaning, expected.meaning);
  EXPECT_EQ(store->stats().quarantined, 1u);
  EXPECT_EQ(ctx.stats().stepMisses, 1u);  // recomputed, not trusted
  EXPECT_FALSE(fs::is_empty(dir / "quarantine"));
  // The recomputation was written back: a third context gets a clean hit.
  re::EngineSession again;
  again.attachStore(std::make_shared<DiskStepStore>(dir));
  (void)again.applyR(p);
  EXPECT_EQ(again.stats().storeHits, 1u);
  EXPECT_EQ(again.stats().stepMisses, 0u);
}

TEST(DiskStepStore, RepeatedCorruptionKeepsEveryQuarantinedCopy) {
  // Corrupt one entry, let a run quarantine and rewrite it, corrupt it
  // again: both corrupt copies stay under quarantine/, numbered in order.
  const fs::path dir = freshDir("store-requarantine");
  const re::Problem p = re::misProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.applyR(p);
  }
  const auto records = packRecords(dir);
  ASSERT_EQ(records.size(), 1u);
  for (const char* garbage : {"garbage1", "garbage2"}) {
    editLastRecord(dir, [&](const std::string&) { return garbage; });
    auto store = std::make_shared<DiskStepStore>(dir);
    re::EngineSession ctx;
    ctx.attachStore(store);
    (void)ctx.applyR(p);
    EXPECT_EQ(store->stats().quarantined, 1u);
  }
  const std::string name = records[0].key + ".json";
  EXPECT_EQ(fileBytes(dir / "quarantine" / (name + ".1")), "garbage1");
  EXPECT_EQ(fileBytes(dir / "quarantine" / (name + ".2")), "garbage2");
  EXPECT_EQ(std::distance(fs::directory_iterator(dir / "quarantine"),
                          fs::directory_iterator()),
            2);
}

TEST(DiskStepStore, ChecksumMismatchIsQuarantined) {
  const fs::path dir = freshDir("store-corrupt");
  const re::Problem p = re::sinklessOrientationProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  }
  ASSERT_EQ(packRecords(dir).size(), 1u);
  // Flip the verdict inside the payload; the checksum no longer matches.
  editLastRecord(dir, [](std::string text) {
    const auto pos = text.find("\"solvable\":false");
    EXPECT_NE(pos, std::string::npos) << text;
    return text.replace(pos, 16, "\"solvable\":true ");
  });

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  EXPECT_FALSE(ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts))
      << "tampered verdict must not be believed";
  EXPECT_EQ(store->stats().quarantined, 1u);
}

TEST(DiskStepStore, DistinctZeroRoundModesDoNotCollide) {
  const fs::path dir = freshDir("store-modes");
  const re::Problem p = re::misProblem(3);
  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kAdversarialPorts);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kWithEdgeInputs);
  EXPECT_EQ(store->objectCount(), 3u);
}

// A step refused by an engine guard: the R-bar degree guard trips at once
// for Delta = 3 when maxRbarDelta is 2.
re::StepOptions tightOptions() {
  re::StepOptions options;
  options.maxRbarDelta = 2;
  return options;
}

std::string refusalOf(re::EngineSession& session, const re::Problem& p) {
  try {
    (void)session.applyRbar(p);
  } catch (const re::Error& e) {
    return e.what();
  }
  return "(no refusal)";
}

TEST(DiskStepStore, RefusalsPersistAcrossContexts) {
  const fs::path dir = freshDir("store-refusal");
  const re::Problem p = re::misProblem(3);
  std::string cold;
  {
    re::EngineSession session(nullptr, tightOptions());
    session.attachStore(std::make_shared<DiskStepStore>(dir));
    cold = refusalOf(session, p);
    EXPECT_EQ(session.stats().stepMisses, 1u);
    EXPECT_EQ(session.stats().storeWrites, 1u);
  }
  ASSERT_NE(cold, "(no refusal)");
  const auto records = packRecords(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key.substr(16), ".rbarref");

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession warm(nullptr, tightOptions());
  warm.attachStore(store);
  EXPECT_EQ(refusalOf(warm, p), cold);
  EXPECT_EQ(warm.stats().stepMisses, 0u) << "a stored refusal is a hit";
  EXPECT_EQ(warm.stats().storeHits, 1u);
  EXPECT_EQ(warm.stats().storeMisses, 0u);
  EXPECT_EQ(store->stats().hits, 1u);
  EXPECT_EQ(store->stats().misses, 0u);

  // Other guards do not replay the refusal: the step is computed and
  // written as an ordinary R-bar entry next to it.
  re::EngineSession roomy;
  roomy.attachStore(store);
  EXPECT_EQ(roomy.applyRbar(p).problem, re::applyRbar(p).problem);
  EXPECT_EQ(roomy.stats().stepMisses, 1u);
  EXPECT_EQ(store->objectCount(), 2u);
}

TEST(DiskStepStore, CorruptedRefusalIsQuarantinedAndRecomputed) {
  const fs::path dir = freshDir("store-refusal-corrupt");
  const re::Problem p = re::misProblem(3);
  std::string cold;
  {
    re::EngineSession session(nullptr, tightOptions());
    session.attachStore(std::make_shared<DiskStepStore>(dir));
    cold = refusalOf(session, p);
  }
  ASSERT_EQ(packRecords(dir).size(), 1u);
  editLastRecord(dir, [](std::string text) {
    const auto pos = text.find("node degree");
    EXPECT_NE(pos, std::string::npos) << text;
    return text.replace(pos, 4, "edge");
  });

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession session(nullptr, tightOptions());
  session.attachStore(store);
  EXPECT_EQ(refusalOf(session, p), cold) << "tampered text must not replay";
  EXPECT_EQ(store->stats().quarantined, 1u);
  EXPECT_EQ(session.stats().stepMisses, 1u);  // recomputed, not trusted
  EXPECT_EQ(session.stats().storeWrites, 1u);
  EXPECT_FALSE(fs::is_empty(dir / "quarantine"));
}

TEST(DiskStepStore, PiChainRefusesTheThirtyLabelRbarStep) {
  // The pi family's derivation: Pi_4(2, 0) -> R -> Rbar -> R reaches 30
  // labels.  R-bar's universe guard refuses the step before any strength
  // relation is computed; the refusal is what the store keeps for that
  // step.
  const fs::path dir = freshDir("store-pi-refusal");
  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession session;
  session.attachStore(store);
  const re::Problem q = session
                            .applyR(session.applyRbar(
                                session.applyR(core::familyProblem(4, 2, 0))
                                    .problem)
                                .problem)
                            .problem;
  ASSERT_EQ(q.alphabet.size(), 30);
  const std::size_t strengthMisses = session.stats().strengthMisses;
  EXPECT_EQ(refusalOf(session, q), "allRightClosedSets: universe too large");
  EXPECT_EQ(session.stats().strengthMisses, strengthMisses);
  EXPECT_EQ(store->loadStepRefusal(1, q, re::structuralHash(q),
                                   re::StepOptions{}),
            "allRightClosedSets: universe too large");
}

TEST(DiskStepStore, V1EntriesAreRestoredByteForByte) {
  // Read each committed v1 entry back through the store and write it into a
  // fresh root: the r, rbar, zr1 and zr2 entry bytes must not move (a pack
  // record's body is what the v1 file held, minus its newline).
  const fs::path v1 = freshDir("store-pin-v1");
  fs::copy(fs::path(RELB_TEST_DATA_DIR) / "store_v1_mis3", v1,
           fs::copy_options::recursive);
  const fs::path dir = freshDir("store-pin-restore");
  DiskStepStore source(v1);
  DiskStepStore fresh(dir);
  for (const fs::path& file : objectFiles(v1)) {
    EXPECT_TRUE(loadObjectFile(source, file, &fresh)) << file;
  }
  EXPECT_EQ(source.stats().hits, 4u);
  EXPECT_EQ(fresh.stats().writes, 4u);
  expectPackMatchesObjects(dir, v1);
}

// The autobound search budgets of the pinned `ab` entry.
re::AutoLowerBoundOptions pinnedSearch() {
  re::AutoLowerBoundOptions search;
  search.maxSteps = 3;
  search.maxLabels = 10;
  return search;
}

TEST(DiskStepStore, RefusalAndZeroRoundEntryBytesArePinned) {
  // The tags the v1 store lacks, written from fixed inputs and compared
  // with tests/data/store_entries; then every pinned entry loads back.
  const fs::path dir = freshDir("store-pin-tags");
  DiskStepStore store(dir);
  const re::Problem mis = re::misProblem(3);
  const re::Problem sinkless = re::sinklessOrientationProblem(3);
  store.storeStepRefusal(0, mis, re::structuralHash(mis), re::StepOptions{},
                         "applyR: empty edge constraint after maximization");
  store.storeStepRefusal(
      1, mis, re::structuralHash(mis), tightOptions(),
      "applyRbar: node degree too large for exact maximization");
  store.storeZeroRound(re::ZeroRoundMode::kSymmetricPorts, sinkless,
                       re::structuralHash(sinkless), false);
  // MIS at Delta = 3 under the pinned budgets, as the search finds it.
  store.storeAutoBound(mis, re::structuralHash(mis), re::StepOptions{},
                       pinnedSearch(),
                       {3, {3, 6, 10}, re::StopReason::kEngineLimit});
  EXPECT_EQ(store.stats().writes, 4u);
  const fs::path pinned = fs::path(RELB_TEST_DATA_DIR) / "store_entries";
  expectPackMatchesObjects(dir, pinned);

  const fs::path copy = freshDir("store-pin-tags-load");
  fs::copy(pinned, copy, fs::copy_options::recursive);
  DiskStepStore reader(copy);
  for (const fs::path& file : objectFiles(copy)) {
    EXPECT_TRUE(loadObjectFile(reader, file)) << file;
  }
  EXPECT_EQ(reader.stats().hits, 4u);
  EXPECT_EQ(reader.stats().quarantined, 0u);
}

// An autobound search over `store` in a fresh core under the pinned
// budgets; `stats` receives the session's stats.
re::AutoLowerBound boundThrough(const std::shared_ptr<re::StepStorage>& store,
                                re::CacheStats* stats = nullptr) {
  re::EngineSession session;
  session.attachStore(store);
  const re::AutoLowerBound bound =
      session.autoLowerBound(re::misProblem(3), pinnedSearch());
  if (stats != nullptr) *stats = session.stats();
  return bound;
}

void expectSameBound(const re::AutoLowerBound& a, const re::AutoLowerBound& b,
                     const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.labelsPerStep, b.labelsPerStep) << what;
  EXPECT_EQ(a.reason, b.reason) << what;
}

TEST(DiskStepStore, AutoBoundPersistsAcrossProcesses) {
  const fs::path dir = freshDir("store-autobound");
  re::CacheStats cold;
  const re::AutoLowerBound first =
      boundThrough(std::make_shared<DiskStepStore>(dir), &cold);
  EXPECT_EQ(cold.autoboundMisses, 1u);
  ASSERT_EQ(packRecords(dir).back().key.substr(16), ".ab")
      << "the bound is written after the search's own entries";

  auto store = std::make_shared<DiskStepStore>(dir);
  re::CacheStats warm;
  expectSameBound(boundThrough(store, &warm), first, "warm");
  EXPECT_EQ(warm.autoboundMisses, 0u) << "a store hit is not a miss";
  EXPECT_EQ(warm.autoboundHits, 0u);
  EXPECT_EQ(warm.storeHits, 1u) << "the search does not run";
  EXPECT_EQ(warm.storeMisses, 0u);
  EXPECT_EQ(warm.stepMisses + warm.stepHits, 0u);
  EXPECT_EQ(warm.zeroRoundMisses + warm.zeroRoundHits, 0u);
  EXPECT_EQ(store->stats().hits, 1u);
}

TEST(DiskStepStore, AutoBoundUnderOtherGuardsOrBudgetsIsAMiss) {
  const fs::path dir = freshDir("store-autobound-key");
  const re::Problem mis = re::misProblem(3);
  const std::uint64_t hash = re::structuralHash(mis);
  const re::AutoLowerBound bound{2, {3, 10, 10}, re::StopReason::kStepLimit};
  DiskStepStore store(dir);
  store.storeAutoBound(mis, hash, re::StepOptions{}, pinnedSearch(), bound);
  ASSERT_TRUE(
      store.loadAutoBound(mis, hash, re::StepOptions{}, pinnedSearch()));

  struct Variant {
    const char* field;
    re::StepOptions options;
    re::AutoLowerBoundOptions search;
  };
  std::vector<Variant> variants(4, {"", {}, pinnedSearch()});
  variants[0].field = "max_steps";
  variants[0].search.maxSteps += 1;
  variants[1].field = "max_labels";
  variants[1].search.maxLabels -= 1;
  variants[2].field = "max_rbar_delta";
  variants[2].options.maxRbarDelta -= 1;
  variants[3].field = "enumeration_limit";
  variants[3].options.enumerationLimit += 1;
  for (const Variant& v : variants) {
    EXPECT_FALSE(store.loadAutoBound(mis, hash, v.options, v.search))
        << v.field;
  }
  EXPECT_EQ(store.stats().misses, 4u);
  EXPECT_EQ(store.stats().quarantined, 0u);
  EXPECT_FALSE(fs::exists(dir / "quarantine"));
  // Nothing was dropped: the entry still answers its own key.
  EXPECT_TRUE(
      store.loadAutoBound(mis, hash, re::StepOptions{}, pinnedSearch()));
}

// Rewrites the payload of an entry body with `edit` and seals it again with
// a matching checksum, so only the value decoder can reject it.
std::string resealed(const std::string& body,
                     const std::function<std::string(std::string)>& edit) {
  const std::string payload =
      edit(io::Json::parse(body).at("payload").dump());
  return R"({"format":"relb-store-entry","version":1,"payload":)" + payload +
         R"(,"checksum":")" + io::fnv1a64Hex(payload) + R"("})";
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from << " in " << text;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(DiskStepStore, CorruptAutoBoundIsQuarantinedAndRecomputed) {
  const std::vector<std::pair<std::string,
                              std::function<std::string(std::string)>>>
      corruptions = {
          {"checksum",
           [](std::string body) {
             return replaced(body, R"("rounds":)", R"("rounds":1)");
           }},
          {"value type",
           [](std::string body) {
             return resealed(body, [](std::string payload) {
               return replaced(payload, R"("labels_per_step":[)",
                               R"("labels_per_step":["3",)");
             });
           }},
          {"reason",
           [](std::string body) {
             return resealed(body, [](std::string payload) {
               return replaced(payload, R"("reason":")",
                               R"("reason":"gave-up-)");
             });
           }},
      };
  for (const auto& [what, corrupt] : corruptions) {
    const fs::path dir = freshDir("store-autobound-corrupt");
    const re::AutoLowerBound cold =
        boundThrough(std::make_shared<DiskStepStore>(dir));
    ASSERT_EQ(packRecords(dir).back().key.substr(16), ".ab") << what;
    editLastRecord(dir, corrupt);

    auto store = std::make_shared<DiskStepStore>(dir);
    re::CacheStats warm;
    expectSameBound(boundThrough(store, &warm), cold, what);
    EXPECT_EQ(store->stats().quarantined, 1u) << what;
    EXPECT_EQ(warm.autoboundMisses, 1u) << what << ": recomputed";
    EXPECT_EQ(warm.stepMisses + warm.zeroRoundMisses, 0u)
        << what << ": the search runs over store hits";
    EXPECT_EQ(warm.storeWrites, 1u) << what;
    EXPECT_FALSE(fs::is_empty(dir / "quarantine")) << what;
  }
}

// A storage that implements only the pure virtuals, like a backend written
// before autobound results were persisted.
class StepsOnlyStore final : public re::StepStorage {
 public:
  explicit StepsOnlyStore(std::shared_ptr<DiskStepStore> inner)
      : inner_(std::move(inner)) {}
  std::optional<re::StepResult> loadStep(
      int kind, const re::Problem& input, std::uint64_t hash,
      const re::StepOptions& options) override {
    return inner_->loadStep(kind, input, hash, options);
  }
  void storeStep(int kind, const re::Problem& input, std::uint64_t hash,
                 const re::StepOptions& options,
                 const re::StepResult& result) override {
    inner_->storeStep(kind, input, hash, options, result);
  }
  std::optional<bool> loadZeroRound(re::ZeroRoundMode mode,
                                    const re::Problem& input,
                                    std::uint64_t hash) override {
    return inner_->loadZeroRound(mode, input, hash);
  }
  void storeZeroRound(re::ZeroRoundMode mode, const re::Problem& input,
                      std::uint64_t hash, bool solvable) override {
    inner_->storeZeroRound(mode, input, hash, solvable);
  }

 private:
  std::shared_ptr<DiskStepStore> inner_;
};

TEST(DiskStepStore, StorageWithoutAutoBoundsRecomputesTheBound) {
  const fs::path dir = freshDir("store-autobound-defaults");
  re::CacheStats coldStats;
  const re::AutoLowerBound cold = boundThrough(
      std::make_shared<StepsOnlyStore>(std::make_shared<DiskStepStore>(dir)),
      &coldStats);
  const std::size_t records = packRecords(dir).size();
  for (const PackRecord& r : packRecords(dir)) {
    EXPECT_NE(r.key.substr(16), ".ab") << "the default stores nothing";
  }
  EXPECT_EQ(coldStats.storeWrites, records)
      << "a write is counted only for a record written";

  re::CacheStats warm;
  expectSameBound(
      boundThrough(std::make_shared<StepsOnlyStore>(
                       std::make_shared<DiskStepStore>(dir)),
                   &warm),
      cold, "steps-only store");
  EXPECT_EQ(warm.autoboundMisses, 1u) << "the search runs again";
  EXPECT_EQ(warm.zeroRoundMisses, 0u) << "over the entries it does keep";
  EXPECT_EQ(warm.stepMisses, 1u) << "the search's refused step: refusals "
                                    "are not kept either";
  EXPECT_EQ(packRecords(dir).size(), records) << "and it stores nothing";
  EXPECT_EQ(warm.storeWrites, packRecords(dir).size() - records)
      << "the defaults' writes are not counted";
}

TEST(DiskStepStore, AutoBoundsUnderAlternatingBudgetsStayWarm) {
  // Each run is a fresh process over one root; runs alternate two budgets.
  // Both budgets' records stay readable, so the third and fourth runs read
  // their bound instead of searching and writing it again.
  const fs::path dir = freshDir("store-autobound-budgets");
  re::AutoLowerBoundOptions longer = pinnedSearch();
  longer.maxSteps += 1;
  std::vector<re::AutoLowerBound> bounds;
  for (int run = 0; run < 4; ++run) {
    const re::AutoLowerBoundOptions search =
        run % 2 == 0 ? pinnedSearch() : longer;
    auto store = std::make_shared<DiskStepStore>(dir);
    re::EngineSession session;
    session.attachStore(store);
    bounds.push_back(session.autoLowerBound(re::misProblem(3), search));
    if (run < 2) continue;
    const std::string what = "run " + std::to_string(run);
    expectSameBound(bounds.back(), bounds[static_cast<std::size_t>(run - 2)],
                    what);
    EXPECT_EQ(session.stats().autoboundMisses, 0u) << what;
    EXPECT_EQ(session.stats().storeHits, 1u) << what << ": the bound only";
    EXPECT_EQ(session.stats().storeMisses, 0u) << what;
    EXPECT_EQ(session.stats().storeWrites, 0u) << what;
    EXPECT_EQ(store->stats().quarantined, 0u) << what;
  }
  const auto records = packRecords(dir);
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const PackRecord& r) {
                            return r.key.substr(16) == ".ab";
                          }),
            2)
      << "one record per budget";
}

TEST(DiskStepStore, TornTailIsSkippedAndTheNextWriteLands) {
  const fs::path dir = freshDir("store-torn");
  const re::Problem mis = re::misProblem(3);
  const re::Problem sinkless = re::sinklessOrientationProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.applyR(mis);
    (void)ctx.zeroRoundSolvable(sinkless, re::ZeroRoundMode::kSymmetricPorts);
  }
  // A crash while appending the second record: its line has no newline.
  const std::string pack = fileBytes(dir / "pack");
  const std::size_t second = pack.find('\n') + 1;
  const std::string torn =
      pack.substr(0, second + (pack.size() - second) / 2);
  {
    std::ofstream out(dir / "pack", std::ios::binary | std::ios::trunc);
    out << torn;
  }

  auto store = std::make_shared<DiskStepStore>(dir);
  EXPECT_EQ(store->objectCount(), 1u) << "the torn line is not indexed";
  re::EngineSession ctx;
  ctx.attachStore(store);
  (void)ctx.applyR(mis);
  EXPECT_FALSE(
      ctx.zeroRoundSolvable(sinkless, re::ZeroRoundMode::kSymmetricPorts));
  EXPECT_EQ(ctx.stats().storeHits, 1u);
  EXPECT_EQ(ctx.stats().storeWrites, 1u);
  EXPECT_EQ(store->stats().quarantined, 0u);
  // The torn bytes are cut off, and the new record lands where they were.
  EXPECT_EQ(fileBytes(dir / "pack"), pack);

  auto reopened = std::make_shared<DiskStepStore>(dir);
  re::EngineSession warm;
  warm.attachStore(reopened);
  (void)warm.applyR(mis);
  EXPECT_FALSE(
      warm.zeroRoundSolvable(sinkless, re::ZeroRoundMode::kSymmetricPorts));
  EXPECT_EQ(warm.stats().storeHits, 2u);
  EXPECT_EQ(warm.stats().storeMisses, 0u);
  EXPECT_EQ(reopened->stats().quarantined, 0u)
      << "the new record shadows the torn one";
}

TEST(DiskStepStore, TornTailNeverShadowsAnEarlierRecord) {
  // A crash while re-appending a key that already has a good record, then
  // a write of another key: the torn copy is cut off, not completed, so no
  // later open indexes it over the good record.
  const fs::path dir = freshDir("store-torn-other-key");
  const re::Problem mis = re::misProblem(3);
  const re::Problem sinkless = re::sinklessOrientationProblem(3);
  const auto sym = re::ZeroRoundMode::kSymmetricPorts;
  const auto adv = re::ZeroRoundMode::kAdversarialPorts;
  {
    DiskStepStore store(dir);
    store.storeZeroRound(sym, mis, re::structuralHash(mis), false);
    store.storeZeroRound(sym, sinkless, re::structuralHash(sinkless), false);
  }
  const std::string pack = fileBytes(dir / "pack");
  const std::string second = pack.substr(pack.find('\n') + 1);
  {
    std::ofstream out(dir / "pack", std::ios::binary | std::ios::app);
    out << second.substr(0, second.size() / 2);
  }
  {
    DiskStepStore store(dir);
    EXPECT_EQ(store.objectCount(), 2u);
    store.storeZeroRound(adv, mis, re::structuralHash(mis), false);
  }
  const std::string after = fileBytes(dir / "pack");
  EXPECT_EQ(after.substr(0, pack.size()), pack);
  EXPECT_EQ(std::count(after.begin(), after.end(), '\n'), 3);

  DiskStepStore reopened(dir);
  EXPECT_EQ(reopened.objectCount(), 3u);
  EXPECT_EQ(reopened.loadZeroRound(sym, mis, re::structuralHash(mis)), false);
  EXPECT_EQ(reopened.loadZeroRound(sym, sinkless,
                                   re::structuralHash(sinkless)),
            false);
  EXPECT_EQ(reopened.loadZeroRound(adv, mis, re::structuralHash(mis)), false);
  EXPECT_EQ(reopened.stats().hits, 3u);
  EXPECT_EQ(reopened.stats().misses, 0u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_FALSE(fs::exists(dir / "quarantine"));
}

TEST(DiskStepStore, CorruptRecordIsCopiedOutAndShadowed) {
  // A corrupt record in the middle of the pack: its bytes are copied to
  // quarantine/ (numbered), the other records still hit, and the
  // recomputed record shadows the corrupt one, which stays in the pack.
  const fs::path dir = freshDir("store-corrupt-middle");
  const re::Problem p = re::misProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.applyR(p);
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kAdversarialPorts);
  }
  std::vector<PackRecord> records = packRecords(dir);
  ASSERT_EQ(records.size(), 3u);
  const std::string key = records[1].key;
  records[1].body.insert(1, " ");  // still JSON; the checksum is unchanged
  records[1].body.replace(records[1].body.find("\"checksum\":\"") + 12, 1,
                          "x");
  const std::string corrupt = records[1].body;
  writePackRecords(dir, records);

  {
    auto store = std::make_shared<DiskStepStore>(dir);
    re::EngineSession ctx;
    ctx.attachStore(store);
    (void)ctx.applyR(p);
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kAdversarialPorts);
    EXPECT_EQ(store->stats().hits, 2u);
    EXPECT_EQ(store->stats().quarantined, 1u);
    EXPECT_EQ(store->stats().writes, 1u);
    EXPECT_EQ(fileBytes(dir / "quarantine" / (key + ".json.1")), corrupt);
  }
  const std::vector<PackRecord> after = packRecords(dir);
  ASSERT_EQ(after.size(), 4u) << "append-only: the corrupt line stays";
  EXPECT_EQ(after[1].body, corrupt);
  EXPECT_EQ(after[3].key, key);

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession warm;
  warm.attachStore(store);
  (void)warm.applyR(p);
  (void)warm.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  (void)warm.zeroRoundSolvable(p, re::ZeroRoundMode::kAdversarialPorts);
  EXPECT_EQ(store->stats().hits, 3u);
  EXPECT_EQ(store->stats().quarantined, 0u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir / "quarantine"),
                          fs::directory_iterator()),
            1);
}

TEST(DiskStepStore, MixedObjectsAndPackRootLoadsEverything) {
  // A root an earlier build wrote (objects/ files) and this one extended
  // (pack records): every entry of both hits, and a pack record shadows
  // the objects/ file of its key -- here a file that has since gone bad.
  const fs::path dir = freshDir("store-mixed");
  const fs::path fixture = fs::path(RELB_TEST_DATA_DIR) / "store_v1_mis3";
  fs::copy(fixture, dir, fs::copy_options::recursive);
  const std::vector<fs::path> files = objectFiles(fixture);
  ASSERT_EQ(files.size(), 4u);
  const re::Problem sinkless = re::sinklessOrientationProblem(3);
  {
    DiskStepStore store(dir);
    EXPECT_EQ(store.objectCount(), 4u);
    // Re-store the first file's entry as a pack record, and add one more.
    EXPECT_TRUE(loadObjectFile(store, files[0], &store));
    store.storeZeroRound(re::ZeroRoundMode::kSymmetricPorts, sinkless,
                         re::structuralHash(sinkless), false);
    EXPECT_EQ(store.objectCount(), 5u);
  }
  {
    std::ofstream out(dir / fs::relative(files[0], fixture),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  DiskStepStore store(dir);
  EXPECT_EQ(store.objectCount(), 5u);
  for (const fs::path& file : files) {
    EXPECT_TRUE(loadObjectFile(store, file)) << file;
  }
  EXPECT_EQ(store.loadZeroRound(re::ZeroRoundMode::kSymmetricPorts, sinkless,
                                re::structuralHash(sinkless)),
            false);
  EXPECT_EQ(store.stats().hits, 5u);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_EQ(store.stats().quarantined, 0u);
}

TEST(DiskStepStore, TwoStoresAppendingToOneRootLoseNothing) {
  // Two stores on one root, each appended to from its own thread: every
  // record lands whole.  A store finds the other's records on a miss (the
  // pack grew), and a reopened store finds them all.
  const fs::path dir = freshDir("store-two-writers");
  const re::Problem input = re::misProblem(3);
  constexpr std::uint64_t kPerStore = 200;
  auto a = std::make_shared<DiskStepStore>(dir);
  auto b = std::make_shared<DiskStepStore>(dir);
  // Keys are synthetic hashes over one input: the store keys by the hash
  // it is given and checks the input, so each (hash, mode) is its own
  // entry.
  const auto append = [&](DiskStepStore& store, std::uint64_t first) {
    for (std::uint64_t h = first; h < first + kPerStore; ++h) {
      store.storeZeroRound(re::ZeroRoundMode::kAdversarialPorts, input, h,
                           h % 3 == 0);
    }
  };
  std::thread ta([&] { append(*a, 0); });
  std::thread tb([&] { append(*b, kPerStore); });
  ta.join();
  tb.join();
  EXPECT_EQ(a->stats().writes + b->stats().writes, 2 * kPerStore);

  EXPECT_EQ(a->loadZeroRound(re::ZeroRoundMode::kAdversarialPorts, input,
                             kPerStore + 1),
            (kPerStore + 1) % 3 == 0)
      << "a record the other store appended";
  EXPECT_EQ(a->stats().hits, 1u);
  DiskStepStore reopened(dir);
  EXPECT_EQ(reopened.objectCount(), 2 * kPerStore);
  for (std::uint64_t h = 0; h < 2 * kPerStore; ++h) {
    EXPECT_EQ(reopened.loadZeroRound(re::ZeroRoundMode::kAdversarialPorts,
                                     input, h),
              h % 3 == 0)
        << h;
  }
  EXPECT_EQ(reopened.stats().hits, 2 * kPerStore);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_EQ(packRecords(dir).size(), 2 * kPerStore);
}

}  // namespace
}  // namespace relb::store
