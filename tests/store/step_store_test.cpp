// DiskStepStore: persistence across contexts, crash safety (truncated and
// corrupted entries are quarantined and recomputed, never trusted), and the
// zero-recomputation guarantee for warm-store runs.
#include "store/step_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/family.hpp"
#include "core/sequence.hpp"
#include "io/certificate.hpp"
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
  return out;
}

TEST(DiskStepStore, InitializesLayoutAndRejectsForeignFormat) {
  const fs::path dir = freshDir("store-layout");
  {
    DiskStepStore store(dir);
    EXPECT_TRUE(fs::exists(dir / "FORMAT"));
    EXPECT_TRUE(fs::exists(dir / "objects"));
    EXPECT_TRUE(fs::exists(dir / "quarantine"));
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
  // Simulate a crash that left a half-written entry (bypassing the atomic
  // writer on purpose).
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string original = [&] {
    std::ifstream in(files[0], std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << original.substr(0, original.size() / 2);
  }

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

TEST(DiskStepStore, ChecksumMismatchIsQuarantined) {
  const fs::path dir = freshDir("store-corrupt");
  const re::Problem p = re::sinklessOrientationProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  }
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  // Flip the verdict inside the payload; the checksum no longer matches.
  std::string text = [&] {
    std::ifstream in(files[0], std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto pos = text.find("\"solvable\":false");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 16, "\"solvable\":true ");
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << text;
  }

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
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].filename().string().substr(16), ".rbarref.json");

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
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string text = [&] {
    std::ifstream in(files[0], std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto pos = text.find("node degree");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 4, "edge");
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << text;
  }

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
  // labels.  Their strength relation is computed (128-bit packed words),
  // and the right-closed-set sweep then refuses the universe; the refusal
  // is what the store keeps for that step.
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
  EXPECT_EQ(refusalOf(session, q), "allRightClosedSets: universe too large");
  EXPECT_EQ(store->loadStepRefusal(1, q, re::structuralHash(q),
                                   re::StepOptions{}),
            "allRightClosedSets: universe too large");
}

}  // namespace
}  // namespace relb::store
