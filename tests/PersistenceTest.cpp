//===- tests/PersistenceTest.cpp - QueryCache save/load contract ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The warm-start file contract: save -> load -> save round-trips
// bit-identically, canonical keys are stable across engine lifetimes (a
// warm-started engine re-misses nothing), and a corrupted file is
// rejected into a cold start -- never into wrong answers.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace omega;

namespace {

/// Analyzes the first few corpus kernels on \p Engine (warming its cache)
/// and returns the number analyzed.
unsigned warm(engine::DependenceEngine &Engine, unsigned MaxKernels = 5) {
  unsigned Analyzed = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    (void)Engine.analyze(AP);
    if (++Analyzed == MaxKernels)
      break;
  }
  return Analyzed;
}

std::string saved(QueryCache &Cache) {
  std::ostringstream Out(std::ios::binary);
  EXPECT_TRUE(Cache.save(Out));
  return Out.str();
}

engine::AnalysisRequest cachedSerialRequest() {
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  Req.UseQueryCache = true;
  return Req;
}

} // namespace

// save -> load -> save must be byte-identical: entries are emitted sorted
// by key, so the file is independent of hash-map iteration order.
TEST(Persistence, RoundTripIsBitIdentical) {
  engine::DependenceEngine Engine(cachedSerialRequest());
  ASSERT_GT(warm(Engine), 0u);
  ASSERT_NE(Engine.cache(), nullptr);
  ASSERT_GT(Engine.cache()->size(), 0u);

  std::string First = saved(*Engine.cache());
  ASSERT_FALSE(First.empty());

  QueryCache Restored;
  std::istringstream In(First, std::ios::binary);
  std::string Err;
  ASSERT_TRUE(Restored.load(In, Err)) << Err;
  EXPECT_EQ(saved(Restored), First);
}

// Cache keys are derived purely from the problems, so two fresh engines
// given the same programs persist the same bytes -- which is what makes a
// warm-start file from one server lifetime valid in the next.
TEST(Persistence, KeysAreStableAcrossEngineLifetimes) {
  engine::DependenceEngine A(cachedSerialRequest());
  engine::DependenceEngine B(cachedSerialRequest());
  ASSERT_GT(warm(A), 0u);
  ASSERT_GT(warm(B), 0u);
  EXPECT_EQ(saved(*A.cache()), saved(*B.cache()));
}

// A warm-started engine answers repeat queries from the loaded entries
// and returns the exact structural result a cold engine computes.
TEST(Persistence, WarmStartHitsAndMatchesColdResults) {
  engine::DependenceEngine Cold(cachedSerialRequest());
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisResult ColdResult = Cold.analyze(AP);
  std::string File = saved(*Cold.cache());

  engine::DependenceEngine Warm(cachedSerialRequest());
  std::istringstream In(File, std::ios::binary);
  std::string Err;
  ASSERT_TRUE(Warm.cache()->load(In, Err)) << Err;
  engine::AnalysisResult WarmResult = Warm.analyze(AP);

  EXPECT_EQ(ColdResult.liveFlowTable(), WarmResult.liveFlowTable());
  EXPECT_EQ(ColdResult.deadFlowTable(), WarmResult.deadFlowTable());
  EXPECT_EQ(WarmResult.Cache.SatMisses, 0u)
      << "a warm start must re-miss nothing example1 already answered";
  EXPECT_GT(WarmResult.Cache.SatHits, 0u);
}

// Corruption in any region -- magic, version, payload, checksum, length
// fields, truncation -- must be rejected, leaving the cache empty (cold
// start), and analysis afterwards still produces correct results.
TEST(Persistence, CorruptFilesAreRejectedToColdStart) {
  engine::DependenceEngine Engine(cachedSerialRequest());
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisResult Expect = Engine.analyze(AP);
  std::string Good = saved(*Engine.cache());
  ASSERT_GT(Good.size(), 24u);

  std::vector<std::pair<const char *, std::string>> Corruptions;
  std::string T = Good;
  T[0] = 'X'; // magic
  Corruptions.push_back({"bad magic", T});
  T = Good;
  T[4] = static_cast<char>(T[4] + 1); // version
  Corruptions.push_back({"bad version", T});
  T = Good;
  T[Good.size() / 2] = static_cast<char>(T[Good.size() / 2] ^ 0x5a);
  Corruptions.push_back({"payload bit flip", T});
  T = Good;
  T.back() = static_cast<char>(T.back() ^ 0x01);
  Corruptions.push_back({"checksum flip", T});
  Corruptions.push_back({"truncated", Good.substr(0, Good.size() - 9)});
  Corruptions.push_back({"empty", std::string()});
  Corruptions.push_back({"trailing garbage", Good + "zzzz"});

  for (const auto &[Name, Bytes] : Corruptions) {
    QueryCache Victim;
    std::istringstream In(Bytes, std::ios::binary);
    std::string Err;
    EXPECT_FALSE(Victim.load(In, Err)) << Name;
    EXPECT_FALSE(Err.empty()) << Name;
    EXPECT_EQ(Victim.size(), 0u) << Name << ": must degrade to cold start";

    // Cold-started analysis is still correct.
    engine::AnalysisRequest Req = cachedSerialRequest();
    Req.SharedCache = &Victim;
    engine::DependenceEngine Recovered(Req);
    engine::AnalysisResult R = Recovered.analyze(AP);
    EXPECT_EQ(Expect.liveFlowTable(), R.liveFlowTable()) << Name;
    EXPECT_EQ(Expect.deadFlowTable(), R.deadFlowTable()) << Name;
  }

  // And the untouched file still loads.
  QueryCache Fine;
  std::istringstream In(Good, std::ios::binary);
  std::string Err;
  EXPECT_TRUE(Fine.load(In, Err)) << Err;
  EXPECT_GT(Fine.size(), 0u);
}

// load() replaces earlier contents (the persisted set, nothing else), and
// the cache holds only sat/gist entries, so every one of them persists: a
// loaded cache is exactly as large as the one that was saved.
TEST(Persistence, LoadReplacesAndSnapshotsStayInMemory) {
  engine::DependenceEngine Engine(cachedSerialRequest());
  ASSERT_GT(warm(Engine), 0u);
  QueryCache &Cache = *Engine.cache();
  std::size_t Live = Cache.size();
  std::string File = saved(Cache);

  QueryCache Other;
  std::istringstream In1(File, std::ios::binary);
  std::string Err;
  ASSERT_TRUE(Other.load(In1, Err)) << Err;
  std::size_t Persisted = Other.size();
  EXPECT_EQ(Persisted, Live);
  EXPECT_GT(Persisted, 0u);

  // Re-loading on top of existing contents replaces, not merges.
  std::istringstream In2(File, std::ios::binary);
  ASSERT_TRUE(Other.load(In2, Err)) << Err;
  EXPECT_EQ(Other.size(), Persisted);
}
