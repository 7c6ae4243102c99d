//===- tests/EngineTest.cpp - DependenceEngine behavior -------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The engine's contract: parallel, cached analysis returns structurally
// identical results to the serial, uncached pipeline; repeat analyses hit
// the query cache; and concurrent OmegaContexts never share counters.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

std::string signatureOf(const std::vector<deps::Dependence> &Deps) {
  std::string Out;
  for (const deps::Dependence &D : Deps) {
    Out += std::to_string(D.Src->Id) + "->" + std::to_string(D.Dst->Id);
    Out += std::string("/") + deps::depKindName(D.Kind);
    if (D.Covers)
      Out += " C";
    if (D.CoverLoopIndependent)
      Out += "Li";
    for (const deps::DepSplit &S : D.Splits) {
      Out += " [L" + std::to_string(S.Level) + " " + S.dirToString();
      if (S.Dead)
        Out += std::string(" dead:") + (S.DeadReason ? S.DeadReason : '?');
      if (S.Refined)
        Out += " r";
      Out += "]";
    }
    Out += ";";
  }
  return Out;
}

/// Every structural (non-timing) field of an analysis result.
std::string signatureOf(const analysis::AnalysisResult &R) {
  std::string Out = "flow: " + signatureOf(R.Flow);
  Out += "\nanti: " + signatureOf(R.Anti);
  Out += "\noutput: " + signatureOf(R.Output);
  Out += "\npairs:";
  for (const analysis::PairRecord &P : R.Pairs) {
    Out += " (" + std::to_string(P.Write->Id) + "," +
           std::to_string(P.Read->Id) + (P.HasFlow ? " flow" : "") +
           (P.UsedGeneralTest ? " gen" : "") + (P.SplitVectors ? " split" : "") +
           ")";
  }
  Out += "\nkills:";
  for (const analysis::KillRecord &K : R.Kills) {
    Out += " (" + std::to_string(K.From->Id) + "," +
           std::to_string(K.Killer->Id) + "," + std::to_string(K.To->Id) +
           (K.UsedOmega ? " omega" : "") + (K.Killed ? " killed" : "") + ")";
  }
  return Out;
}

engine::AnalysisRequest makeRequest(unsigned Jobs, bool Cache,
                                    bool Terminate = false) {
  engine::AnalysisRequest Req;
  Req.Jobs = Jobs;
  Req.UseQueryCache = Cache;
  Req.Terminate = Terminate;
  return Req;
}

} // namespace

// Four workers with a shared cache must be byte-identical (structurally)
// to one worker with no cache, over the whole paper corpus.
TEST(Engine, ParallelCachedMatchesSerialUncached) {
  engine::DependenceEngine Serial(makeRequest(1, /*Cache=*/false));
  engine::DependenceEngine Parallel(makeRequest(4, /*Cache=*/true));
  EXPECT_EQ(Serial.jobs(), 1u);
  EXPECT_EQ(Parallel.jobs(), 4u);

  unsigned Analyzed = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    engine::AnalysisResult RS = Serial.analyze(AP);
    engine::AnalysisResult RP = Parallel.analyze(AP);
    EXPECT_EQ(signatureOf(RS), signatureOf(RP)) << "kernel " << K.Name;
    EXPECT_EQ(RS.liveFlowTable(), RP.liveFlowTable()) << "kernel " << K.Name;
    EXPECT_EQ(RS.deadFlowTable(), RP.deadFlowTable()) << "kernel " << K.Name;
    ++Analyzed;
  }
  EXPECT_GT(Analyzed, 0u);
  // The uncached engine reports no cache traffic at all.
  EXPECT_EQ(Serial.cache(), nullptr);
}

// The terminating extension must shard identically too (it is the one
// phase that mutates dependences outside the per-read kill groups).
TEST(Engine, TerminatePhaseIsDeterministic) {
  engine::DependenceEngine Serial(makeRequest(1, false, /*Terminate=*/true));
  engine::DependenceEngine Parallel(makeRequest(4, true, /*Terminate=*/true));
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    EXPECT_EQ(signatureOf(Serial.analyze(AP)),
              signatureOf(Parallel.analyze(AP)))
        << "kernel " << K.Name;
  }
}

// Re-analyzing the same program must hit the memoized Omega answers and
// still return the same result.
TEST(Engine, RepeatedAnalysisHitsCache) {
  engine::DependenceEngine Engine(makeRequest(1, /*Cache=*/true));
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());

  engine::AnalysisResult First = Engine.analyze(AP);
  EXPECT_GT(First.Cache.SatMisses, 0u);
  EXPECT_GT(First.CacheEntries, 0u);

  engine::AnalysisResult Second = Engine.analyze(AP);
  EXPECT_GT(Second.Cache.SatHits, 0u);
  // Every satisfiability answer the second run needed was already
  // memoized: no new entries appear.
  EXPECT_EQ(Second.CacheEntries, First.CacheEntries);
  EXPECT_EQ(signatureOf(First), signatureOf(Second));
}

// The canonical cache key is variable-order independent, so even a single
// analysis sees hits when structurally-equal problems recur across pairs
// and levels (this is where the cache pays off on first contact).
TEST(Engine, FirstAnalysisAlreadyHitsCache) {
  engine::DependenceEngine Engine(makeRequest(1, /*Cache=*/true));
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_GT(R.Cache.SatHits, 0u);
}

// Two concurrent contexts on different threads must not bleed counters
// into each other or into the process default.
TEST(Engine, ConcurrentContextStatsAreIsolated) {
  ir::AnalyzedProgram AP1 = ir::analyzeSource(kernels::example1());
  ir::AnalyzedProgram AP3 = ir::analyzeSource(kernels::example3());
  ASSERT_TRUE(AP1.ok());
  ASSERT_TRUE(AP3.ok());

  // Serial baselines: what each program costs in its own fresh context.
  auto baseline = [](const ir::AnalyzedProgram &AP) {
    OmegaContext Ctx;
    OmegaContextScope Scope(Ctx);
    (void)analysis::analyzeProgram(AP);
    return Ctx.Stats;
  };
  OmegaStats Base1 = baseline(AP1);
  OmegaStats Base3 = baseline(AP3);
  ASSERT_GT(Base1.SatisfiabilityCalls, 0u);
  ASSERT_GT(Base3.SatisfiabilityCalls, 0u);
  ASSERT_NE(Base1.SatisfiabilityCalls, Base3.SatisfiabilityCalls);

  uint64_t DefaultBefore =
      OmegaContext::defaultContext().Stats.SatisfiabilityCalls;

  OmegaStats Got1, Got3;
  std::thread T1([&] {
    OmegaContext Ctx;
    OmegaContextScope Scope(Ctx);
    for (int I = 0; I != 3; ++I)
      (void)analysis::analyzeProgram(AP1);
    Got1 = Ctx.Stats;
  });
  std::thread T3([&] {
    OmegaContext Ctx;
    OmegaContextScope Scope(Ctx);
    for (int I = 0; I != 3; ++I)
      (void)analysis::analyzeProgram(AP3);
    Got3 = Ctx.Stats;
  });
  T1.join();
  T3.join();

  // Each thread saw exactly three times its own baseline -- nothing from
  // the sibling thread leaked in.
  EXPECT_EQ(Got1.SatisfiabilityCalls, 3 * Base1.SatisfiabilityCalls);
  EXPECT_EQ(Got3.SatisfiabilityCalls, 3 * Base3.SatisfiabilityCalls);
  EXPECT_EQ(Got1.ExactEliminations, 3 * Base1.ExactEliminations);
  EXPECT_EQ(Got3.ExactEliminations, 3 * Base3.ExactEliminations);

  // And none of it landed on the process-default context.
  EXPECT_EQ(OmegaContext::defaultContext().Stats.SatisfiabilityCalls,
            DefaultBefore);
}

// Jobs = 0 resolves to the hardware concurrency (at least one worker).
TEST(Engine, AutoJobsResolves) {
  engine::DependenceEngine Engine(makeRequest(0, false));
  EXPECT_GE(Engine.jobs(), 1u);
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::DependenceEngine Serial(makeRequest(1, false));
  EXPECT_EQ(signatureOf(Engine.analyze(AP)), signatureOf(Serial.analyze(AP)));
}

// Several engines sharing ONE QueryCache -- the omega-serve topology --
// with interleaved concurrent clients: each request's reported cache
// traffic must be exactly its own (the merged per-context counters), not
// a smeared slice of the global movement, and the per-request numbers
// must add up to the shared cache's global counters.
TEST(Engine, SharedCacheStatsAreAttributedPerRequest) {
  QueryCache Shared;
  const std::vector<kernels::Kernel> &Corpus = kernels::corpus();
  ASSERT_GE(Corpus.size(), 4u);

  // Serial baselines for structural comparison.
  std::vector<std::string> Baselines;
  std::vector<ir::AnalyzedProgram> Programs;
  for (const kernels::Kernel &K : Corpus) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    engine::DependenceEngine Fresh(makeRequest(1, /*Cache=*/false));
    Baselines.push_back(signatureOf(Fresh.analyze(AP)));
    Programs.push_back(std::move(AP));
    if (Programs.size() == 6)
      break;
  }
  ASSERT_GE(Programs.size(), 4u);

  constexpr unsigned Clients = 4;
  constexpr unsigned Rounds = 3;
  struct RequestRecord {
    QueryCacheStats Cache;
    OmegaStats Stats;
    bool SignatureOk = false;
  };
  std::vector<std::vector<RequestRecord>> Records(Clients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    Threads.emplace_back([&, C] {
      engine::AnalysisRequest Req;
      Req.Jobs = 2;
      Req.SharedCache = &Shared;
      engine::DependenceEngine Engine(Req);
      for (unsigned R = 0; R != Rounds; ++R)
        for (std::size_t I = 0; I != Programs.size(); ++I) {
          std::size_t Pick = (I + C) % Programs.size();
          engine::AnalysisResult Result = Engine.analyze(Programs[Pick]);
          RequestRecord Rec;
          Rec.Cache = Result.Cache;
          Rec.Stats = Result.Stats;
          Rec.SignatureOk = signatureOf(Result) == Baselines[Pick];
          Records[C].push_back(Rec);
        }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  QueryCacheStats Sum;
  for (const std::vector<RequestRecord> &Client : Records)
    for (const RequestRecord &Rec : Client) {
      // Warm or cold, interleaved or not: structure never changes.
      EXPECT_TRUE(Rec.SignatureOk);
      // Per-request cache traffic IS the request's own counter movement.
      EXPECT_EQ(Rec.Cache.SatHits, Rec.Stats.SatCacheHits);
      EXPECT_EQ(Rec.Cache.SatMisses, Rec.Stats.SatCacheMisses);
      EXPECT_EQ(Rec.Cache.GistHits, Rec.Stats.GistCacheHits);
      EXPECT_EQ(Rec.Cache.GistMisses, Rec.Stats.GistCacheMisses);
      Sum.SatHits += Rec.Cache.SatHits;
      Sum.SatMisses += Rec.Cache.SatMisses;
      Sum.GistHits += Rec.Cache.GistHits;
      Sum.GistMisses += Rec.Cache.GistMisses;
    }

  // Every lookup any engine made is accounted to exactly one request.
  QueryCacheStats Global = Shared.stats();
  EXPECT_EQ(Sum.SatHits, Global.SatHits);
  EXPECT_EQ(Sum.SatMisses, Global.SatMisses);
  EXPECT_EQ(Sum.GistHits, Global.GistHits);
  EXPECT_EQ(Sum.GistMisses, Global.GistMisses);
  EXPECT_GT(Sum.SatHits, 0u);
}

