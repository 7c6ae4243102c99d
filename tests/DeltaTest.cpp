//===- tests/DeltaTest.cpp - Edit-incremental re-analysis -----------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The incremental contract, end to end: canonical pair fingerprints are
// name-free and semantics-sensitive; the global result store answers
// structurally-seen pairs across unrelated requests (LRU-bounded,
// sig-gated, thread-safe, with checksummed persistence that rejects
// corruption whole); an edited program analyzed against a store fed by
// its previous version renders byte-identical results while the delta
// accounting classifies every pair group exactly once; and the serving
// stack retains per-session fingerprints, keeps its accounting exact when
// the store evicts, and clamps per-request parallelism to the worker pool.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "deps/Fingerprint.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "ir/Sema.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

std::string readEdit(const std::string &Name) {
  std::ifstream In(std::string(OMEGA_EDITS_DIR) + "/" + Name + ".tiny");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

ir::AnalyzedProgram analyzeOk(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  EXPECT_TRUE(AP.ok()) << Source;
  return AP;
}

/// The access-pair group count of \p AP, measured the way the delta
/// accounting counts: a first version with no store to consult
/// classifies every group "new".
uint64_t groupTotal(const ir::AnalyzedProgram &AP) {
  engine::VersionFingerprints None;
  engine::AnalysisRequest Req;
  Req.Previous = &None;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsReused, 0u);
  EXPECT_EQ(R.Delta.PairsResolved, 0u);
  return R.Delta.PairsNew;
}

/// First access of \p Array with the requested role.
const ir::Access &find(const ir::AnalyzedProgram &AP, const std::string &Array,
                       bool IsWrite) {
  for (const ir::Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite)
      return A;
  ADD_FAILURE() << "no " << (IsWrite ? "write" : "read") << " of " << Array;
  return AP.Accesses.front();
}

/// Analyzes \p Source as a session's first version: feeds \p Store
/// with its outcomes and returns its fingerprints.
std::shared_ptr<const engine::VersionFingerprints>
feedStore(engine::ResultStore &Store, const std::string &Source) {
  engine::VersionFingerprints None;
  engine::AnalysisRequest Req;
  Req.Store = &Store;
  Req.Previous = &None;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(analyzeOk(Source));
  EXPECT_NE(R.Fingerprints, nullptr);
  return R.Fingerprints;
}

/// Analyzes \p AP against \p Store with \p Prev as the previous version.
engine::AnalysisResult analyzeEdit(engine::ResultStore &Store,
                                   const engine::VersionFingerprints &Prev,
                                   const ir::AnalyzedProgram &AP,
                                   engine::AnalysisRequest Req = {}) {
  Req.Store = &Store;
  Req.Previous = &Prev;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

// Renaming loop variables, arrays, and symbolic constants leaves every
// pair and kill-group fingerprint unchanged: the two versions carry
// identical pair fingerprint sets, and stores fed by each hold the same
// keys and outcomes byte for byte.
TEST(Fingerprint, NameFree) {
  engine::ResultStore BaseStore, RenamedStore;
  std::shared_ptr<const engine::VersionFingerprints> Base =
      feedStore(BaseStore, readEdit("base"));
  std::shared_ptr<const engine::VersionFingerprints> Renamed =
      feedStore(RenamedStore, readEdit("rename"));
  ASSERT_NE(Base, nullptr);
  ASSERT_NE(Renamed, nullptr);
  EXPECT_FALSE(Base->Pairs.empty());
  EXPECT_EQ(Base->Pairs, Renamed->Pairs);
  EXPECT_EQ(BaseStore.serialize(), RenamedStore.serialize());
}

// An array rename alone also preserves fingerprints (names never enter
// the serialization), while semantic edits -- a different subscript or a
// different loop bound -- change the affected pair's key.
TEST(Fingerprint, SemanticEditsChangeKeysRenamesDoNot) {
  const std::string Base = "symbolic n;\n"
                           "for i := 1 to n do\n"
                           "  a(i) := a(i-1) + 1;\n"
                           "endfor\n";
  const std::string Renamed = "symbolic m;\n"
                              "for k := 1 to m do\n"
                              "  zz(k) := zz(k-1) + 1;\n"
                              "endfor\n";
  const std::string Subscript = "symbolic n;\n"
                                "for i := 1 to n do\n"
                                "  a(i) := a(i-2) + 1;\n"
                                "endfor\n";
  const std::string Bound = "symbolic n;\n"
                            "for i := 2 to n do\n"
                            "  a(i) := a(i-1) + 1;\n"
                            "endfor\n";

  ir::AnalyzedProgram APBase = analyzeOk(Base);
  deps::FingerprintBuilder FBBase(APBase);
  deps::PairFingerprint Orig =
      FBBase.pair(find(APBase, "a", true), find(APBase, "a", false));

  ir::AnalyzedProgram APRen = analyzeOk(Renamed);
  EXPECT_EQ(Orig.Key, deps::FingerprintBuilder(APRen).pair(
                          find(APRen, "zz", true), find(APRen, "zz", false))
                          .Key);

  ir::AnalyzedProgram APSub = analyzeOk(Subscript);
  EXPECT_NE(Orig.Key, deps::FingerprintBuilder(APSub).pair(
                          find(APSub, "a", true), find(APSub, "a", false))
                          .Key);

  ir::AnalyzedProgram APBound = analyzeOk(Bound);
  EXPECT_NE(Orig.Key, deps::FingerprintBuilder(APBound)
                          .pair(find(APBound, "a", true),
                                find(APBound, "a", false))
                          .Key);
}

// The unordered-pair key is orientation-canonical: both argument orders
// produce the same key, with Swapped recording which order the canonical
// serialization lists. Self pairs are never swapped.
TEST(Fingerprint, OrientationCanonical) {
  ir::AnalyzedProgram AP = analyzeOk("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := a(i-1) + 1;\n"
                                     "endfor\n");
  deps::FingerprintBuilder FB(AP);
  const ir::Access &W = find(AP, "a", true);
  const ir::Access &R = find(AP, "a", false);

  deps::PairFingerprint WR = FB.pair(W, R);
  deps::PairFingerprint RW = FB.pair(R, W);
  EXPECT_EQ(WR.Key, RW.Key);
  EXPECT_NE(WR.Swapped, RW.Swapped);

  deps::PairFingerprint Self = FB.pair(W, W);
  EXPECT_FALSE(Self.Swapped);
  EXPECT_NE(Self.Key, WR.Key);
}

//===----------------------------------------------------------------------===//
// Global result store
//===----------------------------------------------------------------------===//

namespace {

/// A minimal but non-trivial pair outcome for store unit tests.
engine::PairOutcome samplePair(unsigned Tag) {
  engine::PairOutcome Out;
  engine::PortableDep D;
  D.Kind = static_cast<uint8_t>(Tag & 0x7);
  D.Present = true;
  Out.Queries.push_back(D);
  Out.HasFlowRecord = (Tag & 1) != 0;
  Out.RecHasFlow = Out.HasFlowRecord;
  return Out;
}

engine::KillGroupOutcome sampleKillGroup(unsigned Tag) {
  engine::KillGroupOutcome Out;
  engine::PortableKillRecord Rec;
  Rec.VictimPos = Tag;
  Rec.Killed = true;
  Out.Records.push_back(Rec);
  engine::KillGroupOutcome::DepState St;
  St.WritePos = Tag;
  St.Splits.emplace_back(true, 'K');
  Out.States.push_back(St);
  return Out;
}

} // namespace

// Lookups hit only under the (kind, pipeline signature) they were stored
// with, and every lookup lands on exactly one of the hit/miss counters.
TEST(ResultStore, HitMissSigAndKindSeparation) {
  engine::ResultStore Store(0); // unbounded
  engine::PipelineSig Sig;
  EXPECT_FALSE(Store.lookupPair("fp", Sig).has_value()); // miss 1

  EXPECT_EQ(Store.storePair("fp", Sig, samplePair(1)), 0u);
  EXPECT_EQ(Store.size(), 1u);

  std::optional<engine::PairOutcome> Hit = Store.lookupPair("fp", Sig);
  ASSERT_TRUE(Hit.has_value()); // hit 1
  ASSERT_EQ(Hit->Queries.size(), 1u);
  EXPECT_TRUE(Hit->Queries[0].Present);

  // The pipeline signature is part of the key ...
  engine::PipelineSig Other;
  Other.Kill = false;
  EXPECT_FALSE(Store.lookupPair("fp", Other).has_value()); // miss 2
  // ... and so is the entry kind: a pair entry never answers a
  // kill-group lookup of the same fingerprint.
  EXPECT_FALSE(Store.lookupKillGroup("fp", Sig).has_value()); // miss 3

  EXPECT_EQ(Store.storeKillGroup("fp", Sig, sampleKillGroup(2)), 0u);
  EXPECT_EQ(Store.size(), 2u);
  std::optional<engine::KillGroupOutcome> KHit =
      Store.lookupKillGroup("fp", Sig); // hit 2
  ASSERT_TRUE(KHit.has_value());
  ASSERT_EQ(KHit->Records.size(), 1u);
  EXPECT_TRUE(KHit->Records[0].Killed);

  // Re-storing an existing key refreshes in place, no growth.
  EXPECT_EQ(Store.storePair("fp", Sig, samplePair(3)), 0u);
  EXPECT_EQ(Store.size(), 2u);

  engine::ResultStoreStats St = Store.stats();
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 3u);
  EXPECT_EQ(St.Evictions, 0u);
  EXPECT_EQ(St.Entries, 2u);
}

TEST(ResultStore, CapacityBoundAndLRURecency) {
  engine::PipelineSig Sig;

  // Capacity 16 over 16 shards bounds every shard to one entry, so two
  // fingerprints evict each other iff they share a shard. Probe for two
  // fingerprints that collide with "seed".
  auto collides = [&](const std::string &FP) {
    engine::ResultStore Probe(16);
    Probe.storePair("seed", Sig, samplePair(0));
    return Probe.storePair(FP, Sig, samplePair(0)) == 1;
  };
  std::vector<std::string> Colliders;
  for (unsigned I = 0; I != 4096 && Colliders.size() < 2; ++I) {
    std::string FP = "cand" + std::to_string(I);
    if (collides(FP))
      Colliders.push_back(FP);
  }
  ASSERT_EQ(Colliders.size(), 2u) << "no shard colliders found";

  // Per-shard capacity 2 (total 32): seed and the first collider fit. A
  // lookup refreshes seed's recency, so the second collider evicts the
  // first collider, not seed.
  engine::ResultStore Store(32);
  Store.storePair("seed", Sig, samplePair(0));
  Store.storePair(Colliders[0], Sig, samplePair(1));
  EXPECT_TRUE(Store.lookupPair("seed", Sig).has_value());
  EXPECT_EQ(Store.storePair(Colliders[1], Sig, samplePair(2)), 1u);
  EXPECT_TRUE(Store.lookupPair("seed", Sig).has_value());
  EXPECT_FALSE(Store.lookupPair(Colliders[0], Sig).has_value());
  EXPECT_TRUE(Store.lookupPair(Colliders[1], Sig).has_value());
  EXPECT_EQ(Store.stats().Evictions, 1u);

  // The bound holds under churn: 64 distinct entries through capacity
  // 16 leave at most 16 alive, the overflow counted as evictions, and
  // the most recent store always survives.
  engine::ResultStore Small(16);
  for (unsigned I = 0; I != 64; ++I)
    Small.storePair("fp" + std::to_string(I), Sig, samplePair(I));
  EXPECT_LE(Small.size(), 16u);
  EXPECT_EQ(Small.stats().Evictions, 64u - Small.size());
  EXPECT_TRUE(Small.lookupPair("fp63", Sig).has_value());

  // Capacity 0 lifts the bound; shrinking re-imposes it immediately.
  Small.setCapacity(0);
  std::size_t Before = Small.size();
  for (unsigned I = 100; I != 164; ++I)
    Small.storePair("fp" + std::to_string(I), Sig, samplePair(I));
  EXPECT_EQ(Small.size(), Before + 64u);
  Small.setCapacity(16);
  EXPECT_LE(Small.size(), 16u);
}

// The 'OMRS' file: save -> load -> save is bit-identical, loaded entries
// answer under their recorded signature, and every corruption flavor
// (empty, bad magic, version skew, checksum flip, truncation, trailing
// garbage) rejects the whole file and leaves the store empty.
TEST(ResultStore, PersistenceRoundTripAndCorruption) {
  engine::PipelineSig Sig;
  engine::PipelineSig Alt;
  Alt.QuickTests = false;

  engine::ResultStore Store(0);
  for (unsigned I = 0; I != 8; ++I)
    Store.storePair("p" + std::to_string(I), I % 2 ? Sig : Alt,
                    samplePair(I));
  for (unsigned I = 0; I != 4; ++I)
    Store.storeKillGroup("k" + std::to_string(I), Sig, sampleKillGroup(I));

  std::string Bytes = Store.serialize();
  engine::ResultStore Loaded(0);
  std::string Err;
  ASSERT_TRUE(Loaded.deserialize(Bytes, &Err)) << Err;
  EXPECT_EQ(Loaded.size(), Store.size());
  EXPECT_EQ(Loaded.serialize(), Bytes);
  EXPECT_TRUE(Loaded.lookupPair("p1", Sig).has_value());
  EXPECT_TRUE(Loaded.lookupPair("p0", Alt).has_value());
  EXPECT_FALSE(Loaded.lookupPair("p0", Sig).has_value());
  EXPECT_TRUE(Loaded.lookupKillGroup("k3", Sig).has_value());

  struct Corrupt {
    const char *Tag;
    std::string Bytes;
  } Cases[] = {
      {"empty", std::string()},
      {"bad-magic",
       [&] {
         std::string B = Bytes;
         B[0] = static_cast<char>(B[0] ^ 0x20);
         return B;
       }()},
      {"version-skew",
       [&] {
         std::string B = Bytes;
         B[4] = static_cast<char>(B[4] ^ 0x01);
         return B;
       }()},
      {"checksum",
       [&] {
         std::string B = Bytes;
         B.back() = static_cast<char>(B.back() ^ 0x01);
         return B;
       }()},
      {"truncated", Bytes.substr(0, Bytes.size() / 2)},
      {"oversized", Bytes + "x"},
  };
  for (const Corrupt &C : Cases) {
    SCOPED_TRACE(C.Tag);
    engine::ResultStore Victim(0);
    Victim.storePair("stale", Sig, samplePair(9));
    Err.clear();
    EXPECT_FALSE(Victim.deserialize(C.Bytes, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Victim.size(), 0u);
  }

  std::string Path = ::testing::TempDir() + "delta_test.resultstore";
  ASSERT_TRUE(Store.saveFile(Path, &Err)) << Err;
  engine::ResultStore FromFile(0);
  ASSERT_TRUE(FromFile.loadFile(Path, &Err)) << Err;
  EXPECT_EQ(FromFile.serialize(), Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(FromFile.loadFile(Path, &Err));
  EXPECT_FALSE(Err.empty());
}

// N threads hammer one store with mixed lookups, stores, capacity
// changes, and serializations (run under TSan in CI). The at-rest gates:
// exact hit+miss accounting, the capacity bound, and a clean round-trip
// of whatever population survived.
TEST(ResultStore, ConcurrentHammer) {
  engine::ResultStore Store(64);
  engine::PipelineSig Sig;
  constexpr unsigned Threads = 8, Ops = 600, KeySpace = 48;
  std::atomic<uint64_t> Lookups{0};

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Store, &Sig, &Lookups, T] {
      for (unsigned I = 0; I != Ops; ++I) {
        std::string FP = "fp" + std::to_string((T * 7 + I) % KeySpace);
        switch (I % 5) {
        case 0:
          Store.storePair(FP, Sig, samplePair(I));
          break;
        case 1:
          Store.lookupPair(FP, Sig);
          Lookups.fetch_add(1);
          break;
        case 2:
          Store.storeKillGroup(FP, Sig, sampleKillGroup(I));
          break;
        case 3:
          Store.lookupKillGroup(FP, Sig);
          Lookups.fetch_add(1);
          break;
        case 4:
          if (I % 100 == 4) {
            Store.serialize();
          } else {
            Store.lookupPair(FP, Sig);
            Lookups.fetch_add(1);
          }
          break;
        }
        if (T == 0 && I % 200 == 199)
          Store.setCapacity(I % 400 == 199 ? 32 : 64);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  engine::ResultStoreStats St = Store.stats();
  EXPECT_EQ(St.Hits + St.Misses, Lookups.load());
  Store.setCapacity(64);
  EXPECT_LE(Store.size(), 64u);

  std::string Bytes = Store.serialize();
  engine::ResultStore Copy(0);
  std::string Err;
  ASSERT_TRUE(Copy.deserialize(Bytes, &Err)) << Err;
  EXPECT_EQ(Copy.serialize(), Bytes);
}

//===----------------------------------------------------------------------===//
// Incremental analysis over the edit corpus
//===----------------------------------------------------------------------===//

// The central gate: for every entry of the edit corpus, analyzing the
// edit against a store fed by the base program (with the base's
// fingerprints as the previous version) renders a byte-identical result,
// reuses at least one pair, and classifies every pair group exactly once.
TEST(Delta, CorpusByteIdentityAndAccounting) {
  const char *Edits[] = {"rename",   "bound",       "stmt-new",
                         "stmt-edit", "loop-del",   "interchange",
                         "rename-reorder"};
  for (const char *Name : Edits) {
    SCOPED_TRACE(Name);
    engine::ResultStore Store;
    std::shared_ptr<const engine::VersionFingerprints> Base =
        feedStore(Store, readEdit("base"));
    ASSERT_NE(Base, nullptr);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));

    engine::DependenceEngine Scratch;
    std::string Expected = api::renderResult(Scratch.analyze(AP));

    engine::AnalysisResult R = analyzeEdit(Store, *Base, AP);
    EXPECT_EQ(api::renderResult(R), Expected);
    ASSERT_TRUE(R.Delta.Active);
    EXPECT_GT(R.Delta.PairsReused, 0u);
    EXPECT_EQ(R.Delta.PairsReused + R.Delta.PairsResolved + R.Delta.PairsNew,
              groupTotal(AP));
    // The stats mirror carries the same tallies.
    EXPECT_EQ(R.Stats.DeltaPairsReused, R.Delta.PairsReused);
    EXPECT_EQ(R.Stats.DeltaPairsResolved, R.Delta.PairsResolved);
    EXPECT_EQ(R.Stats.DeltaPairsNew, R.Delta.PairsNew);
    // Reused pairs and kill groups are exactly the store's hits.
    EXPECT_EQ(R.Stats.ResultStoreHits,
              R.Delta.PairsReused + R.Delta.KillGroupsReused);
  }
}

// Every class has a witness. A structurally novel pair on an unknown
// array is "new" (the corpus itself never produces one: its added pairs
// all structurally match existing fingerprints); an edited pair on a
// known array is "resolved"; its orphaned previous key is "removed".
TEST(Delta, ClassificationWitnesses) {
  const std::string Base = "symbolic n;\n"
                           "for i := 1 to n do\n"
                           "  a(i) := a(i-1) + 1;\n"
                           "endfor\n";

  // A second nest on a new array, transposed 2-D subscripts: nothing in
  // the store matches structurally, and "z" is not a known array.
  const std::string AddsNewArray = Base +
                                   "for i := 1 to n do\n"
                                   "  for j := 1 to n do\n"
                                   "    z(i,j) := z(j,i) + 1;\n"
                                   "  endfor\n"
                                   "endfor\n";
  // Same arrays, different subscript: fingerprints miss on a known array.
  const std::string EditsPair = "symbolic n;\n"
                                "for i := 1 to n do\n"
                                "  a(i) := a(i-2) + 1;\n"
                                "endfor\n";

  struct Case {
    const char *Tag;
    const std::string &Source;
    bool WantNew, WantResolved, WantRemoved;
  } Cases[] = {
      {"new-array", AddsNewArray, true, false, false},
      {"edited-pair", EditsPair, false, true, true},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    engine::ResultStore Store;
    std::shared_ptr<const engine::VersionFingerprints> Prev =
        feedStore(Store, Base);
    ASSERT_NE(Prev, nullptr);
    ir::AnalyzedProgram AP = analyzeOk(C.Source);

    engine::DependenceEngine Scratch;
    std::string Expected = api::renderResult(Scratch.analyze(AP));

    engine::AnalysisResult R = analyzeEdit(Store, *Prev, AP);
    EXPECT_EQ(api::renderResult(R), Expected);
    ASSERT_TRUE(R.Delta.Active);
    EXPECT_GT(R.Delta.PairsReused, 0u);
    EXPECT_EQ(R.Delta.PairsNew > 0, C.WantNew);
    EXPECT_EQ(R.Delta.PairsResolved > 0, C.WantResolved);
    EXPECT_EQ(R.Delta.PairsRemoved > 0, C.WantRemoved);
    EXPECT_EQ(R.Delta.PairsReused + R.Delta.PairsResolved + R.Delta.PairsNew,
              groupTotal(AP));
  }
}

// An identical replay reuses every pair and every kill group.
TEST(Delta, IdenticalReplayReusesEverything) {
  std::string Source = readEdit("base");
  engine::ResultStore Store;
  std::shared_ptr<const engine::VersionFingerprints> Prev =
      feedStore(Store, Source);
  ASSERT_NE(Prev, nullptr);
  ir::AnalyzedProgram AP = analyzeOk(Source);

  engine::AnalysisResult R = analyzeEdit(Store, *Prev, AP);
  ASSERT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsResolved, 0u);
  EXPECT_EQ(R.Delta.PairsNew, 0u);
  EXPECT_EQ(R.Delta.PairsRemoved, 0u);
  EXPECT_EQ(R.Delta.PairsReused, groupTotal(AP));
  EXPECT_GT(R.Delta.KillGroupsTotal, 0u);
  EXPECT_EQ(R.Delta.KillGroupsReused, R.Delta.KillGroupsTotal);
  // The store supplied everything, so nothing was stored back.
  EXPECT_EQ(R.Stats.ResultStoreMisses, 0u);
  ASSERT_NE(R.Fingerprints, nullptr);
  EXPECT_EQ(R.Fingerprints->Pairs, Prev->Pairs);
  EXPECT_EQ(R.Fingerprints->Arrays, Prev->Arrays);
}

// The rename gate: plain renames and renames that reorder first mentions
// are 100% reused from a store fed by the base program -- with the
// base's fingerprints as the previous version (a session edit) and with
// no previous version at all (a session-less request).
TEST(Delta, RenameEditsFullyReusedViaStore) {
  std::string BaseSrc = readEdit("base");
  for (const char *Name : {"rename", "rename-reorder"}) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));
    uint64_t Pairs = groupTotal(AP);

    // Session edit: every pair and every kill group is reused.
    engine::ResultStore SessionStore;
    std::shared_ptr<const engine::VersionFingerprints> Base =
        feedStore(SessionStore, BaseSrc);
    ASSERT_NE(Base, nullptr);
    engine::AnalysisResult SR = analyzeEdit(SessionStore, *Base, AP);
    ASSERT_TRUE(SR.Delta.Active);
    EXPECT_EQ(SR.Delta.PairsResolved, 0u);
    EXPECT_EQ(SR.Delta.PairsNew, 0u);
    EXPECT_EQ(SR.Delta.PairsRemoved, 0u);
    EXPECT_EQ(SR.Delta.PairsReused, Pairs);
    EXPECT_GT(SR.Delta.KillGroupsTotal, 0u);
    EXPECT_EQ(SR.Delta.KillGroupsReused, SR.Delta.KillGroupsTotal);

    // Session-less: feed a store with a plain run of the base program ...
    engine::ResultStore Store;
    engine::AnalysisRequest Feed;
    Feed.Store = &Store;
    engine::DependenceEngine Feeder(Feed);
    engine::AnalysisResult FR = Feeder.analyze(analyzeOk(BaseSrc));
    EXPECT_FALSE(FR.Delta.Active);
    EXPECT_EQ(FR.Fingerprints, nullptr);
    EXPECT_EQ(FR.Stats.ResultStoreHits, 0u);
    EXPECT_GT(FR.Stats.ResultStoreMisses, 0u);
    // Structurally identical groups share one entry, so the population
    // is at most (and usually below) the miss count.
    EXPECT_GT(Store.size(), 0u);
    EXPECT_LE(Store.size(), FR.Stats.ResultStoreMisses);

    // ... then a fresh engine on the renamed program materializes every
    // pair and every kill group, byte-identical to a from-scratch run.
    engine::AnalysisRequest Use;
    Use.Store = &Store;
    engine::DependenceEngine User(Use);
    engine::AnalysisResult UR = User.analyze(AP);
    EXPECT_EQ(UR.Stats.ResultStoreMisses, 0u);
    EXPECT_EQ(UR.Stats.ResultStoreHits, Pairs + SR.Delta.KillGroupsTotal);

    engine::DependenceEngine Scratch;
    std::string Expected = api::renderResult(Scratch.analyze(AP));
    EXPECT_EQ(api::renderResult(UR), Expected);
    EXPECT_EQ(api::renderResult(SR), Expected);
  }
}

// Partial structural overlap reuses exactly the overlap: the interchange
// edit re-solves the second nest, and the untouched nests materialize
// from the store -- results still byte-identical to scratch.
TEST(Delta, StorePartialReuseOnInterchange) {
  engine::ResultStore Store;
  engine::AnalysisRequest Feed;
  Feed.Store = &Store;
  engine::DependenceEngine Feeder(Feed);
  Feeder.analyze(analyzeOk(readEdit("base")));

  ir::AnalyzedProgram AP = analyzeOk(readEdit("interchange"));
  engine::AnalysisRequest Use;
  Use.Store = &Store;
  engine::DependenceEngine User(Use);
  engine::AnalysisResult UR = User.analyze(AP);
  EXPECT_GT(UR.Stats.ResultStoreHits, 0u);
  EXPECT_GT(UR.Stats.ResultStoreMisses, 0u);

  engine::DependenceEngine Scratch;
  EXPECT_EQ(api::renderResult(UR), api::renderResult(Scratch.analyze(AP)));
}

// Outcomes stored under one pipeline signature are invisible under
// another, so nothing is reused (the delta accounting stays exact);
// Terminate opts out of reuse and delta accounting entirely.
TEST(Delta, SignatureMismatchAndTerminateDisable) {
  std::string Source = readEdit("base");
  engine::ResultStore Store;
  std::shared_ptr<const engine::VersionFingerprints> Prev =
      feedStore(Store, Source);
  ASSERT_NE(Prev, nullptr);
  ir::AnalyzedProgram AP = analyzeOk(Source);

  engine::AnalysisRequest Req;
  Req.Refine = false; // signature mismatch: nothing is reused
  engine::AnalysisResult R = analyzeEdit(Store, *Prev, AP, Req);
  ASSERT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsReused, 0u);
  EXPECT_EQ(R.Delta.KillGroupsReused, 0u);
  EXPECT_EQ(R.Delta.PairsResolved, groupTotal(AP));
  EXPECT_EQ(R.Stats.ResultStoreHits, 0u);

  engine::AnalysisRequest TReq;
  TReq.Terminate = true;
  engine::AnalysisResult TR = analyzeEdit(Store, *Prev, AP, TReq);
  EXPECT_FALSE(TR.Delta.Active);
  EXPECT_EQ(TR.Fingerprints, nullptr);
  EXPECT_EQ(TR.Stats.ResultStoreHits, 0u);
  EXPECT_EQ(TR.Stats.ResultStoreMisses, 0u);
}

//===----------------------------------------------------------------------===//
// Jobs clamp
//===----------------------------------------------------------------------===//

// applyOptions clamps the requested parallelism to the pool built at
// construction; jobs() always reports the effective count.
TEST(JobsClamp, RequestsClampToPool) {
  engine::AnalysisRequest Req;
  Req.Jobs = 2;
  engine::DependenceEngine Engine(Req);
  ASSERT_EQ(Engine.maxJobs(), 2u);
  EXPECT_EQ(Engine.jobs(), 2u);

  engine::AnalysisRequest O = Req;
  O.Jobs = 16;
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), 2u);

  O.Jobs = 1;
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), 1u);

  O.Jobs = 0; // "ask the hardware" resolves to the pool's capability
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), 2u);
}

//===----------------------------------------------------------------------===//
// Serving stack: sessions and per-request jobs
//===----------------------------------------------------------------------===//

namespace {

/// Submits one request line and blocks until its response arrives.
std::string ask(api::Server &Server, const std::string &Line) {
  std::mutex Mu;
  std::condition_variable CV;
  std::string Response;
  bool Done = false;
  Server.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

std::string sessionRequest(uint64_t Id, const std::string &Session,
                           const std::string &Source) {
  return "{\"id\": " + std::to_string(Id) + ", \"session\": \"" + Session +
         "\", \"source\": \"" + api::json::escape(Source) + "\"}";
}

/// metrics.delta.<Field> of a response line, or -1 when absent.
int64_t deltaField(const std::string &Response, const std::string &Field) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *D = M->get("delta"))
      if (const api::json::Value *F = D->get(Field))
        return F->asInt();
  return -1;
}

/// metrics.stats.<Field> of a response line, or -1 when absent.
int64_t statsField(const std::string &Response, const std::string &Field) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *S = M->get("stats"))
      if (const api::json::Value *F = S->get(Field))
        return F->asInt();
  return -1;
}

/// The raw bytes of the top-level "result" object of a response line.
std::string resultBytes(const std::string &Response) {
  std::size_t At = Response.find("\"result\": ");
  if (At == std::string::npos)
    return std::string();
  At += 10;
  int Depth = 0;
  bool InString = false;
  for (std::size_t I = At; I != Response.size(); ++I) {
    char C = Response[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return Response.substr(At, I + 1 - At);
  }
  return std::string();
}

} // namespace

// A session's second request reuses what its first request stored, with
// the result still byte-identical to a one-shot run; the session map
// holds MaxSessions fingerprint sets and evicts the least recently used
// one, whose next request then counts as a first version -- but every
// pair of the edit is still in the result store, so it is all reused;
// sessionless requests consult the store too.
TEST(ServeSessions, RetainReuseAndEvict) {
  api::Server::Config Cfg;
  Cfg.Workers = 1;
  Cfg.Defaults.Jobs = 1;
  Cfg.MaxSessions = 2;
  api::Server Server(Cfg);

  std::string Base = readEdit("base");
  std::string Edit = readEdit("stmt-edit");

  engine::DependenceEngine Reference;
  std::string Expected =
      api::renderResult(Reference.analyze(analyzeOk(Edit)));

  // First request of a session on a cold store: everything new.
  std::string R1 = ask(Server, sessionRequest(1, "s1", Base));
  EXPECT_EQ(deltaField(R1, "pairsReused"), 0);
  EXPECT_EQ(deltaField(R1, "pairsResolved"), 0);
  int64_t BaseGroups = deltaField(R1, "pairsNew");
  EXPECT_GT(BaseGroups, 0);
  EXPECT_EQ(Server.metricsSnapshot().gauge("omega_serve_live_sessions")->Value,
            1);

  // Second request: the edit reuses what the base stored, and the
  // retained fingerprints classify the re-solved pair as resolved.
  std::string R2 = ask(Server, sessionRequest(2, "s1", Edit));
  EXPECT_GT(deltaField(R2, "pairsReused"), 0);
  EXPECT_GT(deltaField(R2, "pairsResolved"), 0);
  EXPECT_EQ(deltaField(R2, "pairsNew"), 0);
  EXPECT_EQ(resultBytes(R2), resultBytes(
                                 "{\"result\": " + Expected + "}"));

  // Two more sessions overflow MaxSessions = 2 and evict s1 (least
  // recently used). s1's fingerprints are gone, but every pair of the
  // edit was already solved under this server, so the replay
  // materializes entirely from the result store: all-reused, nothing
  // re-solved, and still byte-identical.
  ask(Server, sessionRequest(3, "s2", Base));
  ask(Server, sessionRequest(4, "s3", Base));
  EXPECT_EQ(Server.metricsSnapshot().gauge("omega_serve_live_sessions")->Value,
            2);
  std::string R5 = ask(Server, sessionRequest(5, "s1", Edit));
  EXPECT_EQ(deltaField(R5, "pairsReused"),
            deltaField(R2, "pairsReused") + deltaField(R2, "pairsResolved") +
                deltaField(R2, "pairsNew"));
  EXPECT_EQ(deltaField(R5, "pairsResolved"), 0);
  EXPECT_EQ(deltaField(R5, "pairsNew"), 0);
  EXPECT_EQ(deltaField(R5, "pairsRemoved"), 0);
  EXPECT_GT(statsField(R5, "resultStoreHits"), 0);
  EXPECT_EQ(resultBytes(R5), resultBytes(R2));

  // Sessionless requests never activate the delta layer, but they do
  // consult the store: the whole program materializes without a solve.
  std::string R6 = ask(Server, "{\"id\": 6, \"source\": \"" +
                                   api::json::escape(Edit) + "\"}");
  EXPECT_EQ(deltaField(R6, "pairsReused"), -1);
  EXPECT_GT(statsField(R6, "resultStoreHits"), 0);
  EXPECT_EQ(statsField(R6, "resultStoreMisses"), 0);
  EXPECT_EQ(resultBytes(R6), resultBytes(R2));
}

// A store bounded at one entry per shard evicts nearly every outcome, so
// a session edit re-solves most pairs. Responses stay byte-identical to
// one-shot runs and the delta accounting stays exact: every pair group
// is reused, resolved or new exactly once.
TEST(ServeSessions, ReuseAfterStoreEviction) {
  api::Server::Config Cfg;
  Cfg.Workers = 1;
  Cfg.Defaults.Jobs = 1;
  Cfg.ResultStoreCap = 1;
  api::Server Server(Cfg);

  uint64_t Id = 1;
  int64_t Evictions = 0;
  for (const char *Name : {"base", "rename", "bound", "stmt-new", "stmt-edit",
                           "loop-del", "interchange", "rename-reorder"}) {
    SCOPED_TRACE(Name);
    std::string Source = readEdit(Name);
    ir::AnalyzedProgram AP = analyzeOk(Source);
    engine::DependenceEngine Reference;
    std::string Expected = api::renderResult(Reference.analyze(AP));

    std::string R = ask(Server, sessionRequest(Id++, "bounded", Source));
    EXPECT_EQ(resultBytes(R), resultBytes("{\"result\": " + Expected + "}"));
    EXPECT_EQ(static_cast<uint64_t>(deltaField(R, "pairsReused") +
                                     deltaField(R, "pairsResolved") +
                                     deltaField(R, "pairsNew")),
              groupTotal(AP));
    EXPECT_EQ(deltaField(R, "pairsReused") +
                  deltaField(R, "killGroupsReused"),
              statsField(R, "resultStoreHits"));
    Evictions += statsField(R, "resultStoreEvictions");
  }
  EXPECT_GT(Evictions, 0);
  EXPECT_LE(Server.resultStore().size(), 16u);
}

// Per-request jobs are honored but clamped to the worker's pool; the
// effective value is what metrics reports.
TEST(ServeSessions, PerRequestJobsClamped) {
  api::Server::Config Cfg;
  Cfg.Workers = 1;
  Cfg.Defaults.Jobs = 2;
  api::Server Server(Cfg);

  std::string Source = readEdit("base");
  auto jobsOf = [&](const std::string &OptionsJson) {
    std::string Line = "{\"id\": 1, \"source\": \"" +
                       api::json::escape(Source) + "\"";
    if (!OptionsJson.empty())
      Line += ", \"options\": " + OptionsJson;
    Line += "}";
    std::string Response = ask(Server, Line);
    api::json::Value Doc;
    std::string Err;
    EXPECT_TRUE(api::json::parse(Response, Doc, Err)) << Err;
    if (const api::json::Value *M = Doc.get("metrics"))
      if (const api::json::Value *J = M->get("jobs"))
        return J->asInt();
    return int64_t(-1);
  };

  EXPECT_EQ(jobsOf(""), 2);                  // defaults
  EXPECT_EQ(jobsOf("{\"jobs\": 16}"), 2);    // clamped to the pool
  EXPECT_EQ(jobsOf("{\"jobs\": 1}"), 1);     // lower requests honored
}
