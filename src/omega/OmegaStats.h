//===- omega/OmegaStats.h - Counters for the evaluation harness ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight counters recording how hard the Omega test had to work. The
/// benchmark harness uses them to classify analysis costs the way Figure 6
/// of the paper does (no-Omega-needed vs. general test vs. split).
///
/// Counters live inside an OmegaContext (see omega/OmegaContext.h); every
/// decision-procedure entry point takes a context and bumps that context's
/// counters, so concurrent analyses with separate contexts never share
/// state.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_OMEGASTATS_H
#define OMEGA_OMEGA_OMEGASTATS_H

#include <cstdint>

namespace omega {

struct OmegaStats {
  uint64_t SatisfiabilityCalls = 0;
  uint64_t ProjectionCalls = 0;     // projectOntoMask entries
  uint64_t GistCalls = 0;           // gist() entries (cache hits included)
  uint64_t ExactEliminations = 0;
  uint64_t InexactEliminations = 0;
  uint64_t SplintersExplored = 0;
  uint64_t DarkShadowDecided = 0;   // dark shadow satisfiable => sat
  uint64_t RealShadowDecided = 0;   // real shadow unsatisfiable => unsat
  uint64_t ModHatSubstitutions = 0;
  uint64_t GistFastDrops = 0;       // constraints dropped by fast checks
  uint64_t GistFastKeeps = 0;       // constraints kept by fast checks
  uint64_t GistSatTests = 0;        // satisfiability tests in gist loop
  uint64_t SatCacheHits = 0;        // sat verdicts answered by QueryCache
  uint64_t SatCacheMisses = 0;      // sat lookups that missed
  uint64_t GistCacheHits = 0;       // gist results answered by QueryCache
  uint64_t GistCacheMisses = 0;     // gist lookups that missed

  uint64_t SnapshotReuses = 0;      // always 0; kept until next bench change
  uint64_t SnapshotFallbacks = 0;   // always 0; kept until next bench change

  // Edit-incremental delta accounting (engine/DependenceEngine.h,
  // DeltaMetrics): how this run's access pairs were classified against
  // the previous version of a session. Reused pairs were materialized
  // from the result store without solving; Resolved pairs were solved on
  // an array the previous version accessed; New pairs touch an array it
  // never saw. The three always sum to the run's pair count when delta
  // accounting is active.
  uint64_t DeltaPairsReused = 0;
  uint64_t DeltaPairsResolved = 0;
  uint64_t DeltaPairsNew = 0;

  // Global result store (engine/ResultStore.h): pair and kill groups this
  // run materialized from the cross-request store (hits), looked up but
  // had to solve (misses), and entries the store's LRU bound dropped while
  // this run inserted (evictions). All zero when no store is attached.
  uint64_t ResultStoreHits = 0;
  uint64_t ResultStoreMisses = 0;
  uint64_t ResultStoreEvictions = 0;

  // Quick-test pre-filter: dependence queries decided with no Omega call,
  // by class. QuickTestDecided always equals the sum of the four classes
  // (each decision bumps its class and the total together).
  uint64_t QuickTestZIV = 0;        // constant subscript difference != 0
  uint64_t QuickTestGCD = 0;        // gcd of coefficients divides nothing
  uint64_t QuickTestBounds = 0;     // single-subscript bounds exclude 0
  uint64_t QuickTestTrivialDep = 0; // trivially dependent / independent pair
  uint64_t QuickTestDecided = 0;    // total queries decided by the tier

  void reset() { *this = OmegaStats(); }

  /// Accumulates another context's counters (used to fold per-worker stats
  /// into a whole-run total).
  void merge(const OmegaStats &O) { apply(O, /*Sign=*/+1); }

  /// Subtracts a snapshot taken earlier on the same context; the tracer
  /// uses this to attribute counter movement to individual spans.
  void subtract(const OmegaStats &O) { apply(O, /*Sign=*/-1); }

private:
  void apply(const OmegaStats &O, int64_t Sign) {
    SatisfiabilityCalls += Sign * O.SatisfiabilityCalls;
    ProjectionCalls += Sign * O.ProjectionCalls;
    GistCalls += Sign * O.GistCalls;
    ExactEliminations += Sign * O.ExactEliminations;
    InexactEliminations += Sign * O.InexactEliminations;
    SplintersExplored += Sign * O.SplintersExplored;
    DarkShadowDecided += Sign * O.DarkShadowDecided;
    RealShadowDecided += Sign * O.RealShadowDecided;
    ModHatSubstitutions += Sign * O.ModHatSubstitutions;
    GistFastDrops += Sign * O.GistFastDrops;
    GistFastKeeps += Sign * O.GistFastKeeps;
    GistSatTests += Sign * O.GistSatTests;
    SatCacheHits += Sign * O.SatCacheHits;
    SatCacheMisses += Sign * O.SatCacheMisses;
    GistCacheHits += Sign * O.GistCacheHits;
    GistCacheMisses += Sign * O.GistCacheMisses;
    DeltaPairsReused += Sign * O.DeltaPairsReused;
    DeltaPairsResolved += Sign * O.DeltaPairsResolved;
    DeltaPairsNew += Sign * O.DeltaPairsNew;
    ResultStoreHits += Sign * O.ResultStoreHits;
    ResultStoreMisses += Sign * O.ResultStoreMisses;
    ResultStoreEvictions += Sign * O.ResultStoreEvictions;
    QuickTestZIV += Sign * O.QuickTestZIV;
    QuickTestGCD += Sign * O.QuickTestGCD;
    QuickTestBounds += Sign * O.QuickTestBounds;
    QuickTestTrivialDep += Sign * O.QuickTestTrivialDep;
    QuickTestDecided += Sign * O.QuickTestDecided;
  }
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGASTATS_H
