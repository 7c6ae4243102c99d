//===- engine/DependenceEngine.h - Parallel, cached analysis facade ------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DependenceEngine is the public entry point for whole-program
/// dependence analysis. It runs the paper's Section 4 pipeline --
/// pairwise dependences, refinement, coverage, kill analysis -- sharded
/// across a fixed worker pool, with Omega satisfiability and gist answers
/// memoized in a shared QueryCache.
///
/// Determinism guarantee: for a given program and AnalysisRequest flags,
/// the structural content of the AnalysisResult (dependences, splits,
/// pair/kill record fields other than timings) is identical for every
/// Jobs value and cache setting. Work is enumerated in the serial
/// driver's order into index-addressed slots and merged in index order;
/// the cache only ever returns answers the solver would have computed.
/// Timings, and stats counters when the cache elides work, are the only
/// run-to-run variation.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_DEPENDENCEENGINE_H
#define OMEGA_ENGINE_DEPENDENCEENGINE_H

#include "analysis/Driver.h"
#include "omega/QueryCache.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>

namespace omega {

namespace obs {
class Tracer;
} // namespace obs

namespace engine {

class ResultStore;
class WorkerPool;

/// What the next version's delta accounting needs to know about one
/// program version: its pair-group fingerprints (deps/Fingerprint.h) and
/// the arrays it accessed. Outcomes are not kept here; the ResultStore
/// holds them.
struct VersionFingerprints {
  std::set<std::string> Pairs;
  std::set<std::string> Arrays;
};

/// Per-run delta accounting against a previous version, reported through
/// stats, metrics and responses. When Active, PairsReused + PairsResolved
/// + PairsNew equals the number of pair groups exactly:
///
///   reused   -- the result store supplied the group's outcome;
///   resolved -- solved, on an array the previous version accessed (an
///               edited pair);
///   new      -- solved, on an array new to the program;
///   removed  -- previous fingerprints no current pair group matched.
///
/// The classification is metrics-only: it never changes results.
struct DeltaMetrics {
  bool Active = false;
  uint64_t PairsReused = 0;
  uint64_t PairsResolved = 0;
  uint64_t PairsNew = 0;
  uint64_t PairsRemoved = 0;
  uint64_t KillGroupsReused = 0;
  uint64_t KillGroupsTotal = 0;
};

/// What analyzeProgram-style runs should do and how to execute them.
struct AnalysisRequest {
  bool QuickTests = true; ///< Section 4.5 screens
  bool Refine = true;     ///< Section 4.4 distance refinement
  bool Cover = true;      ///< Section 4.2 coverage
  bool Kill = true;       ///< Section 4.1/4.2 kill analysis
  /// Section 4.3 terminating analysis (an extension the paper describes
  /// but its implementation did not enable).
  bool Terminate = false;
  /// Worker threads; 1 runs inline on the caller, 0 asks the hardware.
  unsigned Jobs = 1;
  /// Memoize satisfiability and gist queries across the whole engine
  /// lifetime (repeat analyses reuse earlier answers).
  bool UseQueryCache = true;
  /// ZIV/GCD/bounds pre-filter: decide provably independent or trivially
  /// dependent pairs with no Omega call (ablation: --no-quicktests).
  bool PairQuickTests = true;
  /// Use this externally owned cache instead of constructing one. The
  /// serving stack points every worker engine at one cache, which is what
  /// makes warmth survive across requests and clients. Must outlive the
  /// engine; overrides UseQueryCache when non-null.
  QueryCache *SharedCache = nullptr;
  /// Optional tracer: each worker context gets a registered trace buffer
  /// and every work item is recorded as an engine-task span keyed by its
  /// serial enumeration order, so merged traces are identical for every
  /// Jobs value. Null disables tracing (the zero-overhead path). Not
  /// owned; must outlive the engine.
  obs::Tracer *Trace = nullptr;
  /// The previous version's fingerprints: non-null turns on delta
  /// accounting (AnalysisResult::Delta) and the recording of this run's
  /// own fingerprints (AnalysisResult::Fingerprints). A session's first
  /// request passes an empty set. Not owned; must outlive the analyze()
  /// call. Ignored when Terminate is set.
  const VersionFingerprints *Previous = nullptr;
  /// The result store (engine/ResultStore.h), the one reuse tier for
  /// solved outcomes: each pair group and kill group is looked up once
  /// and, when the store did not supply it, fed back after solving.
  /// Reuse is gated by a sig-qualified exact fingerprint match plus shape
  /// re-validation, so materialization is byte-identical to solving. Not
  /// owned; must be thread-safe (it is) and outlive the analyze() call.
  /// Ignored when Terminate is set: phase 4 mutates across group
  /// boundaries, outside the per-group reuse model.
  ResultStore *Store = nullptr;

  static AnalysisRequest fromDriverOptions(const analysis::DriverOptions &O) {
    AnalysisRequest R;
    R.QuickTests = O.QuickTests;
    R.Refine = O.Refine;
    R.Cover = O.Cover;
    R.Kill = O.Kill;
    R.Terminate = O.Terminate;
    return R;
  }
};

/// The legacy result plus per-run execution metrics.
struct AnalysisResult : analysis::AnalysisResult {
  /// Omega work done by this run, merged over the worker contexts.
  OmegaStats Stats;
  /// Cache traffic of this run alone (all zero when the cache is off).
  QueryCacheStats Cache;
  /// Entries resident in the engine's cache after the run.
  std::uint64_t CacheEntries = 0;
  /// Delta accounting against AnalysisRequest::Previous (Active only
  /// when it was set).
  DeltaMetrics Delta;
  /// This version's fingerprints (null unless Previous was set). Shared
  /// so the serving stack can retain them per session while the result
  /// itself is dropped.
  std::shared_ptr<const VersionFingerprints> Fingerprints;
};

class DependenceEngine {
public:
  explicit DependenceEngine(const AnalysisRequest &Req = AnalysisRequest());
  ~DependenceEngine();

  DependenceEngine(const DependenceEngine &) = delete;
  DependenceEngine &operator=(const DependenceEngine &) = delete;

  /// Runs the full pipeline over \p AP. May be called repeatedly; the
  /// query cache persists across calls, so re-analyses hit it.
  AnalysisResult analyze(const ir::AnalyzedProgram &AP);

  /// Re-points the pipeline and tier toggles (QuickTests, Refine, Cover,
  /// Kill, Terminate, PairQuickTests), the
  /// reuse fields (Previous, Store), and the active worker
  /// count (Jobs, clamped to the pool built at construction) at \p O's values
  /// without rebuilding the pool or cache. The serving stack uses this
  /// to honor per-request options on a long-lived engine; the remaining
  /// structural fields (UseQueryCache, SharedCache, Trace) are fixed at
  /// construction and ignored here.
  void applyOptions(const AnalysisRequest &O);

  /// Attaches \p T (null detaches) for subsequent analyze() calls:
  /// re-points the request's Trace and registers per-worker buffers on
  /// the long-lived pool. This is the one exception to "Trace is fixed at
  /// construction" -- omega-serve's slow-request capture traces a single
  /// request on an otherwise trace-disabled engine. Each engine is owned
  /// by exactly one server worker, so attach/analyze/detach never races.
  /// Must not be called while analyze() is in flight.
  void setTracer(obs::Tracer *T);

  /// Effective worker count: Jobs resolved against the hardware and
  /// clamped to the pool's capability.
  unsigned jobs() const;

  /// The pool's capability: the most workers a request can ask for.
  unsigned maxJobs() const;

  const AnalysisRequest &request() const { return Req; }

  /// The engine's cache (owned or shared), or null when caching is off.
  QueryCache *cache() { return Cache; }

private:
  AnalysisRequest Req;
  std::unique_ptr<QueryCache> OwnedCache;
  QueryCache *Cache = nullptr;
  std::unique_ptr<WorkerPool> Pool;
};

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_DEPENDENCEENGINE_H
