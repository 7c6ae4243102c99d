//===- omega/OmegaContext.h - Execution context for the Omega core -------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An OmegaContext carries the per-computation state of the Omega core:
/// the statistics counters and an optional handle to a shared QueryCache
/// that memoizes satisfiability and gist answers. Every decision-procedure
/// entry point (isSatisfiable, projectOnto*, gist, ...) takes a context
/// parameter defaulted to the calling thread's *current* context, so
///
///  * single-threaded code can ignore contexts entirely (the default
///    context behaves exactly like the old global state), and
///  * concurrent analyses give each worker its own context -- stats never
///    bleed between threads, while a cache may be shared (the cache is the
///    only internally synchronized piece).
///
/// The thread-local current context is installed with OmegaContextScope;
/// without a scope, current() is the process-wide default context. The
/// engine's worker pool installs one scope per worker thread, which is how
/// deep call chains (refinement, kills, dep spaces) pick up the worker's
/// context without every intermediate function naming it.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_OMEGACONTEXT_H
#define OMEGA_OMEGA_OMEGACONTEXT_H

#include "omega/OmegaStats.h"

namespace omega {

class QueryCache;

namespace obs {
class TraceBuffer;
} // namespace obs

class OmegaContext {
public:
  /// Counters for this context's computations. Not synchronized: a context
  /// must only be used from one thread at a time.
  OmegaStats Stats;

  /// Optional memoization cache consulted by isSatisfiable() and gist().
  /// The cache itself is concurrency-safe and may be shared by several
  /// contexts; null disables memoization. Not owned.
  QueryCache *Cache = nullptr;

  /// Optional trace buffer recording spans for this context's queries
  /// (see obs/Trace.h). Null disables tracing: instrumented sites guard
  /// every record with an inlined null check, so the disabled path costs
  /// one branch and never allocates. Single-writer like Stats. Not owned.
  obs::TraceBuffer *Trace = nullptr;

  /// Ablation toggle for the ZIV/GCD/bounds pre-filter PairSolver runs
  /// before each dependence query. The engine, the CLI flags and the calc
  /// directives all steer this one switch. The tier is sound and
  /// result-identical; the toggle exists for benchmarking and attribution.
  bool PairQuickTests = true;

  OmegaContext() = default;
  explicit OmegaContext(QueryCache *Cache) : Cache(Cache) {}

  /// The process-wide default context, used by threads that never install
  /// a scope. Single-threaded legacy behavior: all counters land here.
  static OmegaContext &defaultContext();

  /// The calling thread's current context: the innermost active
  /// OmegaContextScope's context, or defaultContext() when none is active.
  static OmegaContext &current();
};

/// RAII installer: makes \p Ctx the calling thread's current context for
/// the scope's lifetime, restoring the previous one on destruction.
class OmegaContextScope {
public:
  explicit OmegaContextScope(OmegaContext &Ctx);
  ~OmegaContextScope();

  OmegaContextScope(const OmegaContextScope &) = delete;
  OmegaContextScope &operator=(const OmegaContextScope &) = delete;

private:
  OmegaContext *Prev;
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGACONTEXT_H
