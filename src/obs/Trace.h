//===- obs/Trace.h - Context-scoped tracing for the Omega core -----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight tracing and profiling layer for the Omega core and the
/// dependence engine. The design mirrors the paper's evaluation style:
/// Figure 6 classifies every dependence query by how hard the Omega test
/// worked, and Section 6 reports where time goes -- here every decision
/// procedure entry point records a *span* (monotonic-clock duration,
/// nesting depth, the OmegaStats counter movement across the span, cache
/// hit/miss tags and the constraint problem size at entry), and the
/// Section 4 pipeline records *decision* events explaining which mechanism
/// settled each array pair.
///
/// Recording is context-scoped and lock-free: an OmegaContext optionally
/// points at a TraceBuffer, and every buffer has exactly one writer (the
/// thread owning the context), so recording never takes a lock. A Tracer
/// owns the buffers of a run -- the engine registers one per worker -- and
/// merges them deterministically afterwards: events carry a (task key,
/// sequence) pair assigned in the serial enumeration order of the engine's
/// work items, so the merged stream is identical for every worker count.
///
/// With no tracer attached (Ctx.Trace == nullptr) the instrumentation is a
/// single inlined null check per site: no span is recorded, nothing is
/// allocated, and the hot path is unchanged (TracerTest pins this down
/// with the same thread-local counter trick SmallCoeffVector uses for its
/// zero-allocation property).
///
/// Three sinks consume a Tracer:
///  * chromeTraceJson(): Chrome trace_event JSON, loadable in
///    chrome://tracing or Perfetto, one track per registered buffer;
///  * profileReport(): per-phase wall time (self and inclusive), call
///    counts, cache hit rates and a Figure-6-style query classification,
///    as text or JSON;
///  * explainLog(): per work item, which mechanism decided the outcome
///    (dark shadow, real shadow, gist fast-check, kill/cover, refinement)
///    with the constraint problem sizes involved.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OBS_TRACE_H
#define OMEGA_OBS_TRACE_H

#include "omega/OmegaStats.h"

#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace omega {
namespace obs {

/// What a span measures. Scoped spans cover the decision-procedure entry
/// points and the engine's work items; Decision is a zero-duration event
/// recording *why* an outcome happened (the explain log's raw material).
enum class SpanKind : uint8_t {
  Sat,        ///< isSatisfiable entry
  Projection, ///< projectOntoMask entry
  Gist,       ///< gist entry
  FMEliminate,///< one Fourier-Motzkin variable elimination
  Splinter,   ///< exploration of one splinter problem
  EqSolve,    ///< solveEqualities entry
  Kill,       ///< Section 4.1/4.3 kill / terminate predicate
  Cover,      ///< Section 4.2 coverage predicate
  Refine,     ///< Section 4.4 refinement of one dependence
  SnapshotBuild, ///< never opened; kept until the next bench change
  QuickTest,  ///< ZIV/GCD/bounds pre-filter over one pair
  EngineTask, ///< one engine work item (pair / flow / kill group)
  Decision,   ///< instant event: a mechanism decided an outcome
  NumKinds
};

const char *spanKindName(SpanKind K);

/// Whether a sat/gist span was answered from the QueryCache.
enum class CacheTag : uint8_t { None, Hit, Miss };

/// One recorded span (or instant decision event).
struct TraceEvent {
  SpanKind Kind = SpanKind::Sat;
  CacheTag Cache = CacheTag::None;
  uint16_t Depth = 0;    ///< nesting depth inside the buffer at begin
  uint32_t Vars = 0;     ///< problem size at entry: live variables ...
  uint32_t Rows = 0;     ///< ... and constraint rows
  uint64_t TaskKey = 0;  ///< deterministic work-item key (merge order)
  uint32_t Seq = 0;      ///< event sequence within the task
  uint64_t StartNs = 0;  ///< monotonic, relative to the buffer's epoch
  uint64_t DurNs = 0;    ///< 0 for Decision events
  uint64_t ChildNs = 0;  ///< summed duration of direct children
  OmegaStats Delta;      ///< counter movement across the span
  std::string Label;     ///< pair names / decision mechanism

  uint64_t selfNs() const { return DurNs > ChildNs ? DurNs - ChildNs : 0; }
};

/// A single-writer event buffer, one per OmegaContext that traces. All
/// recording methods must be called from the one thread owning the
/// context; no synchronization happens on this path.
class TraceBuffer {
public:
  TraceBuffer(std::string TrackName, const OmegaStats *Stats,
              uint64_t DefaultTaskKey,
              std::chrono::steady_clock::time_point Epoch)
      : Name(std::move(TrackName)), Stats(Stats), Epoch(Epoch),
        CurTask(DefaultTaskKey), DefaultTask(DefaultTaskKey) {}

  /// Events recorded by this thread through any TraceBuffer since thread
  /// start. Tests diff it around an operation to prove that a disabled
  /// tracer records nothing (the SmallCoeffVector spill-counter trick).
  static uint64_t &eventsRecordedThisThread() {
    thread_local uint64_t Count = 0;
    return Count;
  }

  const std::string &trackName() const { return Name; }
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Opens a span; returns its event index for endSpan(). Depth is the
  /// number of currently open spans in this buffer.
  unsigned beginSpan(SpanKind K, uint32_t Vars = 0, uint32_t Rows = 0) {
    unsigned Idx = static_cast<unsigned>(Events.size());
    ++eventsRecordedThisThread();
    TraceEvent &E = Events.emplace_back();
    E.Kind = K;
    E.Vars = Vars;
    E.Rows = Rows;
    E.Depth = static_cast<uint16_t>(Open.size());
    E.TaskKey = CurTask;
    E.Seq = NextSeq++;
    E.StartNs = nowNs();
    Open.push_back({Idx, Stats ? *Stats : OmegaStats()});
    return Idx;
  }

  void endSpan(unsigned Idx) {
    assert(!Open.empty() && Open.back().EventIdx == Idx &&
           "spans must close in LIFO order");
    TraceEvent &E = Events[Idx];
    E.DurNs = nowNs() - E.StartNs;
    if (Stats) {
      E.Delta = *Stats;
      E.Delta.subtract(Open.back().StatsAtBegin);
    }
    Open.pop_back();
    if (!Open.empty())
      Events[Open.back().EventIdx].ChildNs += E.DurNs;
  }

  void setCache(unsigned Idx, CacheTag T) { Events[Idx].Cache = T; }
  void setLabel(unsigned Idx, std::string L) {
    Events[Idx].Label = std::move(L);
  }

  /// Records an instant decision event ("dark-shadow: satisfiable",
  /// "killed by cover", ...) attributed to the current task.
  void decision(std::string Mechanism, uint32_t Vars = 0, uint32_t Rows = 0) {
    ++eventsRecordedThisThread();
    TraceEvent &E = Events.emplace_back();
    E.Kind = SpanKind::Decision;
    E.Vars = Vars;
    E.Rows = Rows;
    E.Depth = static_cast<uint16_t>(Open.size());
    E.TaskKey = CurTask;
    E.Seq = NextSeq++;
    E.StartNs = nowNs();
    E.Label = std::move(Mechanism);
  }

  /// Enters work item \p Key: subsequent events carry it and restart the
  /// sequence counter, which is what makes the merged order independent of
  /// which worker claimed the task. Returns the previous (key, seq) for
  /// endTask().
  std::pair<uint64_t, uint32_t> beginTask(uint64_t Key) {
    auto Prev = std::make_pair(CurTask, NextSeq);
    CurTask = Key;
    NextSeq = 0;
    return Prev;
  }
  void endTask(std::pair<uint64_t, uint32_t> Prev) {
    CurTask = Prev.first;
    NextSeq = Prev.second;
  }

private:
  friend class Tracer;

  struct OpenSpan {
    unsigned EventIdx;
    OmegaStats StatsAtBegin;
  };

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  std::string Name;
  const OmegaStats *Stats;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<TraceEvent> Events;
  std::vector<OpenSpan> Open;
  uint64_t CurTask;
  uint64_t DefaultTask;
  uint32_t NextSeq = 0;
};

/// Aggregated per-kind profile row (built by Tracer::profile()).
struct ProfilePhase {
  SpanKind Kind;
  uint64_t Calls = 0;
  double SelfMs = 0;  ///< duration minus direct children
  double InclMs = 0;  ///< full span duration
};

/// Figure-6-style classification of the satisfiability queries, derived
/// from the per-span counter deltas. CacheHit + Exact + General +
/// Splintered always equals the merged SatisfiabilityCalls counter.
struct QueryClasses {
  uint64_t CacheHit = 0;   ///< answered by the QueryCache
  uint64_t Exact = 0;      ///< only exact eliminations (no Omega "general test")
  uint64_t General = 0;    ///< inexact elimination, shadows decided
  uint64_t Splintered = 0; ///< had to explore splinters
  uint64_t total() const { return CacheHit + Exact + General + Splintered; }
};

struct ProfileData {
  std::vector<ProfilePhase> Phases; ///< only kinds with at least one span
  QueryClasses Classes;
  OmegaStats Stats; ///< summed per-span deltas of top-level spans
};

/// Owns the trace buffers of one run and renders the three sinks. Buffer
/// registration is mutex-guarded (workers register once at pool
/// construction); everything else assumes recording has quiesced.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Creates a buffer whose spans snapshot \p Stats (the owning context's
  /// counters) for per-span deltas. Events recorded outside any engine
  /// task sort after all task events, grouped by registration order.
  TraceBuffer &registerBuffer(std::string TrackName, const OmegaStats *Stats);

  /// Every event of every buffer in deterministic order: sorted by
  /// (TaskKey, Seq). Task keys are assigned in the engine's serial
  /// enumeration order, so the result is identical for every worker
  /// count; ties cannot occur because one task runs on exactly one worker.
  std::vector<TraceEvent> mergedEvents() const;

  /// Sink 1: Chrome trace_event JSON (chrome://tracing, Perfetto). One
  /// track (tid) per registered buffer, named after it.
  std::string chromeTraceJson() const;

  /// Sink 2 input: aggregated per-phase times, query classification and
  /// summed counters.
  ProfileData profile() const;

  /// Sink 2: the profile as a text table or a JSON object. \p WallMs < 0
  /// omits the wall-time field.
  std::string profileReport(bool Json, double WallMs = -1,
                            unsigned Jobs = 1) const;

  /// Sink 3: the explain log -- one block per engine work item, listing
  /// the deciding mechanisms and the problem sizes involved.
  std::string explainLog() const;

private:
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<std::unique_ptr<TraceBuffer>> Buffers;
};

//===----------------------------------------------------------------------===//
// Zero-overhead instrumentation helpers
//===----------------------------------------------------------------------===//

/// RAII span: a no-op (one null check, nothing recorded, nothing
/// allocated) when \p B is null.
class ScopedSpan {
public:
  ScopedSpan(TraceBuffer *B, SpanKind K, uint32_t Vars = 0, uint32_t Rows = 0)
      : B(B) {
    if (B)
      Idx = B->beginSpan(K, Vars, Rows);
  }
  ~ScopedSpan() {
    if (B)
      B->endSpan(Idx);
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void cache(CacheTag T) {
    if (B)
      B->setCache(Idx, T);
  }
  void label(const char *L) {
    if (B)
      B->setLabel(Idx, L);
  }

private:
  TraceBuffer *B;
  unsigned Idx = 0;
};

/// RAII work-item scope: tags everything recorded inside with \p Key and
/// wraps it in an EngineTask span labelled \p Label.
class TaskScope {
public:
  TaskScope(TraceBuffer *B, uint64_t Key, std::string Label) : B(B) {
    if (B) {
      Prev = B->beginTask(Key);
      Idx = B->beginSpan(SpanKind::EngineTask);
      B->setLabel(Idx, std::move(Label));
    }
  }
  ~TaskScope() {
    if (B) {
      B->endSpan(Idx);
      B->endTask(Prev);
    }
  }

  TaskScope(const TaskScope &) = delete;
  TaskScope &operator=(const TaskScope &) = delete;

private:
  TraceBuffer *B;
  unsigned Idx = 0;
  std::pair<uint64_t, uint32_t> Prev;
};

} // namespace obs
} // namespace omega

#endif // OMEGA_OBS_TRACE_H
