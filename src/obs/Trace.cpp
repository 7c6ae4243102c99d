//===- obs/Trace.cpp - Trace merge and the three sinks --------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace omega;
using namespace omega::obs;

const char *obs::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Sat:
    return "sat";
  case SpanKind::Projection:
    return "projection";
  case SpanKind::Gist:
    return "gist";
  case SpanKind::FMEliminate:
    return "fm-eliminate";
  case SpanKind::Splinter:
    return "splinter";
  case SpanKind::EqSolve:
    return "eq-solve";
  case SpanKind::Kill:
    return "kill";
  case SpanKind::Cover:
    return "cover";
  case SpanKind::Refine:
    return "refine";
  case SpanKind::QuickTest:
    return "quick-test";
  case SpanKind::EngineTask:
    return "engine-task";
  case SpanKind::Decision:
    return "decision";
  case SpanKind::SnapshotBuild:
  case SpanKind::NumKinds:
    break;
  }
  return "?";
}

TraceBuffer &Tracer::registerBuffer(std::string TrackName,
                                    const OmegaStats *Stats) {
  std::lock_guard<std::mutex> Lock(M);
  // Events recorded outside any engine task (calculator queries, the
  // engine's serial sections) sort after all task-keyed events, grouped by
  // registration order.
  uint64_t DefaultKey = (0xFFull << 56) | Buffers.size();
  Buffers.push_back(std::make_unique<TraceBuffer>(std::move(TrackName), Stats,
                                                  DefaultKey, Epoch));
  return *Buffers.back();
}

std::vector<TraceEvent> Tracer::mergedEvents() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<TraceEvent> All;
  std::size_t N = 0;
  for (const auto &B : Buffers)
    N += B->events().size();
  All.reserve(N);
  for (const auto &B : Buffers)
    All.insert(All.end(), B->events().begin(), B->events().end());
  // One task runs on exactly one worker and Seq restarts per task, so
  // (TaskKey, Seq) is a total order independent of worker assignment.
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.TaskKey != B.TaskKey)
                       return A.TaskKey < B.TaskKey;
                     return A.Seq < B.Seq;
                   });
  return All;
}

//===----------------------------------------------------------------------===//
// Sink 1: Chrome trace_event JSON
//===----------------------------------------------------------------------===//

namespace {

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendF(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

} // namespace

std::string Tracer::chromeTraceJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };

  Sep();
  Out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"omega\"}}";
  for (std::size_t I = 0; I != Buffers.size(); ++I) {
    Sep();
    appendF(Out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"",
            I + 1);
    appendJsonEscaped(Out, Buffers[I]->trackName());
    Out += "\"}}";
  }

  for (std::size_t I = 0; I != Buffers.size(); ++I) {
    for (const TraceEvent &E : Buffers[I]->events()) {
      Sep();
      bool Instant = E.Kind == SpanKind::Decision;
      appendF(Out, "{\"name\":\"");
      if (Instant)
        appendJsonEscaped(Out, E.Label.empty() ? "decision" : E.Label);
      else
        Out += spanKindName(E.Kind);
      appendF(Out,
              "\",\"cat\":\"omega\",\"ph\":\"%s\",\"pid\":1,\"tid\":%zu,"
              "\"ts\":%.3f",
              Instant ? "i" : "X", I + 1, E.StartNs / 1000.0);
      if (Instant)
        Out += ",\"s\":\"t\"";
      else
        appendF(Out, ",\"dur\":%.3f", E.DurNs / 1000.0);
      appendF(Out, ",\"args\":{\"vars\":%u,\"rows\":%u", E.Vars, E.Rows);
      if (E.Cache != CacheTag::None)
        appendF(Out, ",\"cache\":\"%s\"",
                E.Cache == CacheTag::Hit ? "hit" : "miss");
      if (!Instant && !E.Label.empty()) {
        Out += ",\"label\":\"";
        appendJsonEscaped(Out, E.Label);
        Out += "\"";
      }
      Out += "}}";
    }
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Sink 2: aggregated profile
//===----------------------------------------------------------------------===//

ProfileData Tracer::profile() const {
  std::lock_guard<std::mutex> Lock(M);
  ProfileData P;
  ProfilePhase Rows[static_cast<unsigned>(SpanKind::NumKinds)];
  for (unsigned K = 0; K != static_cast<unsigned>(SpanKind::NumKinds); ++K)
    Rows[K].Kind = static_cast<SpanKind>(K);

  for (const auto &B : Buffers) {
    const std::vector<TraceEvent> &Events = B->events();

    // Reconstruct nesting from recorded depths: for each span, its *own*
    // counter delta is the recorded delta minus the deltas of its direct
    // children. Sat spans are classified by their own delta, so a query
    // whose nested gist-sat-test splintered is not itself "splintered".
    std::vector<OmegaStats> Own(Events.size());
    std::vector<std::size_t> Stack; // indices of open ancestors
    for (std::size_t I = 0; I != Events.size(); ++I) {
      const TraceEvent &E = Events[I];
      if (E.Kind == SpanKind::Decision)
        continue;
      while (!Stack.empty() && Events[Stack.back()].Depth >= E.Depth)
        Stack.pop_back();
      Own[I] = E.Delta;
      if (!Stack.empty())
        Own[Stack.back()].subtract(E.Delta);
      Stack.push_back(I);
    }

    for (std::size_t I = 0; I != Events.size(); ++I) {
      const TraceEvent &E = Events[I];
      if (E.Kind == SpanKind::Decision)
        continue;
      ProfilePhase &R = Rows[static_cast<unsigned>(E.Kind)];
      ++R.Calls;
      R.SelfMs += E.selfNs() / 1e6;
      R.InclMs += E.DurNs / 1e6;
      if (E.Depth == 0)
        P.Stats.merge(E.Delta);
      if (E.Kind == SpanKind::Sat) {
        if (E.Cache == CacheTag::Hit)
          ++P.Classes.CacheHit;
        else if (Own[I].SplintersExplored > 0)
          ++P.Classes.Splintered;
        else if (Own[I].InexactEliminations > 0)
          ++P.Classes.General;
        else
          ++P.Classes.Exact;
      }
    }
  }

  for (const ProfilePhase &R : Rows)
    if (R.Calls != 0)
      P.Phases.push_back(R);
  return P;
}

std::string Tracer::profileReport(bool Json, double WallMs,
                                  unsigned Jobs) const {
  ProfileData P = profile();
  const OmegaStats &S = P.Stats;
  std::string Out;

  if (Json) {
    Out += "{\n  \"schema\": 1";
    if (WallMs >= 0)
      appendF(Out, ",\n  \"wall_ms\": %.3f", WallMs);
    appendF(Out, ",\n  \"jobs\": %u", Jobs);
    Out += ",\n  \"phases\": [";
    for (std::size_t I = 0; I != P.Phases.size(); ++I) {
      const ProfilePhase &R = P.Phases[I];
      appendF(Out,
              "%s\n    {\"name\": \"%s\", \"calls\": %" PRIu64
              ", \"self_ms\": %.3f, \"incl_ms\": %.3f}",
              I ? "," : "", spanKindName(R.Kind), R.Calls, R.SelfMs, R.InclMs);
    }
    Out += "\n  ]";
    appendF(Out,
            ",\n  \"classes\": {\"cache_hit\": %" PRIu64 ", \"exact\": %" PRIu64
            ", \"general\": %" PRIu64 ", \"splintered\": %" PRIu64
            ", \"total\": %" PRIu64 "}",
            P.Classes.CacheHit, P.Classes.Exact, P.Classes.General,
            P.Classes.Splintered, P.Classes.total());
    Out += ",\n  \"stats\": {";
    struct {
      const char *Name;
      uint64_t V;
    } Fields[] = {
        {"sat_calls", S.SatisfiabilityCalls},
        {"projection_calls", S.ProjectionCalls},
        {"gist_calls", S.GistCalls},
        {"exact_eliminations", S.ExactEliminations},
        {"inexact_eliminations", S.InexactEliminations},
        {"splinters_explored", S.SplintersExplored},
        {"dark_shadow_decided", S.DarkShadowDecided},
        {"real_shadow_decided", S.RealShadowDecided},
        {"mod_hat_substitutions", S.ModHatSubstitutions},
        {"gist_fast_drops", S.GistFastDrops},
        {"gist_fast_keeps", S.GistFastKeeps},
        {"gist_sat_tests", S.GistSatTests},
        {"sat_cache_hits", S.SatCacheHits},
        {"sat_cache_misses", S.SatCacheMisses},
        {"gist_cache_hits", S.GistCacheHits},
        {"gist_cache_misses", S.GistCacheMisses},
        {"quicktest_ziv", S.QuickTestZIV},
        {"quicktest_gcd", S.QuickTestGCD},
        {"quicktest_bounds", S.QuickTestBounds},
        {"quicktest_trivial_dep", S.QuickTestTrivialDep},
        {"quicktest_decided", S.QuickTestDecided},
    };
    for (std::size_t I = 0; I != sizeof(Fields) / sizeof(Fields[0]); ++I)
      appendF(Out, "%s\n    \"%s\": %" PRIu64, I ? "," : "", Fields[I].Name,
              Fields[I].V);
    Out += "\n  }\n}\n";
    return Out;
  }

  Out += "== Omega profile ==\n";
  if (WallMs >= 0)
    appendF(Out, "wall time: %.3f ms, jobs: %u\n", WallMs, Jobs);
  appendF(Out, "%-14s %10s %12s %12s\n", "phase", "calls", "self ms",
          "incl ms");
  for (const ProfilePhase &R : P.Phases)
    appendF(Out, "%-14s %10" PRIu64 " %12.3f %12.3f\n", spanKindName(R.Kind),
            R.Calls, R.SelfMs, R.InclMs);

  uint64_t SatLookups = S.SatCacheHits + S.SatCacheMisses;
  uint64_t GistLookups = S.GistCacheHits + S.GistCacheMisses;
  appendF(Out, "cache: sat %" PRIu64 "/%" PRIu64 " hits", S.SatCacheHits,
          SatLookups);
  if (SatLookups)
    appendF(Out, " (%.1f%%)", 100.0 * S.SatCacheHits / SatLookups);
  appendF(Out, ", gist %" PRIu64 "/%" PRIu64 " hits", S.GistCacheHits,
          GistLookups);
  if (GistLookups)
    appendF(Out, " (%.1f%%)", 100.0 * S.GistCacheHits / GistLookups);
  Out += "\n";
  appendF(Out,
          "query classes (Figure 6 style): cache-hit %" PRIu64
          ", exact %" PRIu64 ", general %" PRIu64 ", splintered %" PRIu64
          ", total %" PRIu64 " (sat_calls %" PRIu64 ")\n",
          P.Classes.CacheHit, P.Classes.Exact, P.Classes.General,
          P.Classes.Splintered, P.Classes.total(), S.SatisfiabilityCalls);
  appendF(Out,
          "pair tiers: quick-test decided %" PRIu64 " (ziv %" PRIu64
          ", gcd %" PRIu64 ", bounds %" PRIu64 ", trivial %" PRIu64 ")\n",
          S.QuickTestDecided, S.QuickTestZIV, S.QuickTestGCD, S.QuickTestBounds,
          S.QuickTestTrivialDep);
  return Out;
}

//===----------------------------------------------------------------------===//
// Sink 3: explain log
//===----------------------------------------------------------------------===//

std::string Tracer::explainLog() const {
  std::vector<TraceEvent> All = mergedEvents();
  std::string Out;

  std::size_t I = 0;
  while (I != All.size()) {
    uint64_t Key = All[I].TaskKey;
    std::size_t End = I;
    while (End != All.size() && All[End].TaskKey == Key)
      ++End;

    // Header: the work item's label (from its EngineTask span), or a
    // generic banner for events recorded outside any task.
    const std::string *Label = nullptr;
    for (std::size_t J = I; J != End; ++J)
      if (All[J].Kind == SpanKind::EngineTask && !All[J].Label.empty()) {
        Label = &All[J].Label;
        break;
      }

    std::string Block;
    for (std::size_t J = I; J != End; ++J) {
      const TraceEvent &E = All[J];
      if (E.Kind == SpanKind::Decision) {
        Block += "  ";
        Block += E.Label;
      } else if (E.Cache == CacheTag::Hit) {
        Block += "  ";
        Block += spanKindName(E.Kind);
        Block += ": cache hit";
      } else {
        continue;
      }
      if (E.Vars || E.Rows)
        appendF(Block, " (vars=%u rows=%u)", E.Vars, E.Rows);
      Block += "\n";
    }
    if (!Block.empty()) {
      if (Label)
        Out += *Label;
      else if ((Key >> 56) == 0xFF)
        Out += "(outside engine tasks)";
      else
        appendF(Out, "task %" PRIu64, Key);
      Out += ":\n";
      Out += Block;
    }
    I = End;
  }
  if (Out.empty())
    Out = "(no decisions recorded)\n";
  return Out;
}
