//===- perfbench/common.cpp - Statistics, inputs and allocation counting -===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "oracle/Generate.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <type_traits>

namespace {

std::atomic<bool> CountingAllocations{false};
std::atomic<std::uint64_t> AllocationCount{0};

} // namespace

// The counting operator new: one relaxed flag load per allocation when
// not counting, so untraced runs pay no more than the library's own
// operator new.
void *operator new(std::size_t N) {
  if (CountingAllocations.load(std::memory_order_relaxed))
    AllocationCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace perfbench {

void startCountingAllocations() {
  AllocationCount.store(0, std::memory_order_relaxed);
  CountingAllocations.store(true, std::memory_order_relaxed);
}

std::uint64_t stopCountingAllocations() {
  CountingAllocations.store(false, std::memory_order_relaxed);
  return AllocationCount.load(std::memory_order_relaxed);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

unsigned runPasses(const Options &O,
                   const std::function<void(bool Traced)> &Pass) {
  Clock::time_point Start = Clock::now();
  double LastPassMs = 0;
  unsigned TracedPasses = 0;
  for (unsigned N = 0;; ++N) {
    if (N &&
        msBetween(Start, Clock::now()) + LastPassMs / 2 >= O.Seconds * 1000 &&
        (!O.Trace || TracedPasses))
      return TracedPasses;
    bool Traced = O.Trace && N % 2 == 1;
    Clock::time_point A = Clock::now();
    Pass(Traced);
    LastPassMs = msBetween(A, Clock::now());
    TracedPasses += Traced;
  }
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

namespace {

/// Percentile \p Q of sorted \p V: the mean of the five values around
/// its nearest rank, so that no single operation's noise decides it.
double percentile(const std::vector<double> &V, double Q) {
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * V.size()));
  std::size_t Mid = std::min(V.size() - 1, Rank ? Rank - 1 : 0);
  std::size_t Lo = Mid >= 2 ? Mid - 2 : 0;
  std::size_t Hi = std::min(V.size() - 1, Mid + 2);
  double Sum = 0;
  for (std::size_t I = Lo; I <= Hi; ++I)
    Sum += V[I];
  return Sum / (Hi - Lo + 1);
}

} // namespace

double fastest(const std::vector<double> &Samples) {
  return *std::min_element(Samples.begin(), Samples.end());
}

double opsPerSecond(const std::vector<std::vector<double>> &PerOpMs) {
  double Ms = 0;
  for (const std::vector<double> &Samples : PerOpMs)
    Ms += fastest(Samples);
  return Ms > 0 ? 1000 * PerOpMs.size() / Ms : 0;
}

void setEndToEnd(Report &R, double OpsPerS,
                 const std::vector<std::vector<double>> &PerOpMs,
                 std::vector<double> SetupSeconds) {
  std::vector<double> LatencyMs;
  std::size_t Samples = 0;
  for (const std::vector<double> &S : PerOpMs) {
    LatencyMs.push_back(fastest(S));
    Samples += S.size();
  }
  std::sort(LatencyMs.begin(), LatencyMs.end());
  R.set("ops_per_s", OpsPerS);
  if (!LatencyMs.empty()) {
    // The tail is p99 when at least 10 samples lie beyond it; with fewer
    // samples it is the highest percentile that still has 10 beyond it.
    double N = static_cast<double>(LatencyMs.size());
    double Tail = N >= 1000 ? 0.99 : std::max(0.5, 1.0 - 10.0 / N);
    R.set("latency_p50_ms", percentile(LatencyMs, 0.5));
    R.set("latency_p99_ms", percentile(LatencyMs, Tail));
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "latency: %zu operations, fastest of %zu samples; "
                  "latency_p99_ms is the p%.2f",
                  LatencyMs.size(), Samples, Tail * 100);
    R.Notes.push_back(Buf);
  }
  R.set("setup_s", median(SetupSeconds));
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "setup: median of %zu set-ups",
                SetupSeconds.size());
  R.Notes.push_back(Buf);
  R.set("peak_rss_mb", peakRssMb());
}

namespace {

/// Keywords are case-insensitive; identifiers are not.
std::string lower(std::string Word) {
  for (char &C : Word)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Word;
}

bool isKeyword(const std::string &Word) {
  static const char *const Keywords[] = {"for",  "to",  "do",  "endfor",
                                         "step", "min", "max", "symbolic"};
  std::string Lower = lower(Word);
  for (const char *K : Keywords)
    if (Lower == K)
      return true;
  return false;
}

/// Token spans of a tiny-language source: identifiers and integer
/// literals (comments skipped).
struct Token {
  std::size_t Pos, Len;
  bool Ident;
};

std::vector<Token> tokenize(const std::string &Src) {
  std::vector<Token> Out;
  for (std::size_t I = 0; I < Src.size();) {
    unsigned char C = static_cast<unsigned char>(Src[I]);
    if (C == '#') {
      while (I < Src.size() && Src[I] != '\n')
        ++I;
    } else if (std::isalpha(C) || C == '_') {
      std::size_t B = I;
      while (I < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[I])) ||
              Src[I] == '_'))
        ++I;
      Out.push_back({B, I - B, true});
    } else if (std::isdigit(C)) {
      std::size_t B = I;
      while (I < Src.size() && std::isdigit(static_cast<unsigned char>(Src[I])))
        ++I;
      Out.push_back({B, I - B, false});
    } else {
      ++I;
    }
  }
  return Out;
}

} // namespace

std::string renameProgram(const std::string &Src, std::mt19937 &Rng,
                          std::map<std::string, std::string> *Map) {
  std::map<std::string, std::string> Names;
  std::string Out;
  std::size_t Copied = 0;
  for (const Token &T : tokenize(Src)) {
    if (!T.Ident)
      continue;
    std::string Word = Src.substr(T.Pos, T.Len);
    if (isKeyword(Word))
      continue;
    auto [It, Fresh] = Names.try_emplace(Word);
    if (Fresh) {
      // Two random letters and a sequence number: unique, and never a
      // keyword because it ends in a digit.
      std::uniform_int_distribution<int> Letter(0, 25);
      It->second = std::string(1, static_cast<char>('a' + Letter(Rng))) +
                   static_cast<char>('a' + Letter(Rng)) +
                   std::to_string(Names.size());
    }
    Out.append(Src, Copied, T.Pos - Copied);
    Out += It->second;
    Copied = T.Pos + T.Len;
  }
  Out.append(Src, Copied, std::string::npos);
  if (Map)
    *Map = std::move(Names);
  return Out;
}

bool bumpConstant(std::string &Src, std::mt19937 &Rng) {
  std::vector<Token> Tokens = tokenize(Src);
  std::vector<const Token *> Bounds, Any;
  for (std::size_t I = 0; I != Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Ident)
      continue;
    Any.push_back(&T);
    // An upper bound: the previous token is `to` with only blanks between.
    const Token *Prev = I ? &Tokens[I - 1] : nullptr;
    if (Prev && Prev->Ident &&
        lower(Src.substr(Prev->Pos, Prev->Len)) == "to" &&
        Src.find_first_not_of(" \t", Prev->Pos + Prev->Len) == T.Pos)
      Bounds.push_back(&T);
  }
  const std::vector<const Token *> &Pool = Bounds.empty() ? Any : Bounds;
  if (Pool.empty())
    return false;
  const Token &T = *Pool[std::uniform_int_distribution<std::size_t>(
      0, Pool.size() - 1)(Rng)];
  long long V = std::stoll(Src.substr(T.Pos, T.Len));
  Src.replace(T.Pos, T.Len, std::to_string(V + 1));
  return true;
}

std::vector<SourceProgram> corpusPrograms() {
  std::vector<SourceProgram> Out;
  for (const omega::kernels::Kernel &K : omega::kernels::corpus())
    Out.push_back({K.Name, K.Source});
  return Out;
}

std::vector<SourceProgram> generatedPrograms(unsigned Count,
                                             unsigned MaxDepth) {
  // Fixed population seed: a fresh draw per --seed moved analyze_cold
  // ops_per_s between 46 and 106 programs/s over eight seeds, because a
  // few generated nests cost up to 1.9 s each. The seed renames instead.
  constexpr unsigned PopulationSeed = 1992;
  omega::oracle::RandomProgramConfig Cfg;
  Cfg.MaxDepth = MaxDepth;
  omega::oracle::ProgramGenerator Gen(PopulationSeed + MaxDepth, Cfg);
  std::vector<SourceProgram> Out;
  for (unsigned I = 0; I != Count; ++I)
    Out.push_back({"gen" + std::to_string(I), Gen.generate()});
  return Out;
}

TracerTimes tracerTimes(const omega::obs::Tracer &T) {
  using omega::obs::SpanKind;
  static const std::map<SpanKind, const char *> Names = {
      {SpanKind::Sat, "omega.sat_ms"},
      {SpanKind::Projection, "omega.projection_ms"},
      {SpanKind::Gist, "omega.gist_self_ms"},
      {SpanKind::FMEliminate, "omega.fm_ms"},
      {SpanKind::Splinter, "omega.splinter_ms"},
      {SpanKind::EqSolve, "omega.eq_solve_ms"},
      {SpanKind::Kill, "analysis.kill_ms"},
      {SpanKind::Cover, "analysis.cover_ms"},
      {SpanKind::Refine, "analysis.refine_ms"},
      {SpanKind::SnapshotBuild, "deps.snapshot_build_ms"},
      {SpanKind::QuickTest, "deps.quicktest_ms"},
      {SpanKind::EngineTask, "engine.task_self_ms"},
  };
  TracerTimes Out;
  for (const auto &[Kind, Name] : Names)
    Out.SelfMs[Name] = 0;
  for (const omega::obs::ProfilePhase &P : T.profile().Phases) {
    auto It = Names.find(P.Kind);
    if (It != Names.end())
      Out.SelfMs[It->second] += P.SelfMs;
    Out.SelfTotalMs += P.SelfMs;
  }
  for (const omega::obs::TraceEvent &E : T.mergedEvents())
    if (E.Depth == 0)
      Out.SpannedMs += E.DurNs / 1e6;
  return Out;
}

std::uint64_t fnv1a(const std::string &Bytes) {
  std::uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

void setStatsMetrics(Report &R, const omega::OmegaStats &S) {
  auto Ratio = [](double Num, double Den) { return Den ? Num / Den : 0; };
  R.set("omega.sat_calls", S.SatisfiabilityCalls);
  R.set("omega.projection_calls", S.ProjectionCalls);
  R.set("omega.exact_eliminations", S.ExactEliminations);
  R.set("omega.inexact_eliminations", S.InexactEliminations);
  R.set("omega.splinters", S.SplintersExplored);
  R.set("omega.mod_hat_substitutions", S.ModHatSubstitutions);
  R.set("deps.snapshot_reuse_ratio",
        Ratio(S.SnapshotReuses, S.SnapshotReuses + S.SnapshotFallbacks));
  R.set("deps.quicktest_decided", S.QuickTestDecided);
  R.set("omega.query_cache.sat_hit_ratio",
        Ratio(S.SatCacheHits, S.SatCacheHits + S.SatCacheMisses));
  R.set("omega.gist_fast_drops", S.GistFastDrops);
  R.set("omega.gist_sat_tests", S.GistSatTests);
  R.set("omega.dark_shadow_decided", S.DarkShadowDecided);
}

std::string statsKey(const omega::OmegaStats &S) {
  static_assert(std::has_unique_object_representations_v<omega::OmegaStats>,
                "OmegaStats must be plain counters with no padding");
  return std::string(reinterpret_cast<const char *>(&S), sizeof(S));
}

} // namespace perfbench
