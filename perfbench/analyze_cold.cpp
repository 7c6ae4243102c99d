//===- perfbench/analyze_cold.cpp - The omega-analyze path, one program --===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Workload analyze_cold: `omega-analyze --json --pipeline` run in-process,
// one program at a time (closed loop, one client, jobs=1, every other
// option at its CLI default), each program on a fresh DependenceEngine so
// no reuse tier carries work between programs. Inputs: the 30-kernel
// corpus plus 216 generated programs, all renamed by --seed.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "api/Options.h"
#include "api/Response.h"
#include "deps/DependenceAnalysis.h"
#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "obs/Trace.h"
#include "oracle/TraceOracle.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace omega;

namespace perfbench {
namespace {

constexpr unsigned GeneratedCount = 216;

struct Input {
  std::string Name;
  std::string Source;
  oracle::TraceOracleOptions Oracle; ///< symbol bindings for the oracle
  std::string ExpectedResult;        ///< "result" bytes of the first run
  std::string ExpectedStats;         ///< statsKey of the first run
};

/// Wall time of each public call on the path, in milliseconds.
struct Steps {
  double Ir = 0, Engine = 0, Pipelines = 0, Render = 0, Wall = 0;
};

struct Outcome {
  std::string Result;   ///< the deterministic "result" section
  std::string Document; ///< what omega-analyze prints
  engine::AnalysisResult R;
  ir::AnalyzedProgram AP;
  bool Ok = false;
};

/// One program through ir::analyzeSource -> DependenceEngine::analyze ->
/// api::renderResult/renderDocument, as omega-analyze --json --pipeline
/// does it. renderResult plans the pipelines itself; \p ProbePipelines
/// (traced runs only) also times transform::analyzePipelines on its own
/// so the transform layer gets a number.
Outcome analyzeProgram(const std::string &Source, obs::Tracer *Trace,
                       bool ProbePipelines, Steps &S,
                       std::uint64_t *EngineAllocs = nullptr) {
  Outcome Out;
  Clock::time_point T0 = Clock::now();
  Out.AP = ir::analyzeSource(Source);
  Clock::time_point T1 = Clock::now();
  if (!Out.AP.ok())
    return Out;
  api::AnalysisOptions Opts;
  Opts.Json = true;
  Opts.Pipeline = true;
  engine::AnalysisRequest Req = Opts.toEngineRequest();
  Req.Trace = Trace;
  if (EngineAllocs)
    startCountingAllocations();
  double EngineMs;
  unsigned Jobs;
  {
    engine::DependenceEngine Engine(Req);
    if (Engine.cache())
      Engine.cache()->setSnapshotCapacity(Opts.SnapshotCacheCap);
    Clock::time_point A = Clock::now();
    Out.R = Engine.analyze(Out.AP);
    EngineMs = msBetween(A, Clock::now());
    Jobs = Engine.jobs();
  }
  if (EngineAllocs)
    *EngineAllocs = stopCountingAllocations();
  Clock::time_point T2 = Clock::now();
  if (ProbePipelines)
    transform::analyzePipelines(Out.AP, Out.R);
  Clock::time_point T3 = Clock::now();
  Out.Result = api::renderResult(Out.R, &Out.AP);
  Out.Document = api::renderDocument(
      Out.Result, api::renderMetrics(Out.R, Jobs, EngineMs, "", ""));
  Clock::time_point T4 = Clock::now();
  S.Ir = msBetween(T0, T1);
  S.Engine = msBetween(T1, T2);
  S.Pipelines = msBetween(T2, T3);
  S.Render = msBetween(T3, T4);
  S.Wall = msBetween(T0, T4);
  Out.Ok = true;
  return Out;
}

/// Small bindings for symbolic constants so the interpreter can run the
/// kernels: n=5, m=4, anything else 3 (the corpus oracle test's choice).
oracle::TraceOracleOptions oracleBindings(
    const std::string &Original,
    const std::map<std::string, std::string> &Renamed) {
  oracle::TraceOracleOptions Opts;
  ir::AnalyzedProgram AP = ir::analyzeSource(Original);
  for (const std::string &Sym : AP.Source.SymbolicConsts) {
    auto It = Renamed.find(Sym);
    const std::string &Name = It == Renamed.end() ? Sym : It->second;
    Opts.Symbols[Name] = Sym == "n" ? 5 : Sym == "m" ? 4 : 3;
  }
  return Opts;
}

std::vector<Input> makeInputs(unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::vector<SourceProgram> Programs = corpusPrograms();
  for (SourceProgram &P : generatedPrograms(GeneratedCount, 3))
    Programs.push_back(std::move(P));
  std::vector<Input> Inputs;
  for (const SourceProgram &P : Programs) {
    Input In;
    In.Name = P.Name;
    std::map<std::string, std::string> Map;
    In.Source = renameProgram(P.Source, Rng, &Map);
    In.Oracle = oracleBindings(P.Source, Map);
    Inputs.push_back(std::move(In));
  }
  // The order stays fixed (kernels first: set-up warms up on them): the
  // allocator's state after one program changes the speed of the next,
  // and a seeded order moved ops_per_s by itself.
  return Inputs;
}

} // namespace

Report runAnalyzeCold(const Options &O) {
  Report Rep;
  std::vector<Input> Inputs = makeInputs(O.Seed);

  // Reference pass (untimed, not part of set-up): the interpreter trace
  // oracle checks every program it can execute; the rendered result and
  // the solver counters become the expectations of every later run.
  OmegaStats Totals;
  std::string AllStats;
  unsigned Interpreted = 0, Witnesses = 0;
  for (Input &In : Inputs) {
    Steps S;
    Outcome Out = analyzeProgram(In.Source, nullptr, false, S);
    if (!Out.Ok) {
      Rep.fail(In.Name + ": does not analyze");
      continue;
    }
    In.ExpectedResult = Out.Result;
    In.ExpectedStats = statsKey(Out.R.Stats);
    Totals.merge(Out.R.Stats);
    AllStats += In.ExpectedStats;
    deps::DependenceAnalysis DA(Out.AP);
    oracle::TraceReport TR = oracle::checkTraceWitnesses(
        Out.AP, Out.R, DA.computeDependences(deps::DepKind::Flow), In.Oracle);
    if (TR.ExecFailed || TR.Truncated)
      continue; // not interpretable: the byte-identity check still runs
    ++Interpreted;
    Witnesses += TR.WitnessesChecked;
    if (!TR.Mismatches.empty())
      Rep.fail(In.Name + ": trace oracle: " + TR.summary());
  }
  Rep.Attempted += Inputs.size();
  char Digest[64];
  std::snprintf(Digest, sizeof(Digest), "solver counter digest %016llx",
                static_cast<unsigned long long>(fnv1a(AllStats)));
  Rep.Notes.push_back(Digest);
  Rep.Notes.push_back("trace oracle: " + std::to_string(Interpreted) + " of " +
                      std::to_string(Inputs.size()) + " programs executed, " +
                      std::to_string(Witnesses) + " witnesses checked");

  // Set-up: the warm-up the timed loop relies on, the production path
  // over the 30 kernels. It runs before every pass, so its samples spread
  // over the run like the passes'; setup_s is their median.
  std::size_t NumKernels = corpusPrograms().size();
  std::vector<double> Setup;
  auto SetUp = [&] {
    Clock::time_point A = Clock::now();
    for (std::size_t I = 0; I != NumKernels; ++I) {
      Steps S;
      analyzeProgram(Inputs[I].Source, nullptr, false, S);
    }
    Setup.push_back(msBetween(A, Clock::now()) / 1000);
  };

  // One pass analyzes every input once; a pass is the unit of measurement
  // so every run weighs the programs equally.
  auto CheckAndCount = [&](const Input &In, const Outcome &Out) {
    ++Rep.Attempted;
    if (!Out.Ok || Out.Result != In.ExpectedResult)
      Rep.fail(In.Name + ": rendered result differs from the first run");
    else if (statsKey(Out.R.Stats) != In.ExpectedStats)
      Rep.fail(In.Name + ": solver counters differ from the first run");
  };

  // Samples per input, of untraced and (traced runs) traced passes.
  std::vector<std::vector<double>> Untraced(Inputs.size()),
      TracedMs(Inputs.size());
  std::map<std::string, double> Layers;
  double WorstGapPct = 0;

  unsigned TracedPasses = runPasses(O, [&](bool Traced) {
    SetUp();
    for (std::size_t I = 0; I != Inputs.size(); ++I) {
      const Input &In = Inputs[I];
      Steps S;
      if (!Traced) {
        Outcome Out = analyzeProgram(In.Source, nullptr, false, S);
        CheckAndCount(In, Out);
        Untraced[I].push_back(S.Wall);
        continue;
      }
      obs::Tracer Tracer;
      Outcome Out = analyzeProgram(In.Source, &Tracer, true, S);
      CheckAndCount(In, Out);
      TracedMs[I].push_back(S.Wall);
      TracerTimes Spans = tracerTimes(Tracer);
      for (const auto &[Name, Ms] : Spans.SelfMs)
        Layers[Name] += Ms;
      Layers["ir.analyze_source_ms"] += S.Ir;
      Layers["engine.analyze_ms"] += S.Engine;
      Layers["transform.pipelines_ms"] += S.Pipelines;
      Layers["api.render_ms"] += S.Render;
      double Unattributed = S.Engine - Spans.SpannedMs;
      Layers["engine.unattributed_ms"] += Unattributed;
      // Layer accounting: the self times of every layer plus the engine
      // time outside any span must add up to the traced wall time.
      double Attributed = S.Ir + S.Pipelines + S.Render + Unattributed +
                          Spans.SelfTotalMs;
      double Slack = 0.02 * S.Wall + 0.05;
      double Gap = std::fabs(Attributed - S.Wall);
      WorstGapPct = std::max(WorstGapPct, 100 * Gap / S.Wall);
      if (Gap > Slack || Unattributed < -Slack)
        Rep.fail(In.Name + ": layer self times do not add up to the wall");
    }
  });

  if (!O.Trace) {
    setEndToEnd(Rep, opsPerSecond(Untraced), Untraced, std::move(Setup));
    return Rep;
  }

  // Per-layer numbers are per pass: one analysis of every input.
  for (const auto &[Name, Ms] : Layers)
    Rep.set(Name, Ms / TracedPasses);
  Rep.set("obs.trace_overhead_pct",
          100 * (1 - opsPerSecond(TracedMs) / opsPerSecond(Untraced)));
  Rep.set("obs.layer_gap_max_pct", WorstGapPct);

  // Allocation counts are exact (single thread), so one pass suffices.
  std::uint64_t Allocs = 0;
  for (const Input &In : Inputs) {
    Steps S;
    std::uint64_t N = 0;
    analyzeProgram(In.Source, nullptr, false, S, &N);
    Allocs += N;
  }
  Rep.set("engine.allocs_per_program",
          static_cast<double>(Allocs) / Inputs.size());
  setStatsMetrics(Rep, Totals);
  return Rep;
}

} // namespace perfbench
