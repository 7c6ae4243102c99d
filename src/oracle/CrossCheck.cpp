//===- oracle/CrossCheck.cpp ----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "oracle/CrossCheck.h"

#include "engine/DependenceEngine.h"
#include "oracle/Metamorphic.h"
#include "oracle/ScheduleOracle.h"

using namespace omega;
using namespace omega::oracle;

const std::vector<AblationConfig> &oracle::defaultAblations() {
  static const std::vector<AblationConfig> Configs = {
      {true, 1}, {false, 1}, {true, 4}, {false, 4}};
  return Configs;
}

static engine::AnalysisResult runEngine(const ir::AnalyzedProgram &AP,
                                        const AblationConfig &A) {
  engine::AnalysisRequest Req;
  Req.PairQuickTests = A.QuickTests;
  Req.Jobs = A.Jobs;
  Req.UseQueryCache = false;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

std::vector<std::string>
oracle::crossCheckProgram(const std::string &Source,
                          const TraceOracleOptions &Opts) {
  std::vector<std::string> Mismatches;
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return Mismatches; // rejected program: vacuously passes

  deps::DependenceAnalysis DA(AP);
  std::vector<deps::Dependence> UnrefinedFlow =
      DA.computeDependences(deps::DepKind::Flow);

  std::string Reference;
  for (const AblationConfig &A : defaultAblations()) {
    engine::AnalysisResult R = runEngine(AP, A);
    std::string Summary = summarizeDependences(R);
    if (Reference.empty())
      Reference = Summary;
    else if (Summary != Reference)
      Mismatches.push_back(
          "ablation divergence: quicktests=" + std::to_string(A.QuickTests) +
          " jobs=" + std::to_string(A.Jobs) +
          " produced structurally different dependences");
    TraceReport Trace = checkTraceWitnesses(AP, R, UnrefinedFlow, Opts);
    if (!Trace.ok())
      for (const std::string &M : Trace.Mismatches)
        Mismatches.push_back(
            "trace oracle (quicktests=" + std::to_string(A.QuickTests) +
            " jobs=" + std::to_string(A.Jobs) + "): " + M);
  }

  // Every pipelined schedule the planner proposes must be
  // interpreter-equivalent to the original program.
  ScheduleReport Schedules = checkPipelineSchedules(Source, Opts);
  for (const std::string &M : Schedules.Mismatches)
    Mismatches.push_back("schedule oracle: " + M);

  // Widening monotonicity for memory-based dependences.
  if (std::optional<ir::Program> Wide = widenLoopBounds(AP.Source, 2)) {
    ir::AnalyzedProgram WideAP = ir::analyze(*Wide);
    if (WideAP.ok()) {
      ModelReport Mono;
      checkWidenedMonotone(AP, WideAP, Mono);
      for (const std::string &M : Mono.Mismatches)
        Mismatches.push_back(M);
    }
  }
  return Mismatches;
}
