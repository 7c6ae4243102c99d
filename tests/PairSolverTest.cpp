//===- tests/PairSolverTest.cpp -------------------------------------------===//
//
// Unit tests for the pair solver: the ZIV/GCD/bounds quick-test
// pre-filter with its per-class counters, and the counter invariants the
// profile report relies on (quick-test classes sum to QuickTestDecided;
// Figure-6 query classes sum to SatisfiabilityCalls).
//
//===----------------------------------------------------------------------===//

#include "deps/PairSolver.h"
#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "oracle/TraceOracle.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

/// The result points into \p AP, which must outlive it.
engine::AnalysisResult analyzeWith(const ir::AnalyzedProgram &AP,
                                   bool QuickTests) {
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  Req.UseQueryCache = false;
  Req.PairQuickTests = QuickTests;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

/// For tests that read only counters and shapes: the accesses the result
/// points at are gone when it returns.
engine::AnalysisResult analyzeWith(const std::string &Source,
                                   bool QuickTests) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  EXPECT_TRUE(AP.ok()) << Source;
  return analyzeWith(AP, QuickTests);
}

} // namespace

//===----------------------------------------------------------------------===//
// Quick-test pre-filter
//===----------------------------------------------------------------------===//

TEST(PairQuickTests, ZIVDecidesConstantSubscripts) {
  engine::AnalysisResult R = analyzeWith("for i := 0 to 9 do\n"
                                         "  a(0) := a(1) + 1;\n"
                                         "endfor\n",
                                         true);
  EXPECT_GT(R.Stats.QuickTestZIV, 0u);
  EXPECT_EQ(R.Stats.QuickTestZIV + R.Stats.QuickTestGCD +
                R.Stats.QuickTestBounds + R.Stats.QuickTestTrivialDep,
            R.Stats.QuickTestDecided);
  // a(0) and a(1) never overlap: no flow or anti dependence at all.
  EXPECT_TRUE(R.Flow.empty());
  EXPECT_TRUE(R.Anti.empty());
}

TEST(PairQuickTests, GCDDecidesParityMismatch) {
  engine::AnalysisResult R = analyzeWith("for i := 0 to 9 do\n"
                                         "  a(2*i) := a(2*i + 1) + 1;\n"
                                         "endfor\n",
                                         true);
  EXPECT_GT(R.Stats.QuickTestGCD, 0u);
  EXPECT_TRUE(R.Flow.empty());
  EXPECT_TRUE(R.Anti.empty());
}

TEST(PairQuickTests, BoundsDecideDisjointIntervals) {
  engine::AnalysisResult R = analyzeWith("for i := 0 to 4 do\n"
                                         "  a(i) := a(i + 7) + 1;\n"
                                         "endfor\n",
                                         true);
  EXPECT_GT(R.Stats.QuickTestBounds, 0u);
  EXPECT_TRUE(R.Flow.empty());
  EXPECT_TRUE(R.Anti.empty());
}

TEST(PairQuickTests, TrivialDependenceOutsideLoops) {
  engine::AnalysisResult R = analyzeWith("a(3) := 1;\n"
                                         "b(0) := a(3) + 2;\n",
                                         true);
  EXPECT_GT(R.Stats.QuickTestTrivialDep, 0u);
  ASSERT_EQ(R.Flow.size(), 1u);
  ASSERT_EQ(R.Flow[0].Splits.size(), 1u);
  EXPECT_EQ(R.Flow[0].Splits[0].Level, 0u);
}

TEST(PairQuickTests, DisabledTierLeavesCountersZero) {
  engine::AnalysisResult R = analyzeWith("for i := 0 to 4 do\n"
                                         "  a(i) := a(i + 7) + 1;\n"
                                         "endfor\n",
                                         false);
  EXPECT_EQ(R.Stats.QuickTestDecided, 0u);
  EXPECT_TRUE(R.Flow.empty()); // the Omega test agrees, just slower
}

//===----------------------------------------------------------------------===//
// Counter invariants
//===----------------------------------------------------------------------===//

TEST(PairSolverCounters, HugeCoefficientsAgreeAcrossQuickTests) {
  // Two distinct symbolic constants scaled by 2^32 - 1 push the Omega
  // test's arithmetic toward its coefficient cap; the dependences must
  // not depend on whether the quick tests screened the pair first.
  const std::string Source = "for i := 0 to 9 do\n"
                             "  a(4294967295*n + i) := a(4294967295*m + i + 1) + 1;\n"
                             "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  ASSERT_TRUE(AP.ok());
  engine::AnalysisResult On = analyzeWith(AP, true);
  engine::AnalysisResult Off = analyzeWith(AP, false);
  EXPECT_EQ(Off.Stats.QuickTestDecided, 0u);
  EXPECT_EQ(oracle::summarizeDependences(On),
            oracle::summarizeDependences(Off));
}

TEST(PairSolverCounters, EmptyIterationSpaceShortCircuits) {
  // The inner loop never executes, so the shared pair system is already
  // unsatisfiable before any ordering rows: every (kind, level) case is
  // unsat and no dependence survives, with or without the quick tests.
  const std::string Source = "for i := 0 to 9 do\n"
                             "  for j := 5 to 4 do\n"
                             "    a(i + j) := a(i + j) + 1;\n"
                             "  endfor\n"
                             "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  ASSERT_TRUE(AP.ok());
  engine::AnalysisResult On = analyzeWith(AP, true);
  EXPECT_GT(On.Stats.SatisfiabilityCalls, 0u);
  EXPECT_TRUE(On.Flow.empty());
  EXPECT_TRUE(On.Anti.empty());
  EXPECT_TRUE(On.Output.empty());
  engine::AnalysisResult Off = analyzeWith(AP, false);
  EXPECT_EQ(oracle::summarizeDependences(On),
            oracle::summarizeDependences(Off));
}

TEST(PairSolverCounters, ProfileClassesSumToSatCalls) {
  // Every satisfiability query lands in exactly one Figure-6 class of the
  // profile report.
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  obs::Tracer T;
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  Req.Trace = &T;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_GT(R.Stats.SatisfiabilityCalls, 0u);
  obs::ProfileData P = T.profile();
  EXPECT_EQ(P.Classes.total(), P.Stats.SatisfiabilityCalls);
  EXPECT_EQ(P.Stats.SatisfiabilityCalls, R.Stats.SatisfiabilityCalls);
}
