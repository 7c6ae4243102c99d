//===- tests/AnalysisTest.cpp ---------------------------------------------===//
//
// Integration tests for the Section 4 analyses, validated against the
// paper's Examples 1-6.
//
//===----------------------------------------------------------------------===//

#include "analysis/Driver.h"

#include "analysis/Kills.h"
#include "analysis/Refine.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::analysis;
using omega::deps::DepKind;
using omega::deps::Dependence;
using omega::deps::DependenceAnalysis;
using omega::ir::Access;
using omega::ir::AnalyzedProgram;
using omega::ir::analyzeSource;

namespace {

const Access *findAccess(const AnalyzedProgram &AP, const std::string &Array,
                         bool IsWrite, unsigned Stmt = 0) {
  for (const Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite &&
        (Stmt == 0 || A.StmtLabel == Stmt))
      return &A;
  return nullptr;
}

const Dependence *findFlow(const AnalysisResult &R, unsigned SrcStmt,
                           unsigned DstStmt) {
  for (const Dependence &D : R.Flow)
    if (D.Src->StmtLabel == SrcStmt && D.Dst->StmtLabel == DstStmt)
      return &D;
  return nullptr;
}

std::string refinedDir(const Dependence &D) {
  std::string Out;
  for (const deps::DepSplit &S : D.Splits) {
    if (S.Dead)
      continue;
    if (!Out.empty())
      Out += " ";
    Out += S.dirToString();
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Example 1: a killed flow dependence.
//===----------------------------------------------------------------------===//

TEST(Section4, Example1KilledFlowDep) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "a(n) := 0;\n"            // stmt 1
                                     "for L1 := n to n+10 do\n"
                                     "  a(L1) := 0;\n"         // stmt 2
                                     "endfor\n"
                                     "for L1 := n to n+20 do\n"
                                     "  x(L1) := a(L1);\n"     // stmt 3
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);

  // The write a(n) flows to the read a(L1) only apparently: the write
  // loop overwrites a(n) before the read loop runs.
  const Dependence *Killed = findFlow(R, 1, 3);
  ASSERT_NE(Killed, nullptr);
  EXPECT_TRUE(Killed->allDead());
  EXPECT_EQ(Killed->Splits.front().DeadReason, 'k');

  // The loop write's flow survives.
  const Dependence *Live = findFlow(R, 2, 3);
  ASSERT_NE(Live, nullptr);
  EXPECT_FALSE(Live->allDead());
}

TEST(Section4, Example1VariantNotKilled) {
  // With the first write going to a(m) and nothing known about m, the
  // kill cannot be verified (m might exceed n+10).
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "a(m) := 0;\n"
                                     "for L1 := n to n+10 do\n"
                                     "  a(L1) := 0;\n"
                                     "endfor\n"
                                     "for L1 := n to n+20 do\n"
                                     "  x(L1) := a(L1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 3);
  ASSERT_NE(Dep, nullptr);
  EXPECT_FALSE(Dep->allDead());
}

//===----------------------------------------------------------------------===//
// Example 2: covering plus killed dependences.
//===----------------------------------------------------------------------===//

TEST(Section4, Example2CoveringAndKills) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "a(m) := 0;\n"              // stmt 1
                                     "for L1 := 1 to 100 do\n"
                                     "  a(L1) := 0;\n"           // stmt 2
                                     "  for L2 := 1 to n do\n"
                                     "    a(L2) := 0;\n"         // stmt 3
                                     "    a(L2-1) := 0;\n"       // stmt 4
                                     "  endfor\n"
                                     "  for L2 := 2 to n-1 do\n"
                                     "    x(L2) := a(L2);\n"     // stmt 5
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);

  // The write a(L2-1) covers the read a(L2) (paper's worked example),
  // loop-independently in L1.
  const Dependence *Cover = findFlow(R, 4, 5);
  ASSERT_NE(Cover, nullptr);
  EXPECT_TRUE(Cover->Covers);
  EXPECT_TRUE(Cover->CoverLoopIndependent);
  EXPECT_FALSE(Cover->allDead());

  // Writes that completely precede the cover die as covered.
  const Dependence *FromAM = findFlow(R, 1, 5);
  ASSERT_NE(FromAM, nullptr);
  EXPECT_TRUE(FromAM->allDead());
  EXPECT_EQ(FromAM->Splits.front().DeadReason, 'c');

  const Dependence *FromAL1 = findFlow(R, 2, 5);
  ASSERT_NE(FromAL1, nullptr);
  EXPECT_TRUE(FromAL1->allDead());

  // The write a(L2) shares both loops with the cover, so it needs the
  // general pairwise kill, which succeeds.
  const Dependence *FromAL2 = findFlow(R, 3, 5);
  ASSERT_NE(FromAL2, nullptr);
  EXPECT_TRUE(FromAL2->allDead());
}

//===----------------------------------------------------------------------===//
// Examples 3-6: refinement.
//===----------------------------------------------------------------------===//

TEST(Section4, Example3RectangularRefinement) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for L1 := 1 to n do\n"
                                     "  for L2 := 2 to m do\n"
                                     "    a(L2) := a(L2-1);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 1);
  ASSERT_NE(Dep, nullptr);
  // Unrefined (0+,1) refines to (0,1).
  EXPECT_EQ(refinedDir(*Dep), "(0,1)");
  EXPECT_TRUE(Dep->anyRefined());
}

TEST(Section4, Example4TrapezoidalRefinement) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for L1 := 1 to n do\n"
                                     "  for L2 := n+2-L1 to m do\n"
                                     "    a(L2) := a(L2-1);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 1);
  ASSERT_NE(Dep, nullptr);
  EXPECT_EQ(refinedDir(*Dep), "(0,1)");
}

TEST(Section4, Example5PartialRefinement) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for L1 := 1 to n do\n"
                                     "  for L2 := L1 to m do\n"
                                     "    a(L2) := a(L2-1);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 1);
  ASSERT_NE(Dep, nullptr);
  // The paper reports (0:1, 1): refinement to (0,1) alone is impossible
  // because iterations with L1 == L2 receive their flow from
  // (L1-1, L2-1). Our split representation keeps the two cases
  // separately: (1,1) carried at L1 and (0,1) carried at L2.
  EXPECT_EQ(refinedDir(*Dep), "(1,1) (0,1)");
}

TEST(Section4, Example6CoupledRefinement) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for L1 := 1 to n do\n"
                                     "  for L2 := 2 to m do\n"
                                     "    a(L1-L2) := a(L1-L2);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 1);
  ASSERT_NE(Dep, nullptr);
  // Unrefined (a,a) with a >= 1; refined to (1,1).
  EXPECT_EQ(refinedDir(*Dep), "(1,1)");
  EXPECT_TRUE(Dep->anyRefined());
}

//===----------------------------------------------------------------------===//
// Direct predicate tests.
//===----------------------------------------------------------------------===//

TEST(Section4, CoversPredicate) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 0 to n do\n"
                                     "  a(i) := 0;\n"
                                     "endfor\n"
                                     "for i := 2 to n do\n"
                                     "  x(i) := a(i-1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  EXPECT_TRUE(covers(AP, *W, *R));

  // Shrink the write loop so location n-1 is never written: no cover.
  AnalyzedProgram AP2 = analyzeSource("symbolic n;\n"
                                      "for i := 0 to n-3 do\n"
                                      "  a(i) := 0;\n"
                                      "endfor\n"
                                      "for i := 2 to n do\n"
                                      "  x(i) := a(i-1);\n"
                                      "endfor\n");
  ASSERT_TRUE(AP2.ok());
  const Access *W2 = findAccess(AP2, "a", true);
  const Access *R2 = findAccess(AP2, "a", false);
  EXPECT_FALSE(covers(AP2, *W2, *R2));
}

TEST(Section4, TerminatesPredicate) {
  // Every location the first loop writes is overwritten by the second.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := 0;\n"
                                     "endfor\n"
                                     "for i := 0 to n do\n"
                                     "  a(i) := 1;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W1 = findAccess(AP, "a", true, 1);
  const Access *W2 = findAccess(AP, "a", true, 2);
  ASSERT_TRUE(W1 && W2);
  EXPECT_TRUE(terminates(AP, *W1, *W2));
  // The reverse is false: the second loop also writes a(0), which the
  // first never overwrites (it runs earlier anyway).
  EXPECT_FALSE(terminates(AP, *W2, *W1));
}

TEST(Section4, TerminateDriverKillsDeadFlow) {
  // Values written by stmt 1 are all overwritten by stmt 2 before the
  // read loop: with the Terminate extension the 1 -> 3 flow dies.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := 0;\n"
                                     "endfor\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := 1;\n"
                                     "endfor\n"
                                     "for i := 1 to n do\n"
                                     "  x(i) := a(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  DriverOptions Opts;
  Opts.Terminate = true;
  AnalysisResult R = analyzeProgram(AP, Opts);
  const Dependence *Dead = findFlow(R, 1, 3);
  ASSERT_NE(Dead, nullptr);
  EXPECT_TRUE(Dead->allDead());
  const Dependence *Live = findFlow(R, 2, 3);
  ASSERT_NE(Live, nullptr);
  EXPECT_FALSE(Live->allDead());
}

TEST(Section4, KillsPredicateDirect) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "a(n) := 0;\n"
                                     "for L1 := n to n+10 do\n"
                                     "  a(L1) := 0;\n"
                                     "endfor\n"
                                     "for L1 := n to n+20 do\n"
                                     "  x(L1) := a(L1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *A = findAccess(AP, "a", true, 1);
  const Access *B = findAccess(AP, "a", true, 2);
  const Access *C = findAccess(AP, "a", false);
  ASSERT_TRUE(A && B && C);
  EXPECT_TRUE(kills(AP, *A, *B, *C, /*Level=*/0));
}

TEST(Section4, QuickTestsDoNotChangeResults) {
  const char *Src = "symbolic n, m;\n"
                    "a(m) := 0;\n"
                    "for L1 := 1 to 100 do\n"
                    "  a(L1) := 0;\n"
                    "  for L2 := 1 to n do\n"
                    "    a(L2) := 0;\n"
                    "    a(L2-1) := 0;\n"
                    "  endfor\n"
                    "  for L2 := 2 to n-1 do\n"
                    "    x(L2) := a(L2);\n"
                    "  endfor\n"
                    "endfor\n";
  AnalyzedProgram AP = analyzeSource(Src);
  ASSERT_TRUE(AP.ok());
  DriverOptions Fast, Slow;
  Slow.QuickTests = false;
  AnalysisResult RF = analyzeProgram(AP, Fast);
  AnalysisResult RS = analyzeProgram(AP, Slow);
  ASSERT_EQ(RF.Flow.size(), RS.Flow.size());
  for (unsigned I = 0; I != RF.Flow.size(); ++I) {
    EXPECT_EQ(RF.Flow[I].allDead(), RS.Flow[I].allDead())
        << RF.Flow[I].Src->Text << " -> " << RF.Flow[I].Dst->Text;
  }
}

TEST(Section4, LiveDeadTablesRender) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "a(n) := 0;\n"
                                     "for L1 := n to n+10 do\n"
                                     "  a(L1) := 0;\n"
                                     "endfor\n"
                                     "for L1 := n to n+20 do\n"
                                     "  x(L1) := a(L1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::string Live = R.liveFlowTable();
  std::string Dead = R.deadFlowTable();
  EXPECT_NE(Live.find("2: a(L1)"), std::string::npos);
  EXPECT_NE(Dead.find("1: a(n)"), std::string::npos);
  EXPECT_NE(Dead.find("[k]"), std::string::npos);
}

TEST(Section4, StridedNestRefinementKeepsBackwardFlow) {
  // Regression: both loops strided, write subscript with a negative outer
  // coefficient, so the flow's distance vector is (+, -). The (since removed)
  // refinement snapshot used to drive mod-hat equality elimination into a cycle over
  // the stride wildcards (they never reach a unit coefficient because the
  // protected distance variables stay in the rows), saturate, and then
  // read a bogus unsat off the clamped rows -- silently deleting the
  // dependence. The trace oracle disagrees: b(0) written at (i=1,j=2) is
  // read at (i=3,j=0).
  AnalyzedProgram AP = analyzeSource("for i := 1 to 5 step 2 do\n"
                                     "  for j := 0 to 6 step 2 do\n"
                                     "    b(-i+j-1) := 5;\n"
                                     "    c(0) := b(j);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const Dependence *Dep = findFlow(R, 1, 2);
  ASSERT_NE(Dep, nullptr) << "strided backward flow missed entirely";
  EXPECT_FALSE(Dep->allDead());
  EXPECT_EQ(refinedDir(*Dep), "(2:4,-4:-2)");
}
