//===- tests/PairSolverDifferentialTest.cpp -------------------------------===//
//
// The pair quick tests must be invisible in the analysis results: for
// every program, the engine with the tier on produces bit-identical
// dependence sets, distance ranges, liveness decisions, pair records, and
// kill records to the engine with it off (every query sent to the Omega
// test). Checked over the whole kernel corpus and a batch of random
// programs (the RandomProgramTest generator's shapes: triangular bounds,
// strides, coupled subscripts).
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

using namespace omega;

namespace {

std::string renderDeps(const std::vector<deps::Dependence> &Deps) {
  std::string Out;
  for (const deps::Dependence &D : Deps) {
    Out += D.Src->Text + " -> " + D.Dst->Text + " [" +
           deps::depKindName(D.Kind) + "]";
    if (D.Covers)
      Out += " covers";
    if (D.CoverLoopIndependent)
      Out += " li-cover";
    for (const deps::DepSplit &S : D.Splits) {
      Out += " L" + std::to_string(S.Level) + "(" + S.dirToString() + ")";
      if (S.Dead) {
        Out += "!";
        Out += S.DeadReason;
      }
      if (S.Refined)
        Out += "r";
    }
    Out += "\n";
  }
  return Out;
}

/// Everything the analysis decided, minus timings.
std::string renderResult(const engine::AnalysisResult &R) {
  std::string Out = renderDeps(R.Flow) + "--\n" + renderDeps(R.Anti) +
                    "--\n" + renderDeps(R.Output) + "--\n";
  for (const analysis::PairRecord &P : R.Pairs)
    Out += P.Write->Text + "/" + P.Read->Text + " flow=" +
           (P.HasFlow ? "1" : "0") + " general=" +
           (P.UsedGeneralTest ? "1" : "0") + " split=" +
           (P.SplitVectors ? "1" : "0") + "\n";
  Out += "--\n";
  for (const analysis::KillRecord &K : R.Kills)
    Out += K.From->Text + "/" + K.Killer->Text + "/" + K.To->Text +
           " omega=" + (K.UsedOmega ? "1" : "0") + " killed=" +
           (K.Killed ? "1" : "0") + "\n";
  return Out;
}

std::string analyzeAndRender(const ir::AnalyzedProgram &AP, bool Tiers) {
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  Req.UseQueryCache = false;
  Req.PairQuickTests = Tiers;
  engine::DependenceEngine Engine(Req);
  return renderResult(Engine.analyze(AP));
}

/// Same program shapes as RandomProgramTest's generator, kept local so the
/// two fuzzers can drift independently.
class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    Loops.clear();
    NumArrays = pick(1, 2);
    openLoops(pick(1, 3));
    unsigned Stmts = pick(1, 3);
    for (unsigned I = 0; I != Stmts; ++I)
      emitAssignment();
    closeLoops();
    if (chance(2)) {
      openLoops(pick(1, 2));
      emitAssignment();
      closeLoops();
    }
    return Src;
  }

private:
  int64_t pick(int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  }
  bool chance(int OneIn) { return pick(1, OneIn) == 1; }

  void indent() { Src.append(Loops.size() * 2, ' '); }

  void openLoops(unsigned Depth) {
    for (unsigned D = 0; D != Depth; ++D) {
      std::string Var(1, static_cast<char>('i' + Loops.size()));
      indent();
      std::string Lo = std::to_string(pick(0, 2));
      if (!Loops.empty() && chance(3))
        Lo = Loops.back();
      std::string Hi = std::to_string(pick(4, 7));
      std::string Step = chance(4) ? " step 2" : "";
      Src += "for " + Var + " := " + Lo + " to " + Hi + Step + " do\n";
      Loops.push_back(Var);
    }
  }

  void closeLoops() {
    while (!Loops.empty()) {
      Loops.pop_back();
      indent();
      Src += "endfor\n";
    }
  }

  std::string affineSubscript() {
    std::string Out;
    bool Any = false;
    for (const std::string &Var : Loops) {
      int64_t C = pick(-1, 2);
      if (C == 0)
        continue;
      if (Any)
        Out += C < 0 ? " - " : " + ";
      else if (C < 0)
        Out += "-";
      if (C != 1 && C != -1)
        Out += std::to_string(C < 0 ? -C : C) + "*";
      Out += Var;
      Any = true;
    }
    int64_t K = pick(-2, 2);
    if (!Any)
      return std::to_string(K);
    if (K != 0)
      Out += (K < 0 ? " - " : " + ") + std::to_string(K < 0 ? -K : K);
    return Out;
  }

  std::string arrayRef(bool TwoDims) {
    std::string Name(1, static_cast<char>('a' + pick(0, NumArrays - 1)));
    std::string Out = Name + "(" + affineSubscript();
    if (TwoDims)
      Out += ", " + affineSubscript();
    Out += ")";
    return Out;
  }

  void emitAssignment() {
    indent();
    bool TwoDims = chance(3);
    Src += arrayRef(TwoDims) + " := ";
    unsigned Reads = pick(0, 2);
    for (unsigned I = 0; I != Reads; ++I)
      Src += arrayRef(TwoDims) + " + ";
    Src += std::to_string(pick(0, 9)) + ";\n";
  }

  std::mt19937 Rng;
  std::string Src;
  std::vector<std::string> Loops;
  unsigned NumArrays = 1;
};

} // namespace

TEST(PairSolverDifferential, CorpusResultsIdentical) {
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    ASSERT_TRUE(AP.ok()) << K.Name;
    EXPECT_EQ(analyzeAndRender(AP, /*Tiers=*/true),
              analyzeAndRender(AP, /*Tiers=*/false))
        << K.Name;
  }
}

TEST(PairSolverDifferential, EachTierAloneIsInvisible) {
  // Against a base with every optional mechanism off, switching on just
  // the quick tests, just the query cache, or just the parallel scheduler
  // must not move a byte of the result.
  auto render = [](const ir::AnalyzedProgram &AP, bool Quick, bool Cache,
                   unsigned Jobs) {
    engine::AnalysisRequest Req;
    Req.Jobs = Jobs;
    Req.UseQueryCache = Cache;
    Req.PairQuickTests = Quick;
    engine::DependenceEngine Engine(Req);
    return renderResult(Engine.analyze(AP));
  };
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    ASSERT_TRUE(AP.ok()) << K.Name;
    std::string Base = render(AP, false, false, 1);
    EXPECT_EQ(render(AP, true, false, 1), Base) << K.Name << " (quick only)";
    EXPECT_EQ(render(AP, false, true, 1), Base) << K.Name << " (cache only)";
    EXPECT_EQ(render(AP, false, false, 4), Base) << K.Name << " (jobs 4)";
  }
}

class PairSolverRandomDifferential
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(PairSolverRandomDifferential, ResultsIdentical) {
  ProgramGenerator Gen(GetParam());
  for (unsigned T = 0; T != 10; ++T) {
    std::string Source = Gen.generate();
    ir::AnalyzedProgram AP = ir::analyzeSource(Source);
    ASSERT_TRUE(AP.ok()) << Source;
    ASSERT_EQ(analyzeAndRender(AP, /*Tiers=*/true),
              analyzeAndRender(AP, /*Tiers=*/false))
        << "failing program:\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairSolverRandomDifferential,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u, 27u,
                                           28u));
