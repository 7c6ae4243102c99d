//===- tests/TracerTest.cpp - Observability layer contracts ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The tracer's three contracts: a disabled tracer is invisible (no events,
// no allocations on the hot path); span nesting mirrors the call structure
// of the decision procedures; and the merged event stream is independent
// of the worker count.
//
//===----------------------------------------------------------------------===//

#include "calc/Calc.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "omega/Gist.h"
#include "omega/Satisfiability.h"
#include "support/SmallCoeffVector.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace omega;

namespace {

/// A small query pair exercising gist -> sat -> FM nesting: P has the
/// redundant bound i <= 20 relative to Given's i <= 10.
struct GistFixture {
  Problem P, Given;
  GistFixture() {
    VarId I = P.addVar("i");
    P.addGEQ({{I, 1}}, 0);    // i >= 0
    P.addGEQ({{I, -1}}, 20);  // i <= 20
    VarId J = Given.addVar("i");
    Given.addGEQ({{J, 1}}, 0);  // i >= 0
    Given.addGEQ({{J, -1}}, 10); // i <= 10
  }
};

} // namespace

// With no tracer attached, the instrumented entry points record nothing
// and allocate nothing: the same thread-local-counter trick that pins
// SmallCoeffVector's zero-allocation property pins the tracer's
// zero-overhead claim.
TEST(Tracer, DisabledTracerRecordsNothing) {
  OmegaContext Ctx;
  ASSERT_EQ(Ctx.Trace, nullptr);

  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);

  // Warm anything lazily initialized, then measure.
  (void)isSatisfiable(P, SatOptions(), Ctx);

  uint64_t EventsBefore = obs::TraceBuffer::eventsRecordedThisThread();
  uint64_t AllocsBefore = SmallCoeffVector::heapAllocationsThisThread();
  EXPECT_FALSE(isSatisfiable(P, SatOptions(), Ctx));
  EXPECT_EQ(obs::TraceBuffer::eventsRecordedThisThread(), EventsBefore);
  EXPECT_EQ(SmallCoeffVector::heapAllocationsThisThread(), AllocsBefore);
}

// An attached tracer records spans whose nesting mirrors the call
// structure: the gist entry is the single root, everything else nests
// strictly inside it, and parent/child time accounting is consistent.
TEST(Tracer, SpanNestingMatchesCallStructure) {
  obs::Tracer T;
  OmegaContext Ctx;
  Ctx.Trace = &T.registerBuffer("test", &Ctx.Stats);

  GistFixture F;
  Problem G = gist(F.P, F.Given, GistOptions(), Ctx);
  Ctx.Trace = nullptr;
  EXPECT_EQ(G.constraints().size(), 0u) << "Given implies P";

  const std::vector<obs::TraceEvent> Events = T.mergedEvents();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Events.front().Kind, obs::SpanKind::Gist);
  EXPECT_EQ(Events.front().Depth, 0u);

  // All other events happened inside the gist call.
  unsigned SatSpans = 0;
  for (std::size_t I = 1; I != Events.size(); ++I) {
    EXPECT_GE(Events[I].Depth, 1u) << "event " << I << " escaped the root";
    if (Events[I].Kind == obs::SpanKind::Sat)
      ++SatSpans;
  }
  EXPECT_GT(SatSpans, 0u) << "gist never consulted the sat procedure";
  EXPECT_EQ(SatSpans, Ctx.Stats.SatisfiabilityCalls)
      << "every isSatisfiable call records exactly one Sat span";

  // Reconstruct the nesting from recorded depths (events are appended in
  // begin order) and check each child lies within its parent's interval
  // and that ChildNs sums the direct children exactly.
  std::vector<std::size_t> Stack;
  std::vector<uint64_t> ChildSum(Events.size(), 0);
  for (std::size_t I = 0; I != Events.size(); ++I) {
    const obs::TraceEvent &E = Events[I];
    while (!Stack.empty() && Events[Stack.back()].Depth >= E.Depth)
      Stack.pop_back();
    ASSERT_EQ(Stack.size(), E.Depth) << "depth gap at event " << I;
    if (!Stack.empty()) {
      const obs::TraceEvent &Parent = Events[Stack.back()];
      EXPECT_GE(E.StartNs, Parent.StartNs);
      EXPECT_LE(E.StartNs + E.DurNs, Parent.StartNs + Parent.DurNs);
      if (E.Kind != obs::SpanKind::Decision)
        ChildSum[Stack.back()] += E.DurNs;
    }
    if (E.Kind != obs::SpanKind::Decision)
      Stack.push_back(I);
  }
  for (std::size_t I = 0; I != Events.size(); ++I)
    if (Events[I].Kind != obs::SpanKind::Decision)
      EXPECT_EQ(Events[I].ChildNs, ChildSum[I]) << "event " << I;

  // The Figure-6 classification partitions the satisfiability calls.
  obs::ProfileData PD = T.profile();
  EXPECT_EQ(PD.Classes.total(), Ctx.Stats.SatisfiabilityCalls);
  EXPECT_EQ(PD.Classes.CacheHit, 0u) << "no cache attached";
  EXPECT_EQ(PD.Stats.SatisfiabilityCalls, Ctx.Stats.SatisfiabilityCalls)
      << "top-level span deltas sum to the context counters";
}

namespace {

/// The jobs-independent part of an event (no times, no counter deltas).
std::string structuralSignature(const std::vector<obs::TraceEvent> &Events) {
  std::string Out;
  for (const obs::TraceEvent &E : Events) {
    Out += obs::spanKindName(E.Kind);
    Out += ' ';
    Out += std::to_string(E.TaskKey) + ":" + std::to_string(E.Seq);
    Out += " d" + std::to_string(E.Depth);
    Out += " v" + std::to_string(E.Vars) + "r" + std::to_string(E.Rows);
    Out += " c" + std::to_string(static_cast<int>(E.Cache));
    Out += " " + E.Label + "\n";
  }
  return Out;
}

} // namespace

// The merged trace of a 4-worker run is event-for-event identical to the
// serial run's: task keys follow the serial enumeration order, not the
// racing workers. (The query cache is off: hits depend on cross-worker
// timing and are the one legitimately nondeterministic tag.)
TEST(Tracer, MergedOrderIndependentOfJobs) {
  unsigned Compared = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;

    auto runWith = [&](unsigned Jobs, obs::Tracer &T) {
      engine::AnalysisRequest Req;
      Req.Jobs = Jobs;
      Req.UseQueryCache = false;
      Req.Terminate = true; // cover the phase-4 task keys too
      Req.Trace = &T;
      engine::DependenceEngine Engine(Req);
      (void)Engine.analyze(AP);
    };
    obs::Tracer Serial, Parallel;
    runWith(1, Serial);
    runWith(4, Parallel);

    EXPECT_EQ(structuralSignature(Serial.mergedEvents()),
              structuralSignature(Parallel.mergedEvents()))
        << "kernel " << K.Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
}

namespace {

/// The tier lines of an explain log: for each pair task, its header and
/// its "tier:" lines joined into one string.
struct TierLines {
  std::vector<std::string> PerPair;
  unsigned Stray = 0; ///< tier lines outside pair tasks
};

TierLines tierLines(const std::string &Log) {
  TierLines Out;
  std::istringstream In(Log);
  std::string Line;
  bool InPair = false;
  while (std::getline(In, Line)) {
    if (Line.compare(0, 2, "  ") != 0) { // a task header
      InPair = Line.compare(0, 5, "pair ") == 0;
      if (InPair)
        Out.PerPair.push_back(Line);
      continue;
    }
    if (Line.compare(0, 8, "  tier: ") != 0)
      continue;
    if (InPair)
      Out.PerPair.back() += "\n" + Line;
    else
      ++Out.Stray;
  }
  return Out;
}

} // namespace

// Every pair task of --explain names exactly one tier that decided it --
// result store, quick test or solved -- and the tier lines are the same
// for every worker count, with the store cold and warm.
TEST(Tracer, ExplainNamesOneTierPerPairTask) {
  unsigned Compared = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    SCOPED_TRACE(K.Name);
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    std::vector<std::string> Cold[2], Warm[2];
    for (unsigned Leg = 0; Leg != 2; ++Leg) {
      engine::ResultStore Store;
      for (std::vector<std::string> *Into : {&Cold[Leg], &Warm[Leg]}) {
        obs::Tracer T;
        engine::VersionFingerprints None;
        engine::AnalysisRequest Req;
        Req.Jobs = Leg == 0 ? 1 : 4;
        Req.Trace = &T;
        Req.Store = &Store;
        Req.Previous = &None; // delta accounting counts the pair groups
        engine::DependenceEngine Engine(Req);
        engine::AnalysisResult R = Engine.analyze(AP);
        TierLines Tiers = tierLines(T.explainLog());
        EXPECT_EQ(Tiers.Stray, 0u);
        EXPECT_EQ(Tiers.PerPair.size(), R.Delta.PairsReused +
                                            R.Delta.PairsResolved +
                                            R.Delta.PairsNew);
        for (const std::string &P : Tiers.PerPair) {
          std::size_t Lines = 0;
          for (std::size_t At = P.find("\n  tier: "); At != std::string::npos;
               At = P.find("\n  tier: ", At + 1))
            ++Lines;
          EXPECT_EQ(Lines, 1u) << P;
          if (Into == &Warm[Leg])
            EXPECT_NE(P.find("tier: result store"), std::string::npos) << P;
        }
        *Into = Tiers.PerPair;
      }
    }
    EXPECT_EQ(Cold[0], Cold[1]);
    EXPECT_EQ(Warm[0], Warm[1]);
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
}

// Each access has its own explain label, so no two pair tasks share a
// header -- not even the write and the read of a(k) in one statement of
// induction.tiny, whose texts are identical.
TEST(Tracer, ExplainPairHeadersAreUnique) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const kernels::Kernel &K : kernels::corpus())
    Programs.push_back({K.Name, K.Source});
  std::ifstream In(std::string(OMEGA_EXAMPLES_DIR) + "/induction.tiny");
  ASSERT_TRUE(In.is_open());
  std::stringstream Buf;
  Buf << In.rdbuf();
  Programs.push_back({"induction.tiny", Buf.str()});

  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = ir::analyzeSource(Source);
    if (!AP.ok())
      continue;
    obs::Tracer T;
    engine::AnalysisRequest Req;
    Req.Trace = &T;
    engine::DependenceEngine Engine(Req);
    (void)Engine.analyze(AP);
    std::istringstream Log(T.explainLog());
    std::set<std::string> Seen;
    std::string Line;
    while (std::getline(Log, Line))
      if (Line.compare(0, 5, "pair ") == 0)
        EXPECT_TRUE(Seen.insert(Line).second) << "duplicate header: " << Line;
    if (Name == "induction.tiny")
      EXPECT_NE(Seen.find("pair s1 a(k) (read #0) <-> s1 a(k) (write #4):"),
                Seen.end());
  }
}

// The sinks stay well-formed on a real engine run, and the calc directive
// round-trips: `trace on` ... `trace off` prints a profile.
TEST(Tracer, SinksAndCalcDirective) {
  obs::Tracer T;
  engine::AnalysisRequest Req;
  Req.Trace = &T;
  engine::DependenceEngine Engine(Req);
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  (void)Engine.analyze(AP);

  std::string Chrome = T.chromeTraceJson();
  EXPECT_EQ(Chrome.front(), '{');
  EXPECT_NE(Chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(T.explainLog().find("->"), std::string::npos);
  EXPECT_NE(T.profileReport(/*Json=*/true).find("\"classes\""),
            std::string::npos);

  calc::Calculator C;
  std::string Out = C.run("P := {[i] : 0 <= i && i <= 10};\n"
                          "trace on;\n"
                          "sat P;\n"
                          "trace off;\n");
  EXPECT_FALSE(C.hadError()) << Out;
  EXPECT_NE(Out.find("tracing on"), std::string::npos);
  EXPECT_NE(Out.find("sat"), std::string::npos) << Out;
  EXPECT_FALSE(C.tracing());
  // A second `trace off` is a polite no-op, not an error.
  Out = C.run("trace off;\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("already off"), std::string::npos);
}
