//===- perfbench/core_queries.cpp - Raw Omega and Presburger queries -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Workload core_queries: the omega-calc layer without its parser. Seeded
// isSatisfiable, projectOnto, gist, implies and pres::isValid calls on
// fuzz-tier random systems (3-5 variables) and formulas, one context, no
// query cache. gist never runs in the default dependence analysis, and
// these dense random systems are unlike dependence problems, so a core
// change that favours one shape over the other shows here.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "obs/Trace.h"
#include "omega/Gist.h"
#include "omega/OmegaContext.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "oracle/Generate.h"
#include "oracle/ModelOracle.h"
#include "presburger/Decision.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace omega;

namespace perfbench {
namespace {

enum class Kind { Sat, Project, Gist, Implies, Valid };
constexpr unsigned NumKinds = 5;
constexpr unsigned QueriesPerKind = 200;
/// Every problem variable is bounded to [-Box, Box]; formulas keep the
/// fuzz tier's smaller box, since their model enumerates bound variables too.
constexpr int64_t Box = 5;

struct Query {
  bool Seeded = false; ///< drawn from --seed, not the fixed population
  Kind K = Kind::Sat;
  Problem P, Given;
  unsigned NumKeep = 0;
  std::unique_ptr<pres::FormulaContext> FCtx;
  std::unique_ptr<pres::Formula> F, NotF; ///< validity query: is (not F) valid?
  int64_t FBox = 0;
  std::string Expected;      ///< canonical answer checked against the oracle
  std::string ExpectedStats; ///< solver counters of the first answer
};

std::string render(const ProjectionResult &R) {
  std::string Out = R.Poisoned ? "poisoned" : "";
  for (const Problem &P : R.Pieces)
    Out += P.toString() + " | ";
  return Out + "approx " + R.Approx.toString();
}

/// Runs \p Q once on the current context and renders the answer.
std::string answer(const Query &Q, OmegaContext &Ctx) {
  switch (Q.K) {
  case Kind::Sat:
    return isSatisfiable(Q.P, SatOptions(), Ctx) ? "sat" : "unsat";
  case Kind::Project: {
    std::vector<VarId> Keep;
    for (unsigned V = 0; V != Q.NumKeep; ++V)
      Keep.push_back(static_cast<VarId>(V));
    return render(projectOnto(Q.P, Keep, ProjectOptions(), Ctx));
  }
  case Kind::Gist:
    return gist(Q.P, Q.Given, GistOptions(), Ctx).toString();
  case Kind::Implies:
    return implies(Q.Given, Q.P, Ctx) ? "implies" : "does not imply";
  case Kind::Valid: {
    std::optional<bool> V = pres::isValid(*Q.NotF, *Q.FCtx);
    return !V ? "undecided" : *V ? "valid" : "not valid";
  }
  }
  return "";
}

/// Brute force over the box, independent of the solver: does some point
/// satisfy \p Keep but not \p Drop (Drop null = no second condition)?
bool someBoxPoint(const Problem &Keep, const Problem *Drop) {
  std::vector<VarId> Vars;
  for (VarId V = 0; V != static_cast<VarId>(Keep.getNumVars()); ++V)
    Vars.push_back(V);
  return oracle::forEachPoint(
      Keep.getNumVars(), Vars, -Box, Box,
      [&](const std::vector<int64_t> &Pt) {
        return oracle::evalProblem(Keep, Pt) &&
               (!Drop || !oracle::evalProblem(*Drop, Pt));
      });
}

/// The brute-force answer for the kinds whose answer is a verdict; for
/// projection and gist, the ModelOracle checks the solver's result set.
void checkWithOracle(const Query &Q, const std::string &Answer,
                     OmegaContext &Ctx, Report &Rep, unsigned Index) {
  std::string Want;
  oracle::ModelReport MR;
  switch (Q.K) {
  case Kind::Sat:
    Want = someBoxPoint(Q.P, nullptr) ? "sat" : "unsat";
    break;
  case Kind::Implies:
    Want = someBoxPoint(Q.Given, &Q.P) ? "does not imply" : "implies";
    break;
  case Kind::Valid: {
    std::vector<VarId> All;
    for (VarId V = 0; V != static_cast<VarId>(Q.FCtx->getNumVars()); ++V)
      All.push_back(V);
    bool Model = oracle::forEachPoint(
        Q.FCtx->getNumVars(), All, -Q.FBox, Q.FBox,
        [&](const std::vector<int64_t> &Pt) {
          std::vector<int64_t> Scratch = Pt;
          return oracle::evalFormula(*Q.F, Scratch, Q.FBox);
        });
    Want = Model ? "not valid" : "valid";
    break;
  }
  case Kind::Project:
    oracle::checkProjection(Q.P, Q.NumKeep, Box, MR, Ctx);
    break;
  case Kind::Gist:
    oracle::checkGist(Q.P, Q.Given, Box, MR, Ctx);
    break;
  }
  if (!Want.empty() && Want != Answer)
    Rep.fail("query " + std::to_string(Index) + ": answered " + Answer +
             ", brute force says " + Want);
  for (const std::string &M : MR.Mismatches)
    Rep.fail("query " + std::to_string(Index) + ": " + M);
}

/// Every --seed draws fresh 3-variable systems. The 4- and 5-variable
/// systems and the formulas come from a fixed population, in a fixed
/// order and ahead of the seeded ones: single 5-variable gists cost up to
/// 0.8 s and decide the length of a pass, so a fresh draw per seed moved
/// ops_per_s between 386 and 1097 queries/s over three seeds, and a seeded
/// order (through the allocator state the big queries leave behind)
/// between 346 and 652.
std::vector<Query> makeQueries(unsigned Seed) {
  constexpr unsigned PopulationSeed = 1992;
  std::mt19937 Population(PopulationSeed), Fresh(Seed);
  std::vector<Query> Qs;
  for (unsigned I = 0; I != QueriesPerKind * NumKinds; ++I) {
    Query Q;
    Q.K = static_cast<Kind>(I % NumKinds);
    if (Q.K == Kind::Valid) {
      // A formula F over 2 free and up to 2 quantified variables; the
      // query is whether (not F) is valid, i.e. whether F has no model.
      // Formulas outside the decidable subclass are drawn again.
      oracle::RandomFormulaConfig Cfg;
      Q.FBox = Cfg.Box;
      do {
        Q.FCtx = std::make_unique<pres::FormulaContext>();
        Q.F = std::make_unique<pres::Formula>(
            oracle::randomFormula(Population, *Q.FCtx, Cfg));
        Q.NotF = std::make_unique<pres::Formula>(pres::Formula::negate(*Q.F));
      } while (!pres::isValid(*Q.NotF, *Q.FCtx));
    } else {
      // Every var count in turn, so each seed has the same size mix.
      oracle::RandomProblemConfig Cfg;
      Cfg.NumVars = 3 + (I / NumKinds) % 3;
      Cfg.Box = Box;
      Q.Seeded = Cfg.NumVars == 3;
      std::mt19937 &Rng = Q.Seeded ? Fresh : Population;
      Q.P = oracle::randomProblem(Rng, Cfg);
      Q.Given = oracle::randomProblem(Rng, Cfg);
      Q.NumKeep = 2;
    }
    Qs.push_back(std::move(Q));
  }
  // The seeded queries run last, so the fixed ones meet the same heap
  // (and reach the same peak) for every seed.
  std::stable_partition(Qs.begin(), Qs.end(),
                        [](const Query &Q) { return !Q.Seeded; });
  return Qs;
}

/// The per-layer name of a call-kind timer.
const char *timerName(Kind K) {
  switch (K) {
  case Kind::Gist:
    return "omega.gist_ms";
  case Kind::Implies:
    return "omega.implies_ms";
  case Kind::Valid:
    return "presburger.validity_ms";
  default:
    return nullptr; // sat and projection time comes from the tracer
  }
}

} // namespace

Report runCoreQueries(const Options &O) {
  Report Rep;
  Clock::time_point InputStart = Clock::now();
  std::vector<Query> Queries = makeQueries(O.Seed);

  // Reference pass (untimed): the first answer of each query is checked
  // by brute force over the box and becomes the expected answer, with the
  // solver counters it moved.
  OmegaStats Totals;
  std::string AllStats;
  for (unsigned I = 0; I != Queries.size(); ++I) {
    Query &Q = Queries[I];
    OmegaContext Ctx;
    OmegaContextScope Scope(Ctx);
    Q.Expected = answer(Q, Ctx);
    Q.ExpectedStats = statsKey(Ctx.Stats);
    Totals.merge(Ctx.Stats);
    AllStats += Q.ExpectedStats;
    OmegaContext OracleCtx;
    OmegaContextScope OracleScope(OracleCtx);
    checkWithOracle(Q, Q.Expected, OracleCtx, Rep, I);
  }
  Rep.Attempted += Queries.size();
  char Digest[64];
  std::snprintf(Digest, sizeof(Digest), "solver counter digest %016llx",
                static_cast<unsigned long long>(fnv1a(AllStats)));
  Rep.Notes.push_back(Digest);
  Rep.Notes.push_back("inputs and references: " +
                      std::to_string(msBetween(InputStart, Clock::now()) /
                                     1000) +
                      " s (untimed)");

  OmegaContext Ctx;
  OmegaContextScope Scope(Ctx);
  auto Run = [&](const Query &Q, double &Ms) {
    OmegaStats Before = Ctx.Stats;
    Clock::time_point A = Clock::now();
    std::string Answer = answer(Q, Ctx);
    Ms = msBetween(A, Clock::now());
    OmegaStats Moved = Ctx.Stats;
    Moved.subtract(Before);
    ++Rep.Attempted;
    if (Answer != Q.Expected)
      Rep.fail("query answer differs from the checked first answer");
    else if (statsKey(Moved) != Q.ExpectedStats)
      Rep.fail("query solver counters differ from the first answer's");
  };

  // Set-up: a warm-up over the first 50 queries. It runs before every
  // pass, so its samples spread over the run like the passes'; setup_s
  // is their median.
  std::vector<double> Setup;
  auto SetUp = [&] {
    Clock::time_point A = Clock::now();
    for (unsigned I = 0; I != 50; ++I) {
      double Ms;
      Run(Queries[I], Ms);
    }
    Setup.push_back(msBetween(A, Clock::now()) / 1000);
  };

  std::vector<std::vector<double>> Untraced(Queries.size()),
      TracedMs(Queries.size());
  double KindMs[NumKinds] = {}, BusyMs = 0;
  std::map<std::string, double> Layers;
  double WorstGapPct = 0;
  unsigned TracedPasses = runPasses(O, [&](bool Traced) {
    SetUp();
    for (std::size_t I = 0; I != Queries.size(); ++I) {
      const Query &Q = Queries[I];
      double Ms;
      if (!Traced) {
        Run(Q, Ms);
        KindMs[static_cast<unsigned>(Q.K)] += Ms;
        Untraced[I].push_back(Ms);
        BusyMs += Ms;
        continue;
      }
      obs::Tracer Tracer;
      Ctx.Trace = &Tracer.registerBuffer("core_queries", &Ctx.Stats);
      Run(Q, Ms);
      Ctx.Trace = nullptr;
      TracedMs[I].push_back(Ms);
      TracerTimes Spans = tracerTimes(Tracer);
      for (const auto &[Name, SelfMs] : Spans.SelfMs)
        Layers[Name] += SelfMs;
      // Layer accounting: the spans' self times plus the call time outside
      // any span add up to the call's wall time.
      double Outside = Ms - Spans.SpannedMs;
      double Gap = std::fabs(Outside + Spans.SelfTotalMs - Ms);
      double Slack = 0.02 * Ms + 0.05;
      WorstGapPct = std::max(WorstGapPct, Ms > 0 ? 100 * Gap / Ms : 0);
      if (Gap > Slack || Outside < -Slack)
        Rep.fail("query layer self times do not add up to the wall");
    }
  });

  if (!O.Trace) {
    char Share[160];
    std::snprintf(Share, sizeof(Share),
                  "busy time by kind, all samples: sat %.1f%%, project "
                  "%.1f%%, gist %.1f%%, implies %.1f%%, valid %.1f%%",
                  100 * KindMs[0] / BusyMs, 100 * KindMs[1] / BusyMs,
                  100 * KindMs[2] / BusyMs, 100 * KindMs[3] / BusyMs,
                  100 * KindMs[4] / BusyMs);
    Rep.Notes.push_back(Share);
    setEndToEnd(Rep, opsPerSecond(Untraced), Untraced, std::move(Setup));
    return Rep;
  }

  for (const auto &[Name, Ms] : Layers)
    Rep.set(Name, Ms / TracedPasses);
  // Call-kind timers come from the untraced passes, at each query's
  // fastest time, like ops_per_s.
  for (std::size_t I = 0; I != Queries.size(); ++I)
    if (const char *Timer = timerName(Queries[I].K))
      Rep.Metrics[Timer] += fastest(Untraced[I]);
  Rep.set("obs.trace_overhead_pct",
          100 * (1 - opsPerSecond(TracedMs) / opsPerSecond(Untraced)));
  Rep.set("obs.layer_gap_max_pct", WorstGapPct);

  std::uint64_t Allocs = 0;
  for (const Query &Q : Queries) {
    startCountingAllocations();
    answer(Q, Ctx);
    Allocs += stopCountingAllocations();
  }
  Rep.set("omega.allocs_per_query",
          static_cast<double>(Allocs) / Queries.size());
  setStatsMetrics(Rep, Totals);
  return Rep;
}

} // namespace perfbench
