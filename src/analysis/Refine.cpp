//===- analysis/Refine.cpp ------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Refine.h"

#include "analysis/Implication.h"
#include "obs/Trace.h"
#include "omega/OmegaContext.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <algorithm>
#include <map>

using namespace omega;
using namespace omega::analysis;
using omega::deps::DepSpace;

namespace {

std::vector<bool> keepAllBut(const Problem &P, const DepSpace &Space,
                             unsigned Inst) {
  std::vector<bool> Keep(P.getNumVars(), true);
  for (unsigned D = 0; D != Space.access(Inst).Loops.size(); ++D)
    Keep[Space.iterVar(Inst, D)] = false;
  return Keep;
}

/// One execution-order case of the unrefined dependence (a restraint
/// vector), with distance variables attached so minima can be extracted.
struct LevelProblem {
  unsigned Level = 0;
  Problem P; ///< the full system; every sat and range query runs on it
  std::vector<VarId> Deltas;
  bool Feasible = true;
};

/// Shared state for the refinement passes over one dependence.
class Refiner {
public:
  Refiner(const ir::AnalyzedProgram &AP, const ir::Access &A,
          const ir::Access &B, deps::Dependence &Dep)
      : Space(AP, {&A, &A, &B}), Dep(Dep) {
    Common = Space.numCommonLoops(0, 2);
    for (const deps::DepSplit &Split : Dep.Splits) {
      LevelProblem L;
      L.Level = Split.Level;
      L.P = Space.base();
      Space.addIterationSpace(L.P, 0);
      Space.addIterationSpace(L.P, 2);
      Space.addSubscriptsEqual(L.P, 0, 2);
      Space.addPrecedesAtLevel(L.P, 0, 2, Split.Level);
      L.Deltas = Space.addDistanceVars(L.P, 0, 2);
      Levels.push_back(std::move(L));
    }
  }

  unsigned numCommonLoops() const { return Common; }

  /// LHS pieces: exists i with A(i) << B(k) under the given restraints,
  /// projected onto (k, Sym). The per-level pieces depend only on the
  /// level (never on pins), so both passes share one projection per level.
  const std::vector<Problem> *levelLHSPieces(unsigned Idx) {
    auto It = LHSCache.find(Idx);
    if (It != LHSCache.end())
      return It->second.Poisoned ? nullptr : &It->second.Pieces;
    Problem LHS = Space.base();
    Space.addIterationSpace(LHS, 0);
    Space.addIterationSpace(LHS, 2);
    Space.addSubscriptsEqual(LHS, 0, 2);
    Space.addPrecedesAtLevel(LHS, 0, 2, Levels[Idx].Level);
    ProjectionResult R =
        projectOntoMask(LHS, keepAllBut(LHS, Space, 0),
                        ProjectOptions{/*RemoveRedundant=*/false,
                                       /*DropEmptyPieces=*/true});
    CachedPieces &Entry = LHSCache[Idx];
    Entry.Poisoned = R.Poisoned;
    for (Problem &Piece : R.Pieces)
      Entry.Pieces.push_back(std::move(Piece));
    return Entry.Poisoned ? nullptr : &Entry.Pieces;
  }

  std::vector<Problem> buildLHSPieces(const std::vector<unsigned> &Which) {
    std::vector<Problem> Pieces;
    for (unsigned Idx : Which) {
      if (!Levels[Idx].Feasible)
        continue;
      const std::vector<Problem> *LevelPieces = levelLHSPieces(Idx);
      if (!LevelPieces)
        return {}; // conservative: refinement is skipped entirely
      for (const Problem &Piece : *LevelPieces)
        Pieces.push_back(Piece);
    }
    return Pieces;
  }

  /// RHS pieces: exists j in [A] at the fixed distances D from k, with
  /// A(j) << B(k), projected onto (k, Sym). Pass 2 re-fixes the same
  /// distance prefixes pass 1 tried, so results are memoized by D.
  const std::vector<Problem> &buildRHSPieces(const std::vector<int64_t> &D) {
    auto It = RHSCache.find(D);
    if (It != RHSCache.end())
      return It->second;
    std::vector<Problem> Pieces;
    Problem RHS0 = Space.base();
    Space.addIterationSpace(RHS0, 1);
    Space.addSubscriptsEqual(RHS0, 1, 2);
    for (unsigned L = 0; L != D.size(); ++L) {
      // k_L - j_L == D[L].
      Constraint &Row = RHS0.addRow(ConstraintKind::EQ);
      Row.setCoeff(Space.iterVar(2, L), 1);
      Row.setCoeff(Space.iterVar(1, L), -1);
      Row.setConstant(-D[L]);
    }
    for (const Problem &Case : Space.precedesCases(RHS0, 1, 2)) {
      ProjectionResult R =
          projectOntoMask(Case, keepAllBut(Case, Space, 1),
                          ProjectOptions{/*RemoveRedundant=*/false,
                                         /*DropEmptyPieces=*/true});
      if (R.Poisoned) {
        Pieces.clear(); // conservative: the candidate fails verification
        break;
      }
      for (Problem &Piece : R.Pieces)
        Pieces.push_back(std::move(Piece));
    }
    return RHSCache.emplace(D, std::move(Pieces)).first->second;
  }

  /// One refinement pass (the paper's candidate generator): fix distances
  /// outermost-in to the minimum over the restraints in \p MinSet,
  /// verifying each extension against the receivers in \p LHSSet. Pins
  /// accepted distances into the \p MinSet problems. Returns the number
  /// of loops fixed.
  unsigned runPass(const std::vector<unsigned> &LHSSet,
                   const std::vector<unsigned> &MinSet, RefineResult &Out) {
    std::vector<Problem> LHSPieces = buildLHSPieces(LHSSet);
    if (LHSPieces.empty())
      return 0;

    std::vector<int64_t> Fixed;
    std::vector<std::vector<IntRange>> Pinned(Levels.size());
    for (unsigned L = 0; L != Common; ++L) {
      bool HasMin = false;
      int64_t Min = 0;
      for (unsigned Idx : MinSet) {
        LevelProblem &Lvl = Levels[Idx];
        if (!Lvl.Feasible)
          continue;
        IntRange R = computeVarRange(Lvl.P, Lvl.Deltas[L]);
        if (R.Empty) {
          Lvl.Feasible = false;
          continue;
        }
        if (!R.HasMin) {
          HasMin = false;
          break;
        }
        if (!HasMin || R.Min < Min) {
          HasMin = true;
          Min = R.Min;
        }
      }
      if (!HasMin)
        break;

      Fixed.push_back(Min);
      Out.UsedGeneralTest = true;
      const std::vector<Problem> &RHSPieces = buildRHSPieces(Fixed);
      bool OK = true;
      for (const Problem &LHS : LHSPieces)
        if (!checkImplication(LHS, RHSPieces)) {
          OK = false;
          break;
        }
      if (!OK) {
        Fixed.pop_back();
        break;
      }
      for (unsigned Idx : MinSet) {
        LevelProblem &Lvl = Levels[Idx];
        if (!Lvl.Feasible)
          continue;
        Constraint &Pin = Lvl.P.addRow(ConstraintKind::EQ);
        Pin.setCoeff(Lvl.Deltas[L], 1);
        Pin.setConstant(-Min);
      }
    }
    return Fixed.size();
  }

  /// Rewrites the dependence's splits from the (possibly pinned) level
  /// problems. Returns true if anything changed.
  bool rebuildSplits() {
    std::vector<deps::DepSplit> NewSplits;
    for (LevelProblem &Lvl : Levels) {
      if (!Lvl.Feasible || !isSatisfiable(Lvl.P)) {
        Lvl.Feasible = false;
        continue;
      }
      deps::DepSplit S;
      S.Level = Lvl.Level;
      for (unsigned L = 0; L != Common; ++L) {
        deps::DirectionElem Elem;
        Elem.Range = computeVarRange(Lvl.P, Lvl.Deltas[L]);
        S.Dir.push_back(Elem);
      }
      S.Refined = true;
      NewSplits.push_back(std::move(S));
    }

    bool Same = NewSplits.size() == Dep.Splits.size();
    for (unsigned I = 0; Same && I != NewSplits.size(); ++I) {
      Same = NewSplits[I].Level == Dep.Splits[I].Level;
      for (unsigned L = 0; Same && L != Common; ++L) {
        const IntRange &X = NewSplits[I].Dir[L].Range;
        const IntRange &Y = Dep.Splits[I].Dir[L].Range;
        Same = X.HasMin == Y.HasMin && X.HasMax == Y.HasMax &&
               (!X.HasMin || X.Min == Y.Min) &&
               (!X.HasMax || X.Max == Y.Max);
      }
    }
    if (Same)
      return false;
    Dep.Splits = std::move(NewSplits);
    return true;
  }

  std::vector<unsigned> allIndices() const {
    std::vector<unsigned> Out;
    for (unsigned I = 0; I != Levels.size(); ++I)
      Out.push_back(I);
    return Out;
  }

  DepSpace Space;
  deps::Dependence &Dep;
  unsigned Common = 0;
  std::vector<LevelProblem> Levels;

  struct CachedPieces {
    std::vector<Problem> Pieces;
    bool Poisoned = false;
  };
  std::map<unsigned, CachedPieces> LHSCache;
  std::map<std::vector<int64_t>, std::vector<Problem>> RHSCache;
};

} // namespace

RefineResult analysis::refineDependence(const ir::AnalyzedProgram &AP,
                                        const ir::Access &A,
                                        const ir::Access &B,
                                        deps::Dependence &Dep) {
  RefineResult Result;
  assert(A.IsWrite && "refinement applies to dependences from a write");
  obs::ScopedSpan Span(OmegaContext::current().Trace, obs::SpanKind::Refine);
  if (Dep.Splits.empty())
    return Result;
  // Refinement claims a definite more-recent source, which needs
  // must-alias subscript reasoning; rank-mismatched references only may
  // alias.
  if (A.Subscripts.size() != B.Subscripts.size())
    return Result;

  Refiner R(AP, A, B, Dep);
  if (R.numCommonLoops() == 0)
    return Result; // nothing to refine without common loops

  // Pass 1 (Section 4.4's generator over the whole dependence): a refined
  // vector may kill entire splits, e.g. Example 4's (0+,1) -> (0,1).
  unsigned WholeFixed = R.runPass(R.allIndices(), R.allIndices(), Result);
  Result.LoopsFixed = WholeFixed;

  // Pass 2 (per restraint vector): when the whole-dependence pass stalls,
  // each split can still be refined within its own restraint -- Example
  // 5's L1-carried split tightens to (1,1) while the L2 split keeps
  // (0,1), i.e. the paper's partial result (0:1,1).
  if (WholeFixed < R.numCommonLoops())
    for (unsigned I = 0; I != R.Levels.size(); ++I)
      if (R.Levels[I].Feasible)
        R.runPass({I}, {I}, Result);

  if (R.rebuildSplits())
    Result.Refined = true;
  return Result;
}
