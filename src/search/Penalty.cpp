//===- search/Penalty.cpp - Domain-specific penalty functions -------------===//

#include "search/Penalty.h"

#include <limits>

using namespace stagg;
using namespace stagg::search;

double search::infinitePenalty() {
  return std::numeric_limits<double>::infinity();
}

double search::topDownPenalty(const StateMetrics &M,
                              const grammar::TemplateGrammar &G,
                              const SearchConfig &Config) {
  double Penalty = 0;
  // Template length counts the LHS tensor, matching |L|.
  int Length = M.Leaves + 1;
  int MinFinalLength = M.Leaves + M.Holes + 1;
  int DimLen = static_cast<int>(G.DimList.size());

  // a1: grammars with constants bias toward expressions that actually use
  // them and that reuse the primary index.
  if (Config.PenaltyA1 && G.HasConstRule && Length > 3 &&
      (M.TensorsWithI < 2 || M.ConstLeaves == 0))
    Penalty += 10;

  // a2: length must match the dimension list. Partial templates are charged
  // only once they can no longer reach the target length.
  if (Config.PenaltyA2 && DimLen > 0) {
    if (M.complete() ? (Length != DimLen) : (MinFinalLength > DimLen))
      Penalty += 100;
  }

  // a3: tensor symbols must appear in alphabetical order of first
  // appearance (within their dimension class); violating templates
  // duplicate already-enumerated structures.
  if (Config.PenaltyA3 && !M.InCanonicalOrder)
    return infinitePenalty();

  // a4: complete templates must not apply + - / to the same access.
  if (Config.PenaltyA4 && M.complete() && M.DegenerateOp)
    return infinitePenalty();

  // a5: complete templates must employ at least half of the operations
  // defined in the (refined) grammar, i.e. those with learned evidence.
  // "Half" is integer (floor) division: a grammar with one learned operator
  // admits operator-free templates, and the motivating one-operator
  // solution survives a three-operator grammar.
  if (Config.PenaltyA5 && M.complete() &&
      M.distinctOps() < static_cast<int>(G.LearnedOps.size()) / 2)
    return infinitePenalty();

  return Penalty;
}

double search::bottomUpPenalty(const StateMetrics &M,
                               const grammar::TemplateGrammar &G,
                               const SearchConfig &Config) {
  double Penalty = 0;

  // b1: out-of-order tensor symbols are structural duplicates.
  if (Config.PenaltyB1 && !M.InCanonicalOrder)
    Penalty += 100;

  // b2: once the chain is as long as predicted it must use at least half
  // (floor, as in a5) of the learned operations.
  int DimLen = static_cast<int>(G.DimList.size());
  if (Config.PenaltyB2 && DimLen > 0 && M.Leaves + 1 >= DimLen &&
      M.distinctOps() < static_cast<int>(G.LearnedOps.size()) / 2)
    return infinitePenalty();

  return Penalty;
}
