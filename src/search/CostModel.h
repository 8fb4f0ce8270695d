//===- search/CostModel.h - A* cost and heuristic functions -----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The A\* cost machinery of §5.1/§5.2: rule costs are -log2 of rule
/// probabilities, the top-down heuristic g(x) charges each open nonterminal
/// with the -log2 of the maximal derivable probability h(α) (computed as a
/// fixpoint), and the bottom-up heuristic charges the cheapest tensor of each
/// still-missing dimension m(d).
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_COSTMODEL_H
#define STAGG_SEARCH_COSTMODEL_H

#include "grammar/Pcfg.h"

namespace stagg {
namespace search {

/// Precomputed additive costs for one grammar.
///
/// Thread-safety: all state is computed in the constructor; the accessors
/// (including minTensorCost, which scans the referenced grammar) are pure
/// reads, valid as long as the grammar it references outlives the search.
class CostModel {
public:
  explicit CostModel(const grammar::TemplateGrammar &G);

  /// Costs of the EXPR productions (-log2 P; infinity when P = 0).
  double costExprTensor() const { return CExprTensor; }
  double costExprConst() const { return CExprConst; }
  double costExprBin() const { return CExprBin; }
  double costExprMax() const { return CExprMax; }

  /// Cost of OP -> op.
  double costOp(taco::BinOpKind Op) const {
    return COp[static_cast<int>(Op)];
  }

  /// -log2 h(EXPR): heuristic charge of one open EXPR hole.
  double holeCharge() const { return HoleCharge; }

  /// -log2 h(OP): heuristic charge of one open OP slot.
  double opHoleCharge() const { return OpHoleCharge; }

  /// Bottom-up m(d): cheapest way to add a tensor of dimension \p Dim
  /// (infinity when the grammar offers none).
  double minTensorCost(int Dim) const;

private:
  const grammar::TemplateGrammar &G;
  double CExprTensor, CExprConst, CExprBin, CExprMax;
  double COp[4];
  double HoleCharge, OpHoleCharge;
};

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_COSTMODEL_H
