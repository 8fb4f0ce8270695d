//===- grammar/Pcfg.h - Probabilistic template grammars ---------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probabilistic context-free grammar of TACO templates (paper §4.2.2 –
/// §4.3). The grammar has the fixed skeleton
///
///   PROGRAM ::= TENSOR1 "=" EXPR
///   EXPR    ::= TENSOR | CONSTANT | EXPR OP EXPR
///   OP      ::= "+" | "-" | "*" | "/"
///   TENSOR  ::= <one concrete production per (symbol, index tuple)>
///
/// and is *refined* by the predicted dimension list: TENSOR1 is pinned to
/// the LHS symbol `a` indexed by the statically predicted arity, and the
/// TENSOR productions enumerate, for every RHS position of the dimension
/// list, every way of indexing that symbol with the available index
/// variables (§4.2.4). Rule weights count occurrences in the leftmost
/// derivations of the candidate templates; unseen rules get a default weight
/// of 1 so they stay reachable with lower priority (§4.3).
///
/// The same structure carries the ablation configurations of the evaluation:
/// `FullGrammar` (no dimension refinement), `LLMGrammar` (full grammar with
/// learned probabilities), and `EqualProbability` (refined grammar, uniform
/// probabilities).
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_GRAMMAR_PCFG_H
#define STAGG_GRAMMAR_PCFG_H

#include "grammar/Template.h"
#include "taco/Ast.h"

#include <string>
#include <vector>

namespace stagg {
namespace grammar {

/// One concrete TENSOR production, e.g. `TENSOR ::= "b(i,j)"`.
struct TensorRule {
  /// Symbolic tensor variable (`b`, `c`, ...) or "Const".
  std::string Symbol;
  std::vector<std::string> Indices;
  bool IsConst = false;

  /// Learned weight and normalized probability / additive cost.
  double Weight = 0;
  double Prob = 0;
  double Cost = 0;

  int dim() const { return IsConst ? 0 : static_cast<int>(Indices.size()); }

  /// Printable form ("b(i,j)", "c", "Const").
  std::string spelling() const;
};

/// The grammar of templates driving both searches.
/// Thread-safety: a built grammar is immutable — every const method is a
/// pure read over the stored rules, with no lazy caches or mutable
/// members, so any number of threads may read one grammar without locks;
/// keep any future memoization out of the const API or give it its own
/// synchronization.
struct TemplateGrammar {
  /// Fixed LHS production TENSOR1 (the symbol `a` with canonical indices).
  taco::AccessExpr Lhs{"a", {}};

  /// Predicted dimension list L (L[0] = LHS entry). May be empty when no
  /// candidate parsed, in which case the grammar is unusable.
  std::vector<int> DimList;

  /// i(P): number of index variables available to productions.
  int NumIndexVars = 0;

  /// All TENSOR productions (shared nonterminal, Fig. 6 style).
  std::vector<TensorRule> TensorRules;

  /// EXPR production weights/probabilities. The max production only exists
  /// when some candidate used `max(...)` (HasMaxRule); otherwise its weight
  /// and probability stay exactly zero, so grammars learned from max-free
  /// candidate sets are bit-identical to the pre-max implementation.
  double WExprTensor = 0, WExprConst = 0, WExprBin = 0, WExprMax = 0;
  double PExprTensor = 0, PExprConst = 0, PExprBin = 0, PExprMax = 0;

  /// OP production weights/probabilities, indexed by taco::BinOpKind.
  double WOp[4] = {0, 0, 0, 0};
  double POp[4] = {0, 0, 0, 0};

  /// Operators with positive *learned* evidence; used by penalties a5 / b2
  /// ("the operations defined in the grammar").
  std::vector<taco::BinOpKind> LearnedOps;

  /// True if the grammar offers a constant production (a dimension-list
  /// entry of 0 or a candidate containing a constant).
  bool HasConstRule = false;

  /// True if the grammar offers the `max(EXPR, EXPR)` production: some
  /// candidate used max, the evidence rule that keeps max-free queries
  /// bit-identical to the pre-max grammar.
  bool HasMaxRule = false;

  /// True when tensor symbols are minted per dimension-list position (the
  /// refined grammar), so symbols are only interchangeable *within* a
  /// dimension class; false for the full grammar, where every symbol offers
  /// every dimension.
  bool PositionalSymbols = true;

  /// Rules usable for the BU slot at RHS position \p Position (2-based index
  /// into DimList): the rules whose dimension matches L[Position], grouped
  /// Fig. 7 style.
  std::vector<const TensorRule *> rulesForPosition(int Position) const;

  /// Normalizes weights into probabilities and additive costs. \p Uniform
  /// implements the EqualProbability ablation.
  void normalize(bool Uniform);

  /// Human-readable dump for diagnostics and the examples.
  std::string dump() const;
};

/// Options controlling grammar construction (evaluation ablations).
struct GrammarOptions {
  /// Use the full TACO grammar instead of the dimension-refined one
  /// (FullGrammar / LLMGrammar ablations).
  bool FullGrammar = false;

  /// Replace learned probabilities with uniform ones (EqualProbability and
  /// FullGrammar ablations).
  bool EqualProbability = false;

  /// Maximum tensors and dimension used by the full grammar.
  int FullGrammarTensors = 4;
  int FullGrammarMaxDim = 3;
};

/// Builds the grammar of templates from the deduplicated candidate
/// \p Templates, the predicted \p DimList, and the static LHS arity. Weight
/// learning per §4.3.
TemplateGrammar buildTemplateGrammar(const std::vector<Templatized> &Templates,
                                     const std::vector<int> &DimList,
                                     int StaticLhsDim,
                                     const GrammarOptions &Options);

} // namespace grammar
} // namespace stagg

#endif // STAGG_GRAMMAR_PCFG_H
