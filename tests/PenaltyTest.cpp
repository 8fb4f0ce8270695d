//===- tests/PenaltyTest.cpp - Penalty functions (§5.1, §5.2) -------------===//

#include "search/Penalty.h"

#include "grammar/DimensionList.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::grammar;

namespace {

/// Builds a grammar from candidate sources (shared fixture helper).
TemplateGrammar makeGrammar(std::initializer_list<const char *> Sources,
                            int LhsDim,
                            GrammarOptions Options = GrammarOptions()) {
  std::vector<Templatized> T;
  for (const char *S : Sources) {
    taco::ParseResult R = taco::parseTacoProgram(S);
    EXPECT_TRUE(R.ok()) << S;
    T.push_back(templatize(*R.Prog));
  }
  T = dedupTemplates(T);
  return buildTemplateGrammar(T, predictDimensionList(T, LhsDim), LhsDim,
                              Options);
}

/// Index of the grammar rule spelling an access (or the constant).
int ruleFor(const TemplateGrammar &G, const taco::Expr &E) {
  for (size_t I = 0; I < G.TensorRules.size(); ++I) {
    const TensorRule &R = G.TensorRules[I];
    if (E.kind() == taco::Expr::Kind::Constant ? R.IsConst
                                               : (!R.IsConst &&
                                                  R.spelling() ==
                                                      taco::printExpr(E)))
      return static_cast<int>(I);
  }
  throw std::runtime_error("no grammar rule for " + taco::printExpr(E));
}

/// Metrics of the complete template \p Expr, derived by replaying its
/// leftmost derivation through the top-down search's own state steps.
StateMetrics metricsFor(const TemplateGrammar &G, const std::string &Expr) {
  taco::ParseExprResult R = taco::parseTacoExpr(Expr);
  EXPECT_TRUE(R.ok()) << Expr;
  RuleTable Rules(G);
  StepRef State = Step::root();
  auto Apply = [&](const Production &P) {
    State = Step::extend(State, P, State->metricsAfter(P, Rules), Rules);
  };
  std::function<void(const taco::Expr &)> Derive = [&](const taco::Expr &E) {
    switch (E.kind()) {
    case taco::Expr::Kind::Access:
    case taco::Expr::Kind::Constant:
      Apply(Production::leaf(ruleFor(G, E)));
      return;
    case taco::Expr::Kind::Binary: {
      const auto &B = taco::exprCast<taco::BinaryExpr>(E);
      Apply(Production::bin());
      Derive(B.lhs());
      Apply(Production::op(B.op()));
      Derive(B.rhs());
      return;
    }
    case taco::Expr::Kind::Max: {
      const auto &M = taco::exprCast<taco::MaxExpr>(E);
      Apply(Production::max());
      Derive(M.lhs());
      Derive(M.rhs());
      return;
    }
    case taco::Expr::Kind::Negate:
      break;
    }
    throw std::runtime_error("outside the template grammar: " + Expr);
  };
  try {
    Derive(*R.E);
  } catch (const std::runtime_error &Err) {
    ADD_FAILURE() << Err.what();
    return StateMetrics();
  }
  EXPECT_TRUE(State->metrics().complete()) << Expr;
  return State->metrics();
}

/// Whether first using the symbols of \p Symbols in that order keeps the
/// canonical order of \p G (penalties a3/b1).
bool inCanonicalOrder(const TemplateGrammar &G,
                      std::initializer_list<const char *> Symbols) {
  RuleTable Rules(G);
  StateMetrics M;
  for (const char *Symbol : Symbols) {
    auto It = std::find_if(G.TensorRules.begin(), G.TensorRules.end(),
                           [&](const TensorRule &R) {
                             return !R.IsConst && R.Symbol == Symbol;
                           });
    EXPECT_NE(It, G.TensorRules.end()) << Symbol;
    if (It != G.TensorRules.end())
      M.addLeaf(Rules, Rules.indexOf(*It));
  }
  return M.InCanonicalOrder;
}

} // namespace

TEST(Penalty, CanonicalTensorOrder) {
  // Full grammar: every symbol offers every dimension, so first uses must
  // run b, c, d, ... globally.
  GrammarOptions Full;
  Full.FullGrammar = true;
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1, Full);
  EXPECT_TRUE(inCanonicalOrder(G, {}));
  EXPECT_TRUE(inCanonicalOrder(G, {"b"}));
  EXPECT_TRUE(inCanonicalOrder(G, {"b", "c", "d"}));
  EXPECT_TRUE(inCanonicalOrder(G, {"b", "c", "b", "d"})); // Reuse is free.
  EXPECT_FALSE(inCanonicalOrder(G, {"c"}));
  EXPECT_FALSE(inCanonicalOrder(G, {"b", "d"}));
  EXPECT_FALSE(inCanonicalOrder(G, {"c", "b"}));

  // Refined grammar: symbols are interchangeable only within a dimension
  // class, so the order applies per class.
  TemplateGrammar R = makeGrammar({"r(i) = m(i) + s * v(i)"}, 1);
  ASSERT_EQ(R.DimList, (std::vector<int>{1, 1, 0, 1}));
  EXPECT_TRUE(inCanonicalOrder(R, {"c"}));      // First 0-D symbol.
  EXPECT_TRUE(inCanonicalOrder(R, {"b", "d"})); // First two 1-D symbols.
  EXPECT_TRUE(inCanonicalOrder(R, {"c", "b", "d"}));
  EXPECT_FALSE(inCanonicalOrder(R, {"d"}));
  EXPECT_FALSE(inCanonicalOrder(R, {"d", "b"}));
  EXPECT_FALSE(inCanonicalOrder(R, {"c", "d"}));
}

TEST(Penalty, A2ChargesWrongLength) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.PenaltyA5 = false; // Isolate a2 (a single leaf also violates a5).
  StateMetrics TooShort = metricsFor(G, "b(i,j)");
  EXPECT_EQ(topDownPenalty(TooShort, G, Config), 100);
  StateMetrics Right = metricsFor(G, "b(i,j) * c(j)");
  EXPECT_EQ(topDownPenalty(Right, G, Config), 0);
}

TEST(Penalty, A2SkippedWhileStillReachable) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  SearchConfig Config;
  StateMetrics Partial = metricsFor(G, "b(i,j)");
  Partial.Holes = 1; // One hole can still complete the template.
  EXPECT_EQ(topDownPenalty(Partial, G, Config), 0);
}

TEST(Penalty, A3PrunesOutOfOrderTensors) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  StateMetrics Bad = metricsFor(G, "c(i) + b(i)");
  EXPECT_TRUE(std::isinf(topDownPenalty(Bad, G, Config)));
  Config.PenaltyA3 = false;
  EXPECT_FALSE(std::isinf(topDownPenalty(Bad, G, Config)));
}

TEST(Penalty, A4PrunesDegenerateCompleteTemplates) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) - v(i)"}, 1);
  SearchConfig Config;
  EXPECT_FALSE(std::isinf(topDownPenalty(metricsFor(G, "b(i) - c(i)"), G,
                                          Config)));
  StateMetrics M = metricsFor(G, "b(i) - b(i)");
  ASSERT_TRUE(M.DegenerateOp);
  EXPECT_TRUE(std::isinf(topDownPenalty(M, G, Config)));
  M.Holes = 1; // Partial templates are not charged by a4.
  EXPECT_FALSE(std::isinf(topDownPenalty(M, G, Config)));
  Config.PenaltyA4 = false;
  EXPECT_FALSE(std::isinf(topDownPenalty(metricsFor(G, "b(i) - b(i)"), G,
                                         Config)));
}

TEST(Penalty, A5RequiresHalfTheLearnedOps) {
  // Candidates use four operators with solid evidence each; a complete
  // template must employ at least floor(4/2) = 2 of them.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i) + v(i)",
                                   "r(i) = m(i) * v(i) * v(i)",
                                   "r(i) = m(i) - v(i) - v(i)",
                                   "r(i) = m(i) / v(i) / v(i)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 4u);
  SearchConfig Config;
  Config.PenaltyA2 = false; // Isolate a5.
  StateMetrics OneOp = metricsFor(G, "b(i) + c(i)");
  EXPECT_TRUE(std::isinf(topDownPenalty(OneOp, G, Config)));
  StateMetrics TwoOps = metricsFor(G, "b(i) + c(i) * d(i)");
  EXPECT_FALSE(std::isinf(topDownPenalty(TwoOps, G, Config)));
}

TEST(Penalty, A5IgnoresNoiseOperators) {
  // A single spurious '+' among mostly-'*' candidates must not force every
  // solution to use two operators.
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)",
                                   "r(i) = m(i,j) + v(j)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 1u);
  SearchConfig Config;
  StateMetrics OneOp = metricsFor(G, "b(i,j) * c(j)");
  EXPECT_FALSE(std::isinf(topDownPenalty(OneOp, G, Config)));
}

TEST(Penalty, A1BiasesConstantGrammars) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) * 2 + v(i) + w(i)"}, 1);
  ASSERT_TRUE(G.HasConstRule);
  SearchConfig Config;
  // Four leaves and no constant: the missing constant triggers the +10 bias.
  StateMetrics M = metricsFor(G, "b(i) + d(i) + e(i) + b(i)");
  double P = topDownPenalty(M, G, Config);
  EXPECT_GE(P, 10);
  Config.PenaltyA1 = false;
  EXPECT_LT(topDownPenalty(M, G, Config), P);
}

TEST(Penalty, BottomUpAlphabeticalOrderIsSoft) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  EXPECT_EQ(bottomUpPenalty(metricsFor(G, "c(i) + b(i)"), G, Config), 100);
  EXPECT_EQ(bottomUpPenalty(metricsFor(G, "b(i) + c(i)"), G, Config), 0);
}

TEST(Penalty, BottomUpB2PrunesOpPoorFullChains) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i) + v(i)",
                                   "r(i) = m(i) * v(i) * v(i)",
                                   "r(i) = m(i) - v(i) - v(i)",
                                   "r(i) = m(i) / v(i) / v(i)"},
                                  1);
  ASSERT_EQ(G.LearnedOps.size(), 4u);
  ASSERT_EQ(G.DimList.size(), 4u); // Occurrence-counted: [1,1,1,1].
  SearchConfig Config;
  // Full-length chain with a single distinct op < floor(4/2).
  StateMetrics M = metricsFor(G, "b(i) + c(i) + d(i)");
  EXPECT_TRUE(std::isinf(bottomUpPenalty(M, G, Config)));
  Config.PenaltyB2 = false;
  EXPECT_FALSE(std::isinf(bottomUpPenalty(M, G, Config)));
}

TEST(Penalty, DropAllSwitches) {
  SearchConfig Config;
  Config.dropAllTopDownPenalties();
  EXPECT_FALSE(Config.PenaltyA1 || Config.PenaltyA2 || Config.PenaltyA3 ||
               Config.PenaltyA4 || Config.PenaltyA5);
  Config.dropAllBottomUpPenalties();
  EXPECT_FALSE(Config.PenaltyB1 || Config.PenaltyB2);
}
