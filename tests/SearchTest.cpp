//===- tests/SearchTest.cpp - Weighted A* searches (Alg. 1 & 2) -----------===//

#include "LiftGrammar.h"

#include "benchsuite/Benchmark.h"
#include "search/BottomUp.h"
#include "search/TopDown.h"

#include "grammar/DimensionList.h"
#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/TemplateState.h"
#include "search/WorkerPool.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <new>
#include <stdexcept>
#include <thread>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::grammar;

namespace {

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

/// Probe accepting exactly one printed template.
TemplateProbe accepting(const std::string &Wanted) {
  return [Wanted](const taco::Program &P) {
    return taco::printProgram(P) == Wanted;
  };
}

/// Yields copies of one template and throws std::bad_alloc on pull number
/// \p ThrowAt — an allocation failure in the middle of enumeration.
class ThrowingStream : public CandidateStream {
public:
  explicit ThrowingStream(int ThrowAt)
      : ThrowAt(ThrowAt),
        Prog(*taco::parseTacoProgram("a(i) = b(i,j) * c(j)").Prog) {}

  bool next(Candidate &Out) override {
    if (++Pulls == ThrowAt)
      throw std::bad_alloc();
    Out.Ticket = static_cast<uint64_t>(Pulls - 1);
    Out.Program = Prog;
    Out.AttemptsAtYield = Pulls;
    Out.ExpansionsAtYield = Pulls;
    return true;
  }
  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Pulls; }
  int64_t expansions() const override { return Pulls; }
  double seconds() const override { return 0; }
  size_t peakFrontier() const override { return 0; }

private:
  const int ThrowAt;
  const taco::Program Prog;
  int Pulls = 0;
  std::string Reason;
};

} // namespace

TEST(CostModelTest, HeuristicChargesAreFinite) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  CostModel Costs(G);
  EXPECT_GT(Costs.holeCharge(), 0);
  EXPECT_TRUE(std::isfinite(Costs.holeCharge()));
  EXPECT_TRUE(std::isfinite(Costs.opHoleCharge()));
  EXPECT_TRUE(std::isfinite(Costs.minTensorCost(1)));
  EXPECT_TRUE(std::isinf(Costs.minTensorCost(3))); // No 3-D rules.
}

TEST(CostModelTest, ConstCostInfiniteWithoutConstRule) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1);
  CostModel Costs(G);
  EXPECT_TRUE(std::isinf(Costs.costExprConst()));
}

TEST(TemplateState, LeftmostExpansionOrder) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  RuleTable Rules(G);
  auto Apply = [&](const StepRef &S, const Production &P) {
    return Step::extend(S, P, S->metricsAfter(P, Rules), Rules);
  };

  StepRef Root = Step::root();
  ASSERT_NE(Root->leftmost(), nullptr);
  EXPECT_EQ(Root->leftmost()->K, Pending::Kind::Expr);
  EXPECT_EQ(Root->metrics().Holes, 1);

  // EXPR -> EXPR OP EXPR: the left operand is leftmost, one level down.
  StepRef Bin = Apply(Root, Production::bin());
  ASSERT_EQ(Bin->numPending(), 3u);
  EXPECT_EQ(Bin->leftmost()->K, Pending::Kind::Expr);
  EXPECT_EQ(Bin->leftmost()->Depth, 2);
  EXPECT_EQ(Bin->metrics().Depth, 2);
  EXPECT_EQ(Bin->metrics().Holes, 2);
  EXPECT_EQ(Bin->metrics().OpHoles, 1);

  // Fill the left operand: now the op slot is leftmost.
  StepRef Left = Apply(Bin, Production::leaf(0));
  ASSERT_NE(Left->leftmost(), nullptr);
  EXPECT_EQ(Left->leftmost()->K, Pending::Kind::Op);
  EXPECT_EQ(Left->metrics().Leaves, 1);

  // Fix the op: the right operand is leftmost.
  StepRef Op = Apply(Left, Production::op(taco::BinOpKind::Sub));
  ASSERT_NE(Op->leftmost(), nullptr);
  EXPECT_EQ(Op->leftmost()->K, Pending::Kind::Expr);
  EXPECT_EQ(Op->metrics().OpHoles, 0);

  // The same access on both sides of '-' is degenerate (a4); a different
  // one is not. Both children share the parent chain.
  StepRef Same = Apply(Op, Production::leaf(0));
  StepRef Other = Apply(Op, Production::leaf(1));
  EXPECT_EQ(Same->leftmost(), nullptr);
  EXPECT_TRUE(Same->metrics().complete());
  EXPECT_TRUE(Same->metrics().DegenerateOp);
  EXPECT_FALSE(Other->metrics().DegenerateOp);
  std::vector<const Production *> Replay;
  EXPECT_EQ(taco::printExpr(*Op->toExpr(Production::leaf(1), G, Replay)),
            G.TensorRules[0].spelling() + " - " +
                G.TensorRules[1].spelling());
}

TEST(TopDown, FindsMatVecTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)"},
                                  1);
  SearchConfig Config;
  SearchResult R = runTopDown(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  ASSERT_TRUE(R.Solved) << R.FailReason;
  EXPECT_EQ(taco::printProgram(R.SolvedTemplate), "a(i) = b(i,j) * c(j)");
  EXPECT_GT(R.Attempts, 0);
}

TEST(TopDown, FindsParenthesizedTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = (m(i) + v(i)) * w(i)",
                                   "r(i) = m(i) + v(i) * w(i)"},
                                  1);
  SearchConfig Config;
  SearchResult R =
      runTopDown(G, Config, accepting("a(i) = (b(i) + c(i)) * d(i)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
}

TEST(TopDown, HigherProbabilityTemplatesComeFirst) {
  // Mostly-mul candidates: the * completion must be attempted before /.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) * v(i)",
                                   "r(i) = m(i) * v(j)",
                                   "r(i) = m(j) * v(i)",
                                   "r(i) = m(i) / v(i)"},
                                  1);
  SearchConfig Config;
  std::vector<std::string> Seen;
  TemplateProbe Recorder = [&](const taco::Program &P) {
    Seen.push_back(taco::printProgram(P));
    return false;
  };
  Config.MaxAttempts = 30;
  runTopDown(G, Config, Recorder);
  auto IndexOf = [&](const std::string &S) {
    for (size_t I = 0; I < Seen.size(); ++I)
      if (Seen[I] == S)
        return static_cast<int>(I);
    return 1000;
  };
  EXPECT_LT(IndexOf("a(i) = b(i) * c(i)"), IndexOf("a(i) = b(i) / c(i)"));
}

TEST(TopDown, RespectsDepthLimit) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  Config.MaxDepth = 1; // Only single leaves are reachable.
  Config.MaxAttempts = 50;
  std::vector<std::string> Seen;
  runTopDown(G, Config, [&](const taco::Program &P) {
    Seen.push_back(taco::printProgram(P));
    return false;
  });
  for (const std::string &S : Seen)
    EXPECT_EQ(S.find('+'), std::string::npos) << S;
}

TEST(TopDown, EmptyGrammarFailsGracefully) {
  TemplateGrammar Empty;
  SearchConfig Config;
  SearchResult R = runTopDown(Empty, Config, accepting("x"));
  EXPECT_FALSE(R.Solved);
  EXPECT_FALSE(R.FailReason.empty());
}

TEST(TopDown, AttemptBudgetStopsSearch) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 3;
  SearchResult R = runTopDown(G, Config, [](const taco::Program &) {
    return false;
  });
  EXPECT_FALSE(R.Solved);
  EXPECT_LE(R.Attempts, 3);
}

TEST(BottomUp, FindsChainTemplate) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)",
                                   "r(i) = m(j,i) * v(j)"},
                                  1);
  SearchConfig Config;
  SearchResult R = runBottomUp(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  ASSERT_TRUE(R.Solved) << R.FailReason;
}

TEST(BottomUp, CannotProduceParenthesizedShapes) {
  TemplateGrammar G = makeGrammar({"r(i) = (m(i) + v(i)) * w(i)"}, 1);
  SearchConfig Config;
  Config.TimeoutSeconds = 0.5;
  SearchResult R =
      runBottomUp(G, Config, accepting("a(i) = (b(i) + c(i)) * d(i)"));
  EXPECT_FALSE(R.Solved);
}

TEST(BottomUp, ChainLengthBoundedByDimensionList) {
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.MaxAttempts = 500;
  int MaxLeaves = 0;
  runBottomUp(G, Config, [&](const taco::Program &P) {
    MaxLeaves = std::max(MaxLeaves, taco::countLeaves(*P.Rhs));
    return false;
  });
  EXPECT_LE(MaxLeaves, 2);
}

TEST(BottomUp, ProbesOnlyFullLengthChains) {
  // Algorithm 2 validates once the chain holds |L|-1 RHS tensors.
  TemplateGrammar G = makeGrammar({"r(i) = m(i) + v(i)"}, 1); // |L| = 3.
  SearchConfig Config;
  Config.MaxAttempts = 100;
  std::vector<int> LeafCounts;
  runBottomUp(G, Config, [&](const taco::Program &P) {
    LeafCounts.push_back(taco::countLeaves(*P.Rhs));
    return false;
  });
  ASSERT_FALSE(LeafCounts.empty());
  for (int Count : LeafCounts)
    EXPECT_EQ(Count, 2);
}

TEST(BottomUp, SolvesWithEqualProbabilities) {
  GrammarOptions Options;
  Options.EqualProbability = true;
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1, Options);
  SearchConfig Config;
  SearchResult R = runBottomUp(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
}

TEST(TopDown, SolvesWithFullGrammar) {
  GrammarOptions Options;
  Options.FullGrammar = true;
  Options.EqualProbability = true;
  TemplateGrammar G = makeGrammar({"r(i) = m(i,j) * v(j)"}, 1, Options);
  SearchConfig Config;
  Config.TimeoutSeconds = 10;
  SearchResult R = runTopDown(G, Config, accepting("a(i) = b(i,j) * c(j)"));
  EXPECT_TRUE(R.Solved) << R.FailReason;
  EXPECT_GT(R.Attempts, 0);
}

// A probe exception reaches the caller with its type intact, and the next
// search runs normally.
TEST(SearchLoop, ProbeExceptionPropagates) {
  TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 100;

  int Probes = 0;
  EXPECT_THROW(runTopDown(G, Config,
                          [&Probes](const taco::Program &) -> bool {
                            if (Probes++ == 4)
                              throw std::runtime_error("validator blew up");
                            return false;
                          }),
               std::runtime_error);
  EXPECT_EQ(Probes, 5);

  SearchResult R =
      runTopDown(G, Config, [](const taco::Program &) { return false; });
  EXPECT_EQ(R.FailReason, "budget exhausted");
}

// A stream that throws mid-enumeration stops the loop, and the exception
// keeps its type.
TEST(SearchLoop, StreamExceptionPropagates) {
  ThrowingStream Stream(51);
  int Probes = 0;
  EXPECT_THROW(driveSerial(Stream, [&Probes](int) {
                 return TemplateProbe([&Probes](const taco::Program &) {
                   ++Probes;
                   return false;
                 });
               }),
               std::bad_alloc);
  EXPECT_EQ(Probes, 50);
}

// A probe factory that throws stops the search before anything is probed,
// and the exception keeps its type.
TEST(SearchLoop, FactoryExceptionPropagates) {
  TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 100;
  EXPECT_THROW(runTopDown(G, Config,
                          TemplateProbeFactory([](int) -> TemplateProbe {
                            throw std::invalid_argument("no probe");
                          })),
               std::invalid_argument);
}

// A mid-search wall-clock timeout ends the search with the "timeout"
// reason, and every candidate it handed out was probed exactly once.
TEST(SearchLoop, TimeoutStopsSearch) {
  TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)",
                   "r(i) = m(i,j) + v(i)"},
                  1);
  SearchConfig Config;
  Config.MaxAttempts = 10'000;
  Config.TimeoutSeconds = 0.05;

  int64_t Probes = 0;
  SearchResult R = runTopDown(G, Config, [&Probes](const taco::Program &) {
    ++Probes;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return false;
  });
  EXPECT_FALSE(R.Solved);
  EXPECT_EQ(R.FailReason, "timeout");
  EXPECT_EQ(R.ProbesExecuted, Probes);
  EXPECT_GE(R.Seconds, Config.TimeoutSeconds);
}

// misc_mm3_chain runs its 20,000 attempts out. The top-down queue holds
// one entry per expanded state with children left to emit, not one per
// child: a queue of every child peaks at 102,263 entries here.
TEST(TopDown, Mm3ChainFrontierStaysSmall) {
  TemplateGrammar G = liftGrammar(*bench::findBenchmark("misc_mm3_chain"));
  SearchConfig Config;
  Config.TimeoutSeconds = 1e9; // The budget, not the host, ends the search.
  auto Stream = makeTopDownStream(G, Config);
  Candidate C;
  while (Stream->next(C)) {
  }
  EXPECT_EQ(Stream->failReason(), "budget exhausted");
  EXPECT_EQ(Stream->attempts(), Config.MaxAttempts);
  EXPECT_LE(Stream->peakFrontier(), 20'000u);
}

TEST(SearchLoop, ResolveThreads) {
  EXPECT_EQ(resolveThreads(3), 3);
  EXPECT_GE(resolveThreads(0), 1);
  EXPECT_GE(resolveThreads(-2), 1);
}
