//===- search/BottomUp.cpp - Bottom-up weighted A* enumeration ------------===//

#include "search/BottomUp.h"

#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::taco;

namespace {

struct ChainState {
  double F = 0;
  double C = 0;
  uint64_t Seq = 0;
  std::vector<const grammar::TensorRule *> Leaves;
  std::vector<BinOpKind> Ops; ///< Ops.size() == Leaves.size() - 1.
  StateMetrics M;             ///< Leaves, operators and symbol order.
};

struct ChainGreater {
  bool operator()(const ChainState &A, const ChainState &B) const {
    if (A.F != B.F)
      return A.F > B.F;
    return A.Seq > B.Seq;
  }
};

/// Folds the chain into a TACO expression. The tail grammar of §5.2 derives
/// *flat strings* (`TENSOR2 OP TENSOR3 OP ...`), so the resulting template
/// is the string's parse under standard precedence: `*`/`/` bind tighter
/// than `+`/`-`. This is precisely why the bottom-up search cannot reach
/// parenthesized shapes like `(b + c) * d`.
ExprPtr chainToExpr(const ChainState &S) {
  assert(!S.Leaves.empty() && "empty chain has no expression");
  std::vector<ExprPtr> Leaves;
  Leaves.reserve(S.Leaves.size());
  for (const grammar::TensorRule *R : S.Leaves) {
    if (R->IsConst)
      Leaves.push_back(ConstantExpr::symbolic());
    else
      Leaves.push_back(std::make_unique<AccessExpr>(R->Symbol, R->Indices));
  }
  return foldPrecedenceChain(std::move(Leaves), S.Ops);
}

/// Algorithm 2 as a resumable generator — same mechanics as the top-down
/// TopDownEnumerator: probe call sites become yield points, and since probe
/// outcomes never fed back into the queue, the pop order and counters are
/// the serial loop's for any consumer.
class BottomUpEnumerator : public CandidateStream {
public:
  BottomUpEnumerator(const grammar::TemplateGrammar &G,
                     const SearchConfig &Config, uint64_t BindableRanks)
      : G(G), Config(Config), BindableRanks(BindableRanks), Costs(G), Rules(G),
        RhsSlots(static_cast<int>(G.DimList.size()) - 1) {
    if (G.DimList.empty() || G.TensorRules.empty()) {
      Done = true;
      Reason = "empty grammar (no usable LLM candidates)";
      return;
    }

    // Suffix sums of m(L[pos]) for the heuristic g(x) = sum of the cheapest
    // still-missing tensors.
    SuffixCost.assign(static_cast<size_t>(RhsSlots) + 1, 0);
    for (int Slot = RhsSlots - 1; Slot >= 0; --Slot) {
      double M = Costs.minTensorCost(G.DimList[static_cast<size_t>(Slot) + 1]);
      if (std::isinf(M))
        M = 60; // Unfillable slot: large but finite so the search still runs.
      SuffixCost[static_cast<size_t>(Slot)] =
          SuffixCost[static_cast<size_t>(Slot) + 1] + M;
    }

    push(ChainState());
  }

  bool next(Candidate &Out) override {
    if (Done)
      return false;
    static const BinOpKind AllOps[] = {BinOpKind::Add, BinOpKind::Sub,
                                       BinOpKind::Mul, BinOpKind::Div};
    while (!Heap.empty()) {
      if (Clock.seconds() > Config.TimeoutSeconds)
        return fail("timeout");
      if (Expansions >= Config.MaxExpansions ||
          Attempts >= Config.MaxAttempts)
        return fail("budget exhausted");

      std::pop_heap(Heap.begin(), Heap.end(), Cmp);
      ChainState Current = std::move(Heap.back());
      Heap.pop_back();
      ++Expansions;

      // Algorithm 2, line 5: once the chain holds as many tensors as the
      // dimension list predicts, strip the tail nonterminal and yield for
      // probing. No expansion follows a complete chain, so resuming at the
      // loop top is exactly the serial continue. A chain the validator
      // would reject on rank alone is counted and never built, as in the
      // top-down search.
      if (static_cast<int>(Current.Leaves.size()) == RhsSlots) {
        ++Attempts;
        if (!Current.M.ranksBindable(BindableRanks))
          continue;
        Out.Ticket = NextTicket++;
        Out.Program = taco::Program(G.Lhs, chainToExpr(Current));
        Out.AttemptsAtYield = Attempts;
        Out.ExpansionsAtYield = Expansions;
        return true;
      }

      // Re-append the tail and expand: the grammar only allows growth while
      // fewer tensors than the dimension list predicts are present.
      if (static_cast<int>(Current.Leaves.size()) >= RhsSlots)
        continue;
      int NextPosition = static_cast<int>(Current.Leaves.size()) + 2;
      std::vector<const grammar::TensorRule *> Slot =
          G.rulesForPosition(NextPosition);
      if (Current.Leaves.empty()) {
        for (const grammar::TensorRule *Rule : Slot) {
          ChainState Child = Current;
          Child.Leaves.push_back(Rule);
          Child.M.addLeaf(Rules, Rules.indexOf(*Rule));
          Child.C += Rule->Cost;
          push(std::move(Child));
        }
        continue;
      }
      for (BinOpKind Op : AllOps) {
        double OpCost = Costs.costOp(Op);
        if (std::isinf(OpCost))
          continue;
        for (const grammar::TensorRule *Rule : Slot) {
          ChainState Child = Current;
          Child.Ops.push_back(Op);
          Child.M.addOp(Op);
          Child.Leaves.push_back(Rule);
          Child.M.addLeaf(Rules, Rules.indexOf(*Rule));
          Child.C += OpCost + Rule->Cost;
          push(std::move(Child));
        }
      }
    }
    return fail("search space exhausted");
  }

  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Attempts; }
  int64_t expansions() const override { return Expansions; }
  double seconds() const override { return Clock.seconds(); }
  size_t peakFrontier() const override { return PeakHeap; }

private:
  void push(ChainState S) {
    double Penalty = bottomUpPenalty(S.M, G, Config);
    if (std::isinf(Penalty))
      return;
    size_t Filled = S.Leaves.size();
    double Remaining =
        Filled <= static_cast<size_t>(RhsSlots) ? SuffixCost[Filled] : 0;
    S.F = S.C + Remaining + Penalty;
    S.Seq = NextSeq++;
    Heap.push_back(std::move(S));
    std::push_heap(Heap.begin(), Heap.end(), Cmp);
    PeakHeap = std::max(PeakHeap, Heap.size());
  }

  bool fail(const char *Why) {
    Done = true;
    Reason = Why;
    return false;
  }

  const grammar::TemplateGrammar &G;
  const SearchConfig &Config;
  const uint64_t BindableRanks;
  Timer Clock;
  CostModel Costs;
  RuleTable Rules;
  const int RhsSlots;
  std::vector<double> SuffixCost;
  std::vector<ChainState> Heap;
  ChainGreater Cmp;
  uint64_t NextSeq = 0;
  uint64_t NextTicket = 0;
  int Attempts = 0;
  int64_t Expansions = 0;
  size_t PeakHeap = 0;
  bool Done = false;
  std::string Reason;
};

} // namespace

std::unique_ptr<CandidateStream>
search::makeBottomUpStream(const grammar::TemplateGrammar &G,
                           const SearchConfig &Config,
                           uint64_t BindableRanks) {
  return std::make_unique<BottomUpEnumerator>(G, Config, BindableRanks);
}

SearchResult search::runBottomUp(const grammar::TemplateGrammar &G,
                                 const SearchConfig &Config,
                                 const TemplateProbeFactory &Factory,
                                 uint64_t BindableRanks) {
  std::unique_ptr<CandidateStream> Stream =
      makeBottomUpStream(G, Config, BindableRanks);
  return driveSerial(*Stream, Factory);
}

SearchResult search::runBottomUp(const grammar::TemplateGrammar &G,
                                 const SearchConfig &Config,
                                 const TemplateProbe &Probe,
                                 uint64_t BindableRanks) {
  return runBottomUp(G, Config,
                     TemplateProbeFactory([&Probe](int) { return Probe; }),
                     BindableRanks);
}
