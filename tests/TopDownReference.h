//===- tests/TopDownReference.h - Eager top-down enumerator ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference spec of the top-down candidate order: Algorithm 1 with one
/// queue entry per child. Every pop scores and pushes every child of the
/// state it expands, ordered on (F, push counter Seq). The search itself
/// (search/TopDown.cpp) expands states partially and must yield exactly
/// this sequence with exactly these counters; CandidateOrderTest drives
/// both side by side.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TESTS_TOPDOWNREFERENCE_H
#define STAGG_TESTS_TOPDOWNREFERENCE_H

#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

namespace stagg {
namespace search {
namespace reference {

/// A queued child: the parent state plus the production to apply to it.
/// The child Step is only built when the entry is popped, so the many
/// entries that never leave the queue cost no node, and a popped complete
/// template costs none either. An entry with a null Parent is the root.
struct Item {
  double F = 0;
  double C = 0;
  uint64_t Seq = 0;
  StepRef Parent;
  Production P;
};

/// Min-heap ordering on F with FIFO tie-breaking (std::*_heap builds a
/// max-heap, so the comparison is inverted).
struct ItemGreater {
  bool operator()(const Item &A, const Item &B) const {
    if (A.F != B.F)
      return A.F > B.F;
    return A.Seq > B.Seq;
  }
};

/// Algorithm 1 as a resumable generator: the probe call sites of the old
/// serial loop become yield points. Probe outcomes never touched the heap,
/// so the pop/expand order — and with it every counter — is exactly the
/// serial loop's regardless of who consumes the stream.
class TopDownEnumerator : public CandidateStream {
public:
  TopDownEnumerator(const grammar::TemplateGrammar &G,
                    const SearchConfig &Config, uint64_t BindableRanks)
      : G(G), Config(Config), BindableRanks(BindableRanks), Costs(G),
        Rules(G) {
    if (G.DimList.empty() || G.TensorRules.empty()) {
      Done = true;
      Reason = "empty grammar (no usable LLM candidates)";
      return;
    }
    double F = priority(0, Step::rootMetrics());
    if (!std::isinf(F))
      push(F, 0, StepRef(), Production());
  }

  bool next(Candidate &Out) override {
    if (Done)
      return false;
    while (!Heap.empty()) {
      if (Clock.seconds() > Config.TimeoutSeconds)
        return fail("timeout");
      if (Expansions >= Config.MaxExpansions ||
          Attempts >= Config.MaxAttempts)
        return fail("budget exhausted");

      std::pop_heap(Heap.begin(), Heap.end(), Cmp);
      Item Current = std::move(Heap.back());
      Heap.pop_back();
      ++Expansions;

      StateMetrics M = Current.Parent
                           ? Current.Parent->metricsAfter(Current.P, Rules)
                           : Step::rootMetrics();
      if (M.Depth > Config.MaxDepth)
        continue; // Algorithm 1, line 5.

      if (M.complete()) {
        // Complete template: an attempt. One the validator would reject on
        // rank alone is settled here; the rest are built and yielded for
        // validation + verification.
        ++Attempts;
        if (!M.ranksBindable(BindableRanks))
          continue;
        Out.Ticket = NextTicket++;
        Out.Program = taco::Program(
            G.Lhs, Current.Parent->toExpr(Current.P, G, Replay));
        Out.AttemptsAtYield = Attempts;
        Out.ExpansionsAtYield = Expansions;
        return true;
      }

      const StepRef State =
          Current.Parent ? Step::extend(Current.Parent, Current.P, M, Rules)
                         : Step::root();
      const Pending *Leftmost = State->leftmost();
      if (Leftmost->K == Pending::Kind::Op) {
        static const taco::BinOpKind Ops[] = {
            taco::BinOpKind::Add, taco::BinOpKind::Sub, taco::BinOpKind::Mul,
            taco::BinOpKind::Div};
        for (taco::BinOpKind Op : Ops)
          expand(State, Current.C, Production::op(Op), Costs.costOp(Op));
        continue;
      }

      // EXPR hole: TENSOR / CONSTANT / EXPR OP EXPR.
      for (size_t I = 0; I < G.TensorRules.size(); ++I) {
        const grammar::TensorRule &Rule = G.TensorRules[I];
        double RuleCost = Rule.IsConst ? Costs.costExprConst()
                                       : Costs.costExprTensor() + Rule.Cost;
        expand(State, Current.C, Production::leaf(static_cast<int>(I)),
               RuleCost);
      }
      expand(State, Current.C, Production::bin(), Costs.costExprBin());
      // EXPR -> max(EXPR, EXPR), only when candidates supplied the
      // evidence — max-free grammars expand exactly the pre-max state space
      // in the same order.
      if (G.HasMaxRule)
        expand(State, Current.C, Production::max(), Costs.costExprMax());
    }
    return fail("search space exhausted");
  }

  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Attempts; }
  int64_t expansions() const override { return Expansions; }
  double seconds() const override { return Clock.seconds(); }
  size_t peakFrontier() const override { return PeakHeap; }

private:
  /// f(x) = c(x) + g(x) + X(x); infinite when the penalty prunes x.
  double priority(double C, const StateMetrics &M) const {
    double Penalty = topDownPenalty(M, G, Config);
    if (std::isinf(Penalty))
      return Penalty;
    double G2 = M.Holes * Costs.holeCharge() + M.OpHoles * Costs.opHoleCharge();
    return C + G2 + Penalty;
  }

  /// Queues the child of \p Parent (at cost \p ParentC) under \p P unless
  /// it is pruned. Only its metrics are computed; the Step waits for the
  /// pop.
  void expand(const StepRef &Parent, double ParentC, const Production &P,
              double StepCost) {
    double C = ParentC + StepCost;
    double F = priority(C, Parent->metricsAfter(P, Rules));
    if (std::isinf(F))
      return;
    push(F, C, Parent, P);
  }

  void push(double F, double C, StepRef Parent, const Production &P) {
    Heap.push_back(Item{F, C, NextSeq++, std::move(Parent), P});
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
  std::vector<Item> Heap;
  std::vector<const Production *> Replay;
  ItemGreater Cmp;
  uint64_t NextSeq = 0;
  uint64_t NextTicket = 0;
  int Attempts = 0;
  int64_t Expansions = 0;
  size_t PeakHeap = 0;
  bool Done = false;
  std::string Reason;
};

inline std::unique_ptr<CandidateStream>
makeTopDownStream(const grammar::TemplateGrammar &G, const SearchConfig &Config,
                  uint64_t BindableRanks = AllRanksBindable) {
  return std::make_unique<TopDownEnumerator>(G, Config, BindableRanks);
}

} // namespace reference
} // namespace search
} // namespace stagg

#endif // STAGG_TESTS_TOPDOWNREFERENCE_H
