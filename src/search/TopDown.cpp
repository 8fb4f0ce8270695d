//===- search/TopDown.cpp - Top-down weighted A* enumeration --------------===//

#include "search/TopDown.h"

#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

using namespace stagg;
using namespace stagg::search;

namespace {

struct Item {
  double F = 0;
  double C = 0;
  uint64_t Seq = 0;
  StepRef State;
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
                    const SearchConfig &Config)
      : G(G), Config(Config), Costs(G), Rules(G) {
    if (G.DimList.empty() || G.TensorRules.empty()) {
      Done = true;
      Reason = "empty grammar (no usable LLM candidates)";
      return;
    }
    StepRef Root = Step::root();
    double F = priority(0, Root->metrics());
    if (!std::isinf(F))
      push(F, 0, std::move(Root));
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

      const Step &State = *Current.State;
      if (State.metrics().Depth > Config.MaxDepth)
        continue; // Algorithm 1, line 5.

      const Pending *Leftmost = State.leftmost();
      if (!Leftmost) {
        // Complete template: yield it for validation + verification.
        Out.Ticket = NextTicket++;
        Out.Program = taco::Program(G.Lhs, State.toExpr(G));
        Out.AttemptsAtYield = ++Attempts;
        Out.ExpansionsAtYield = Expansions;
        return true;
      }

      if (Leftmost->K == Pending::Kind::Op) {
        static const taco::BinOpKind Ops[] = {
            taco::BinOpKind::Add, taco::BinOpKind::Sub, taco::BinOpKind::Mul,
            taco::BinOpKind::Div};
        for (taco::BinOpKind Op : Ops)
          expand(Current, Production::op(Op), Costs.costOp(Op));
        continue;
      }

      // EXPR hole: TENSOR / CONSTANT / EXPR OP EXPR.
      for (size_t I = 0; I < G.TensorRules.size(); ++I) {
        const grammar::TensorRule &Rule = G.TensorRules[I];
        double RuleCost = Rule.IsConst ? Costs.costExprConst()
                                       : Costs.costExprTensor() + Rule.Cost;
        expand(Current, Production::leaf(static_cast<int>(I)), RuleCost);
      }
      expand(Current, Production::bin(), Costs.costExprBin());
      // EXPR -> max(EXPR, EXPR), only when candidates supplied the
      // evidence — max-free grammars expand exactly the pre-max state space
      // in the same order.
      if (G.HasMaxRule)
        expand(Current, Production::max(), Costs.costExprMax());
    }
    return fail("search space exhausted");
  }

  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Attempts; }
  int64_t expansions() const override { return Expansions; }
  double seconds() const override { return Clock.seconds(); }

private:
  /// f(x) = c(x) + g(x) + X(x); infinite when the penalty prunes x.
  double priority(double C, const StateMetrics &M) const {
    double Penalty = topDownPenalty(M, G, Config);
    if (std::isinf(Penalty))
      return Penalty;
    double G2 = M.Holes * Costs.holeCharge() + M.OpHoles * Costs.opHoleCharge();
    return C + G2 + Penalty;
  }

  /// Pushes the child of \p Parent under \p P unless it is pruned. Its
  /// metrics come first, so a pruned child is never built.
  void expand(const Item &Parent, const Production &P, double StepCost) {
    double C = Parent.C + StepCost;
    StateMetrics M = Parent.State->metricsAfter(P, Rules);
    double F = priority(C, M);
    if (std::isinf(F))
      return;
    push(F, C, Step::extend(Parent.State, P, M, Rules));
  }

  void push(double F, double C, StepRef State) {
    Heap.push_back(Item{F, C, NextSeq++, std::move(State)});
    std::push_heap(Heap.begin(), Heap.end(), Cmp);
  }

  bool fail(const char *Why) {
    Done = true;
    Reason = Why;
    return false;
  }

  const grammar::TemplateGrammar &G;
  const SearchConfig &Config;
  Timer Clock;
  CostModel Costs;
  RuleTable Rules;
  std::vector<Item> Heap;
  ItemGreater Cmp;
  uint64_t NextSeq = 0;
  uint64_t NextTicket = 0;
  int Attempts = 0;
  int64_t Expansions = 0;
  bool Done = false;
  std::string Reason;
};

} // namespace

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbeFactory &Factory) {
  TopDownEnumerator Stream(G, Config);
  return runFrontier(Stream, Config, Factory);
}

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbe &Probe) {
  return runTopDown(G, Config,
                    TemplateProbeFactory([&Probe](int) { return Probe; }));
}
