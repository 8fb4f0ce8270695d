//===- search/TopDown.cpp - Top-down weighted A* enumeration --------------===//

#include "search/TopDown.h"

#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/Penalty.h"
#include "search/TemplateState.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

using namespace stagg;
using namespace stagg::search;

namespace {

constexpr double Unbounded = std::numeric_limits<double>::infinity();
constexpr uint32_t NoKid = std::numeric_limits<uint32_t>::max();

/// A scored child: its F and its production's position in the parent's
/// production order (leaves 0..n-1, then bin n and max n+1 under an EXPR
/// hole; BinOpKind order under an OP slot). The position breaks F ties
/// between siblings, as the push order of an eager queue did. Siblings are
/// chained best first through Next.
struct Kid {
  double F;
  uint32_t Index;
  uint32_t Next;
};

bool kidBefore(const Kid &A, const Kid &B) {
  return A.F < B.F || (A.F == B.F && A.Index < B.Index);
}

/// An expanded state whose children are not all emitted yet: one
/// partially expanded node of EPEA* (Goldenberg et al., JAIR 2014). Its
/// operator, bin and max children are scored when it is expanded; its leaf
/// children wait in LeafOrder and are scored only when one could tie or
/// beat its best scored child. Every leaf child has the same g(x) and a
/// penalty >= 0, so (c + leaf cost) + g is an exact lower bound of its F,
/// and LeafOrder makes the bounds ascend.
struct Family {
  StepRef State; ///< Null for the root's family, whose one child is the root.
  double C = 0;  ///< c(State).
  double NextBound = Unbounded; ///< Bound of the first unscored leaf.
  uint32_t NextLeaf = 0;        ///< First unscored leaf in LeafOrder.
  uint32_t Best = NoKid;        ///< Head of the scored children.
};

/// A family's place in the queue: a lower bound of every F it can still
/// emit, then the ordinal of its expansion. Families are expanded in pop
/// order, so (ordinal, production position) orders children exactly as a
/// push counter over an eager queue would.
struct Entry {
  double Key;
  uint64_t Ordinal;
  uint32_t Slot;
};

bool entryBefore(const Entry &A, const Entry &B) {
  return A.Key < B.Key || (A.Key == B.Key && A.Ordinal < B.Ordinal);
}

/// Algorithm 1 as a resumable generator: the probe call sites of the old
/// serial loop become yield points. Probe outcomes never touch the queue,
/// so the emit order — and with it every counter — is the same regardless
/// of who consumes the stream.
///
/// A family emits its best scored child only when that child's F is
/// strictly below the bound of its next unscored leaf; otherwise it scores
/// every leaf on that bound (scoreLeaves) and re-enters the queue. Each
/// emit is one expansion and runs the timeout and budget checks, so the
/// sequence of emitted children, Attempts and Expansions are those of a
/// queue holding every child (tests/TopDownReference.h).
class TopDownEnumerator : public CandidateStream {
public:
  TopDownEnumerator(const grammar::TemplateGrammar &G,
                    const SearchConfig &Config, uint64_t BindableRanks)
      : G(G), Config(Config), BindableRanks(BindableRanks), Costs(G),
        Rules(G), NumLeaves(static_cast<uint32_t>(G.TensorRules.size())) {
    if (G.DimList.empty() || G.TensorRules.empty()) {
      Done = true;
      Reason = "empty grammar (no usable LLM candidates)";
      return;
    }
    // Step costs of the EXPR productions by position, and the leaves in
    // ascending cost (ties in rule order).
    ExprCost.resize(NumLeaves + 2);
    LeafOrder.resize(NumLeaves);
    for (uint32_t I = 0; I < NumLeaves; ++I) {
      const grammar::TensorRule &Rule = G.TensorRules[I];
      ExprCost[I] = Rule.IsConst ? Costs.costExprConst()
                                 : Costs.costExprTensor() + Rule.Cost;
      LeafOrder[I] = I;
    }
    ExprCost[NumLeaves] = Costs.costExprBin();
    ExprCost[NumLeaves + 1] = Costs.costExprMax();
    std::sort(LeafOrder.begin(), LeafOrder.end(),
              [this](uint32_t A, uint32_t B) {
                return ExprCost[A] < ExprCost[B] ||
                       (ExprCost[A] == ExprCost[B] && A < B);
              });

    double F = priority(0, Step::rootMetrics());
    if (std::isinf(F))
      return;
    const uint32_t Slot = acquire();
    insert(Families[Slot], F, 0);
    push({F, NextOrdinal++, Slot});
  }

  bool next(Candidate &Out) override {
    if (Done)
      return false;
    while (!Heap.empty()) {
      Family &Fam = Families[Heap.front().Slot];
      if (Fam.Best == NoKid || !(Kids[Fam.Best].F < Fam.NextBound)) {
        // An unscored leaf could tie or beat the best scored child.
        scoreLeaves(Fam);
        requeueTop(Fam);
        continue;
      }

      if (Clock.seconds() > Config.TimeoutSeconds)
        return fail("timeout");
      if (Expansions >= Config.MaxExpansions ||
          Attempts >= Config.MaxAttempts)
        return fail("budget exhausted");

      const uint32_t Index = Kids[Fam.Best].Index;
      const uint32_t Next = Kids[Fam.Best].Next;
      Kids[Fam.Best].Next = FreeKid;
      FreeKid = Fam.Best;
      Fam.Best = Next;
      ++Expansions;

      Production P;
      double C = 0;
      StateMetrics M = Step::rootMetrics();
      if (Fam.State) {
        P = production(*Fam.State, Index);
        C = Fam.C + (P.K == Production::Kind::Op ? Costs.costOp(P.Op)
                                                 : ExprCost[Index]);
        M = Fam.State->metricsAfter(P, Rules);
      }

      StepRef Child;
      bool Yield = false;
      if (M.Depth > Config.MaxDepth) {
        // Algorithm 1, line 5.
      } else if (M.complete()) {
        // Complete template: an attempt. One the validator would reject on
        // rank alone is settled here; the rest are built and yielded for
        // validation + verification.
        ++Attempts;
        if (M.ranksBindable(BindableRanks)) {
          Out.Ticket = NextTicket++;
          Out.Program =
              taco::Program(G.Lhs, Fam.State->toExpr(P, G, Replay));
          Out.AttemptsAtYield = Attempts;
          Out.ExpansionsAtYield = Expansions;
          Yield = true;
        }
      } else {
        Child = Fam.State ? Step::extend(Fam.State, P, M, Rules)
                          : Step::root();
      }
      requeueTop(Fam);
      if (Child)
        expand(std::move(Child), C);
      if (Yield)
        return true;
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

  Production production(const Step &S, uint32_t Index) const {
    if (S.leftmost()->K == Pending::Kind::Op)
      return Production::op(static_cast<taco::BinOpKind>(Index));
    if (Index < NumLeaves)
      return Production::leaf(static_cast<int>(Index));
    return Index == NumLeaves ? Production::bin() : Production::max();
  }

  /// g(x) of every leaf child of \p S: one hole fewer.
  double leafG(const Step &S) const {
    const StateMetrics &M = S.metrics();
    return (M.Holes - 1) * Costs.holeCharge() +
           M.OpHoles * Costs.opHoleCharge();
  }

  /// Scores the unscored leaves of \p Fam on its NextBound, then those on
  /// each following bound until a scored child beats the next one, so the
  /// family re-enters the queue ready to emit. A leaf scored early costs
  /// one F; refining a bound at a time would cost a queue sift per bound.
  void scoreLeaves(Family &Fam) {
    const Step &S = *Fam.State;
    const double LeafG = leafG(S);
    double Best = Fam.Best == NoKid ? Unbounded : Kids[Fam.Best].F;
    Batch.clear();
    for (;;) {
      const double Bound = Fam.NextBound;
      Fam.NextBound = Unbounded;
      for (; Fam.NextLeaf < NumLeaves; ++Fam.NextLeaf) {
        const uint32_t Index = LeafOrder[Fam.NextLeaf];
        const double C = Fam.C + ExprCost[Index];
        if (C + LeafG != Bound) {
          Fam.NextBound = C + LeafG;
          break;
        }
        const double F = priority(
            C,
            S.metricsAfter(Production::leaf(static_cast<int>(Index)), Rules));
        if (std::isinf(F))
          continue;
        Batch.push_back({F, Index, NoKid});
        Best = std::min(Best, F);
      }
      if (Best < Fam.NextBound || std::isinf(Fam.NextBound))
        break;
    }
    // Merge the batch, best first, into the scored list.
    if (Batch.size() > 1)
      std::sort(Batch.begin(), Batch.end(), kidBefore);
    uint32_t Prev = NoKid;
    for (const Kid &K : Batch)
      Prev = insertAfter(Fam, Prev, K);
  }

  /// Adds a scored child to \p Fam unless it is pruned.
  void insert(Family &Fam, double F, uint32_t Index) {
    if (!std::isinf(F))
      insertAfter(Fam, NoKid, {F, Index, NoKid});
  }

  /// Links \p K into the scored list of \p Fam at its place at or after
  /// the child \p Prev (NoKid: the head), and returns its id. Ids, not
  /// pointers, because taking a node may grow Kids.
  uint32_t insertAfter(Family &Fam, uint32_t Prev, const Kid &K) {
    uint32_t Cur = Prev == NoKid ? Fam.Best : Kids[Prev].Next;
    while (Cur != NoKid && kidBefore(Kids[Cur], K)) {
      Prev = Cur;
      Cur = Kids[Cur].Next;
    }
    uint32_t Id = FreeKid;
    if (Id != NoKid) {
      FreeKid = Kids[Id].Next;
      Kids[Id] = {K.F, K.Index, Cur};
    } else {
      Id = static_cast<uint32_t>(Kids.size());
      Kids.push_back({K.F, K.Index, Cur});
    }
    (Prev == NoKid ? Fam.Best : Kids[Prev].Next) = Id;
    return Id;
  }

  /// Opens the family of a state just emitted at cost \p C.
  void expand(StepRef State, double C) {
    const uint32_t Slot = acquire();
    Family &Fam = Families[Slot];
    Fam.State = std::move(State);
    Fam.C = C;
    const Step &S = *Fam.State;
    if (S.leftmost()->K == Pending::Kind::Op) {
      for (uint32_t Op = 0; Op < 4; ++Op) {
        const Production P = Production::op(static_cast<taco::BinOpKind>(Op));
        insert(Fam, priority(C + Costs.costOp(P.Op), S.metricsAfter(P, Rules)),
               Op);
      }
    } else {
      // EXPR hole: TENSOR / CONSTANT / EXPR OP EXPR, and EXPR -> max(EXPR,
      // EXPR) only when candidates supplied the evidence — max-free
      // grammars expand exactly the pre-max state space in the same order.
      Fam.NextLeaf = 0;
      Fam.NextBound = C + ExprCost[LeafOrder[0]] + leafG(S);
      insert(Fam,
             priority(C + ExprCost[NumLeaves],
                      S.metricsAfter(Production::bin(), Rules)),
             NumLeaves);
      if (G.HasMaxRule)
        insert(Fam,
               priority(C + ExprCost[NumLeaves + 1],
                        S.metricsAfter(Production::max(), Rules)),
               NumLeaves + 1);
    }
    const double Key = familyKey(Fam);
    if (std::isinf(Key))
      release(Slot);
    else
      push({Key, NextOrdinal++, Slot});
  }

  double familyKey(const Family &Fam) const {
    return Fam.Best == NoKid ? Fam.NextBound
                             : std::min(Kids[Fam.Best].F, Fam.NextBound);
  }

  /// Re-keys the family at the top of the queue, or drops it once it has
  /// nothing left to emit.
  void requeueTop(const Family &Fam) {
    const double Key = familyKey(Fam);
    if (std::isinf(Key)) {
      release(Heap.front().Slot);
      Heap.front() = Heap.back();
      Heap.pop_back();
    } else {
      Heap.front().Key = Key;
    }
    if (!Heap.empty())
      siftDown();
  }

  uint32_t acquire() {
    if (!FreeSlots.empty()) {
      uint32_t Slot = FreeSlots.back();
      FreeSlots.pop_back();
      return Slot;
    }
    Families.emplace_back();
    return static_cast<uint32_t>(Families.size() - 1);
  }

  /// Returns a family with no child left to the pool.
  void release(uint32_t Slot) {
    Families[Slot] = Family();
    FreeSlots.push_back(Slot);
  }

  void push(const Entry &E) {
    size_t I = Heap.size();
    Heap.push_back(E);
    while (I > 0) {
      const size_t Up = (I - 1) / 2;
      if (!entryBefore(E, Heap[Up]))
        break;
      Heap[I] = Heap[Up];
      I = Up;
    }
    Heap[I] = E;
    PeakHeap = std::max(PeakHeap, Heap.size());
  }

  /// Restores the heap order after the top entry's key grew: families are
  /// re-keyed in place, not popped and pushed again.
  void siftDown() {
    const Entry E = Heap.front();
    const size_t N = Heap.size();
    size_t I = 0;
    for (;;) {
      size_t Child = 2 * I + 1;
      if (Child >= N)
        break;
      if (Child + 1 < N && entryBefore(Heap[Child + 1], Heap[Child]))
        ++Child;
      if (!entryBefore(Heap[Child], E))
        break;
      Heap[I] = Heap[Child];
      I = Child;
    }
    Heap[I] = E;
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
  const uint32_t NumLeaves;
  std::vector<double> ExprCost;    ///< By production position.
  std::vector<uint32_t> LeafOrder; ///< Leaf positions by ascending cost.
  std::vector<Family> Families;
  std::vector<uint32_t> FreeSlots;
  std::vector<Kid> Kids; ///< Every family's scored children.
  uint32_t FreeKid = NoKid;
  std::vector<Kid> Batch; ///< Leaves scored by one scoreLeaves call.
  std::vector<Entry> Heap; ///< Binary min-heap on entryBefore.
  std::vector<const Production *> Replay;
  uint64_t NextOrdinal = 0;
  uint64_t NextTicket = 0;
  int Attempts = 0;
  int64_t Expansions = 0;
  size_t PeakHeap = 0;
  bool Done = false;
  std::string Reason;
};

} // namespace

std::unique_ptr<CandidateStream>
search::makeTopDownStream(const grammar::TemplateGrammar &G,
                          const SearchConfig &Config, uint64_t BindableRanks) {
  return std::make_unique<TopDownEnumerator>(G, Config, BindableRanks);
}

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbeFactory &Factory,
                                uint64_t BindableRanks) {
  std::unique_ptr<CandidateStream> Stream =
      makeTopDownStream(G, Config, BindableRanks);
  return driveSerial(*Stream, Factory);
}

SearchResult search::runTopDown(const grammar::TemplateGrammar &G,
                                const SearchConfig &Config,
                                const TemplateProbe &Probe,
                                uint64_t BindableRanks) {
  return runTopDown(G, Config,
                    TemplateProbeFactory([&Probe](int) { return Probe; }),
                    BindableRanks);
}
