//===- search/TemplateState.h - Partial template states ---------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-down search state. A partial template is a leftmost derivation
/// over the template grammar, stored as a chain of immutable Step nodes:
/// each records the production it applied to the leftmost nonterminal, the
/// integer metrics of the partial template after that step, and the stack
/// of nonterminals still open (leftmost on top). Unexpanded EXPR
/// nonterminals are holes; a binary node whose OP nonterminal has not been
/// expanded yet is an "op hole". A child shares its parent by reference,
/// so one expansion costs O(1) integer work plus a copy of a stack whose
/// height is bounded by the depth limit. The top-down queue holds one entry
/// per expanded state with children left to emit (search/TopDown.h), and
/// builds a child Step only when that child is emitted and still has open
/// nonterminals; a complete template is built, by replaying the parent's
/// chain plus its last production, only when it is yielded.
///
/// The metrics also settle the validator's rank verdict: every access rule
/// carries the bit of its rank, and a complete template whose ranks are not
/// all bindable (some argument has that rank) is counted as an attempt and
/// never built (search/SearchTypes.h, AllRanksBindable).
///
/// The incremental metrics are exact because in a leftmost derivation every
/// terminal precedes the leftmost nonterminal: a new leaf always appends to
/// the leaf order, and the left operand of a binary node is complete before
/// its operator and right operand are chosen.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_TEMPLATESTATE_H
#define STAGG_SEARCH_TEMPLATESTATE_H

#include "grammar/Pcfg.h"
#include "taco/Ast.h"

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace stagg {
namespace search {

/// Per-grammar facts about every TENSOR production, built once per search.
/// Each non-constant symbol is interned to one bit; its dimension class is
/// the mask of all symbols interchangeable with it, and its rank is its
/// position within that class in minting (= alphabetical) order. With the
/// refined grammar symbols are interchangeable only within a dimension
/// class; with the full grammar every symbol is, so all share one class.
/// This is the canonical-order table of penalties a3/b1: a symbol's first
/// use is in order iff its rank equals the number of symbols of its class
/// already used.
class RuleTable {
public:
  explicit RuleTable(const grammar::TemplateGrammar &G);

  struct Entry {
    bool IsConst = false;
    bool HasI = false;       ///< Indexed by the first canonical variable.
    /// Bit of the access's rank (its number of indices) when the validator
    /// must bind the symbol to an argument of that rank; 0 for the constant,
    /// for the LHS symbol (bound to the output) and for ranks past the mask.
    uint16_t AccessRankBit = 0;
    int Rank = -1;           ///< -1: not a canonical symbol, never in order.
    uint64_t SymbolBit = 0;  ///< 0 for the constant.
    uint64_t ClassMask = 0;  ///< Symbol bits of the rule's class.
  };

  const Entry &operator[](int Index) const {
    return Entries[static_cast<size_t>(Index)];
  }

  /// Position of \p R in the grammar's TensorRules.
  int indexOf(const grammar::TensorRule &R) const {
    return static_cast<int>(&R - G.TensorRules.data());
  }

private:
  const grammar::TemplateGrammar &G;
  std::vector<Entry> Entries;
};

/// Structural metrics consumed by the penalty functions. The top-down search
/// carries them on every Step; the bottom-up search on every chain.
struct StateMetrics {
  int Leaves = 0;       ///< Tensor/constant leaves placed so far.
  int Holes = 0;        ///< Unexpanded EXPR holes.
  int OpHoles = 0;      ///< Unexpanded OP slots.
  int Depth = 1;        ///< Paper depth (accesses depth 1, holes too).
  int ConstLeaves = 0;  ///< Leaves that are the symbolic constant.
  int TensorsWithI = 0; ///< Leaves indexed by the first canonical variable.

  /// Distinct operators already fixed, one bit per taco::BinOpKind.
  unsigned OpsUsed = 0;

  /// Every symbol was first used in canonical order within its class
  /// (penalties a3/b1).
  bool InCanonicalOrder = true;

  /// Some binary node with + - or / (or some max) has the identical
  /// non-constant access on both sides (penalty a4).
  bool DegenerateOp = false;

  /// RuleTable access-rank bits of every leaf placed so far.
  uint16_t RanksUsed = 0;

  /// RuleTable symbol bits of the distinct non-constant symbols used.
  uint64_t SymbolsSeen = 0;

  bool complete() const { return Holes == 0 && OpHoles == 0; }

  /// False when some leaf has a rank outside \p BindableRanks (bit R: some
  /// argument has rank R): the validator rejects such a template on rank
  /// alone, before looking at anything else.
  bool ranksBindable(uint64_t BindableRanks) const {
    return (RanksUsed & ~BindableRanks) == 0;
  }

  int distinctOps() const { return __builtin_popcount(OpsUsed); }

  /// Accounts for one more leaf, appended to the leaf order, applying rule
  /// \p Index of \p Rules.
  void addLeaf(const RuleTable &Rules, int Index);

  void addOp(taco::BinOpKind Op) { OpsUsed |= 1u << static_cast<int>(Op); }
};

// Every top-down Step and bottom-up chain carries one; the rank bits ride in
// what was padding.
static_assert(sizeof(StateMetrics) == 40, "StateMetrics grew");

/// One production applied to the leftmost nonterminal.
struct Production {
  enum class Kind : uint8_t {
    Leaf, ///< EXPR -> TENSOR | CONSTANT, the rule at index Rule.
    Bin,  ///< EXPR -> EXPR OP EXPR.
    Max,  ///< EXPR -> max(EXPR, EXPR).
    Op,   ///< OP -> Op.
  };

  Kind K = Kind::Leaf;
  taco::BinOpKind Op = taco::BinOpKind::Add;
  int Rule = -1; ///< Index into TemplateGrammar::TensorRules.

  static Production leaf(int Rule) { return {Kind::Leaf, {}, Rule}; }
  static Production bin() { return {Kind::Bin, {}, -1}; }
  static Production max() { return {Kind::Max, {}, -1}; }
  static Production op(taco::BinOpKind Op) { return {Kind::Op, Op, -1}; }
};

/// One open nonterminal of a partial template.
struct Pending {
  enum class Kind : uint8_t { Expr, Op };
  Kind K = Kind::Expr;

  /// Left operand of a binary node or max: a non-constant leaf placed here
  /// is recorded as the Twin of the entry below (its operator or sibling).
  bool FeedsTwin = false;

  /// For an Op entry: the left operand's leaf rule. For an Expr entry: the
  /// rule whose use here makes the parent degenerate (a4). -1 when none.
  int Twin = -1;

  int Depth = 1; ///< Paper depth of an Expr hole.
};

class StepRef;

/// One node of a derivation chain. Immutable once built; shared between
/// children through StepRef.
class Step {
public:
  /// The initial state: a single EXPR hole at depth 1.
  static StepRef root();
  static StateMetrics rootMetrics();

  /// The metrics after applying \p P to this state's leftmost nonterminal,
  /// in O(1). \p P must match the leftmost nonterminal's kind.
  StateMetrics metricsAfter(const Production &P, const RuleTable &Rules) const;

  /// The child state of \p Parent under \p P. \p M must be
  /// Parent->metricsAfter(P, Rules), computed first so pruned children
  /// are never built.
  static StepRef extend(const StepRef &Parent, const Production &P,
                        const StateMetrics &M, const RuleTable &Rules);

  const StateMetrics &metrics() const { return M; }

  /// The leftmost open nonterminal, or nullptr when the template is
  /// complete.
  const Pending *leftmost() const {
    return NumPending ? &pending()[NumPending - 1] : nullptr;
  }
  size_t numPending() const { return NumPending; }

  /// Replays the derivation, with \p Last applied to this state, into the
  /// template's RHS. Only valid when the result is complete. \p Replay is
  /// scratch the caller reuses across calls.
  taco::ExprPtr toExpr(const Production &Last,
                       const grammar::TemplateGrammar &G,
                       std::vector<const Production *> &Replay) const;

private:
  friend class StepRef;

  Step(Step *Parent, const Production &Applied, const StateMetrics &M,
       uint32_t NumPending)
      : Parent(Parent), NumPending(NumPending), Applied(Applied), M(M) {}

  /// Allocates a Step followed by room for \p NumPending stack entries,
  /// which the caller fills.
  static Step *allocate(Step *Parent, const Production &Applied,
                        const StateMetrics &M, size_t NumPending);

  /// The open-nonterminal stack, stored right after the Step; the leftmost
  /// nonterminal is the last entry.
  Pending *pending() {
    return std::launder(reinterpret_cast<Pending *>(this + 1));
  }
  const Pending *pending() const {
    return std::launder(reinterpret_cast<const Pending *>(this + 1));
  }

  Step *Parent; ///< Holds one reference; nullptr for the root.
  uint32_t Refs = 1;
  uint32_t NumPending;
  Production Applied; ///< Meaningless for the root.
  StateMetrics M;
};

/// Owning reference to a Step. Counts are not atomic: a chain belongs to one
/// enumerator, which one thread drives (search/Frontier.h), and the
/// candidates it yields are built expressions that never point into it.
class StepRef {
public:
  StepRef() = default;
  StepRef(const StepRef &Other) : S(Other.S) {
    if (S)
      ++S->Refs;
  }
  StepRef(StepRef &&Other) noexcept : S(Other.S) { Other.S = nullptr; }
  /// The top-down search's family pool moves its entries as it grows; a
  /// move is two pointer writes and never touches a count.
  StepRef &operator=(StepRef &&Other) noexcept {
    std::swap(S, Other.S);
    return *this;
  }
  ~StepRef() {
    if (S)
      release(S);
  }

  explicit operator bool() const { return S != nullptr; }
  const Step &operator*() const { return *S; }
  const Step *operator->() const { return S; }

private:
  friend class Step;
  explicit StepRef(Step *S) : S(S) {}

  /// Drops one reference, freeing every node of the chain nothing else
  /// reaches.
  static void release(Step *S);

  Step *S = nullptr;
};

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_TEMPLATESTATE_H
