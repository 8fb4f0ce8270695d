//===- search/TemplateState.cpp - Partial template states -----------------===//

#include "search/TemplateState.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <type_traits>

using namespace stagg;
using namespace stagg::search;
using namespace stagg::taco;

RuleTable::RuleTable(const grammar::TemplateGrammar &G) : G(G) {
  // Intern the distinct non-constant symbols, in rule order.
  std::vector<std::string> Symbols;
  Entries.resize(G.TensorRules.size());
  for (size_t I = 0; I < G.TensorRules.size(); ++I) {
    const grammar::TensorRule &R = G.TensorRules[I];
    Entry &E = Entries[I];
    E.IsConst = R.IsConst;
    if (R.IsConst)
      continue;
    E.HasI = std::find(R.Indices.begin(), R.Indices.end(), "i") !=
             R.Indices.end();
    if (R.Symbol != G.Lhs.name() && R.Indices.size() < 16)
      E.AccessRankBit = static_cast<uint16_t>(1u << R.Indices.size());
    size_t Id = static_cast<size_t>(
        std::find(Symbols.begin(), Symbols.end(), R.Symbol) - Symbols.begin());
    if (Id == Symbols.size())
      Symbols.push_back(R.Symbol);
    assert(Id < 64 && "more distinct tensor symbols than a mask holds");
    E.SymbolBit = uint64_t(1) << Id;
  }

  // Class and rank of each symbol. Symbols are minted per dimension-list
  // position (`b` is position 2); within a class, rank counts the earlier
  // positions of that class. The full grammar has a single class.
  constexpr int NoClass = -1;
  std::vector<int> Class(Symbols.size(), NoClass), Rank(Symbols.size(), -1);
  size_t NumPositions = G.DimList.size();
  for (size_t Id = 0; Id < Symbols.size(); ++Id) {
    const std::string &Symbol = Symbols[Id];
    if (Symbol.size() != 1 || Symbol[0] < 'b' || Symbol[0] > 'z')
      continue; // Not a positional symbol: never in order.
    size_t Position = static_cast<size_t>(Symbol[0] - 'a') + 1;
    if (!G.PositionalSymbols) {
      Class[Id] = 0;
      Rank[Id] = static_cast<int>(Position) - 2;
      continue;
    }
    if (Position > NumPositions)
      continue;
    int Dim = G.DimList[Position - 1];
    Class[Id] = Dim;
    Rank[Id] = static_cast<int>(
        std::count(G.DimList.begin() + 1,
                   G.DimList.begin() + static_cast<long>(Position) - 1, Dim));
  }

  for (Entry &E : Entries) {
    if (E.IsConst)
      continue;
    size_t Id = static_cast<size_t>(__builtin_ctzll(E.SymbolBit));
    E.Rank = Rank[Id];
    if (Class[Id] == NoClass)
      continue;
    for (size_t Other = 0; Other < Symbols.size(); ++Other)
      if (Class[Other] == Class[Id])
        E.ClassMask |= uint64_t(1) << Other;
  }
}

void StateMetrics::addLeaf(const RuleTable &Rules, int Index) {
  const RuleTable::Entry &E = Rules[Index];
  ++Leaves;
  if (E.IsConst) {
    ++ConstLeaves;
    return;
  }
  RanksUsed |= E.AccessRankBit;
  if (E.HasI)
    ++TensorsWithI;
  if (SymbolsSeen & E.SymbolBit)
    return;
  if (E.Rank != __builtin_popcountll(SymbolsSeen & E.ClassMask))
    InCanonicalOrder = false;
  SymbolsSeen |= E.SymbolBit;
}

Step *Step::allocate(Step *Parent, const Production &Applied,
                     const StateMetrics &M, size_t NumPending) {
  static_assert(std::is_trivially_destructible_v<Step> &&
                    std::is_trivially_destructible_v<Pending>,
                "StepRef::release frees nodes without running destructors");
  static_assert(sizeof(Step) % alignof(Pending) == 0,
                "the pending stack must be aligned right after the Step");
  void *Mem = ::operator new(sizeof(Step) + NumPending * sizeof(Pending));
  Step *S = new (Mem) Step(Parent, Applied, M,
                           static_cast<uint32_t>(NumPending));
  auto *Stack = reinterpret_cast<Pending *>(static_cast<char *>(Mem) +
                                            sizeof(Step));
  for (size_t I = 0; I < NumPending; ++I)
    new (Stack + I) Pending();
  return S;
}

StateMetrics Step::rootMetrics() {
  StateMetrics M;
  M.Holes = 1;
  return M;
}

StepRef Step::root() {
  return StepRef(allocate(nullptr, Production(), rootMetrics(), 1));
}

StateMetrics Step::metricsAfter(const Production &P,
                                const RuleTable &Rules) const {
  const Pending &Top = *leftmost();
  assert((Top.K == Pending::Kind::Op) == (P.K == Production::Kind::Op) &&
         "production does not match the leftmost nonterminal");
  StateMetrics Out = M;
  switch (P.K) {
  case Production::Kind::Leaf:
    Out.addLeaf(Rules, P.Rule);
    --Out.Holes;
    if (P.Rule == Top.Twin)
      Out.DegenerateOp = true;
    break;
  case Production::Kind::Bin:
    ++Out.OpHoles;
    [[fallthrough]];
  case Production::Kind::Max:
    ++Out.Holes; // One hole becomes two.
    Out.Depth = std::max(Out.Depth, Top.Depth + 1);
    break;
  case Production::Kind::Op:
    --Out.OpHoles;
    Out.addOp(P.Op);
    break;
  }
  return Out;
}

StepRef Step::extend(const StepRef &ParentRef, const Production &P,
                     const StateMetrics &M, const RuleTable &Rules) {
  const Step &Parent = *ParentRef;
  const Pending &Top = *Parent.leftmost();

  // The leftmost nonterminal is consumed; a binary node or max opens its
  // operands (and operator) in its place, left operand on top.
  Pending Opened[3];
  size_t NumOpened = 0;
  if (P.K == Production::Kind::Bin || P.K == Production::Kind::Max) {
    Pending Operand;
    Operand.Depth = Top.Depth + 1;
    Opened[NumOpened++] = Operand;
    if (P.K == Production::Kind::Bin)
      Opened[NumOpened++].K = Pending::Kind::Op;
    Operand.FeedsTwin = true;
    Opened[NumOpened++] = Operand;
  }

  size_t Kept = Parent.NumPending - 1;
  Step *S = allocate(ParentRef.S, P, M, Kept + NumOpened);
  ++ParentRef.S->Refs;
  Pending *Stack = S->pending();
  std::copy_n(Parent.pending(), Kept, Stack);
  std::copy_n(Opened, NumOpened, Stack + Kept);

  // Penalty a4 bookkeeping: a left operand's leaf travels to its operator,
  // and past a + - / operator (or directly, under max) to the right operand.
  if (P.K == Production::Kind::Leaf && Top.FeedsTwin &&
      !Rules[P.Rule].IsConst)
    Stack[Kept - 1].Twin = P.Rule;
  if (P.K == Production::Kind::Op && P.Op != BinOpKind::Mul)
    Stack[Kept - 1].Twin = Top.Twin;
  return StepRef(S);
}

namespace {

/// Rebuilds the expression of a leftmost derivation, consuming productions
/// from \p Next.
ExprPtr buildExpr(const std::vector<const Production *> &Derivation,
                  size_t &Next, const grammar::TemplateGrammar &G) {
  const Production &P = *Derivation[Next++];
  switch (P.K) {
  case Production::Kind::Leaf: {
    const grammar::TensorRule &R = G.TensorRules[static_cast<size_t>(P.Rule)];
    if (R.IsConst)
      return ConstantExpr::symbolic();
    return std::make_unique<AccessExpr>(R.Symbol, R.Indices);
  }
  case Production::Kind::Bin: {
    ExprPtr Lhs = buildExpr(Derivation, Next, G);
    BinOpKind Op = Derivation[Next++]->Op;
    ExprPtr Rhs = buildExpr(Derivation, Next, G);
    return std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs));
  }
  case Production::Kind::Max: {
    ExprPtr Lhs = buildExpr(Derivation, Next, G);
    ExprPtr Rhs = buildExpr(Derivation, Next, G);
    return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
  }
  case Production::Kind::Op:
    break;
  }
  assert(false && "operator production outside a binary node");
  return nullptr;
}

} // namespace

ExprPtr Step::toExpr(const Production &Last,
                     const grammar::TemplateGrammar &G,
                     std::vector<const Production *> &Replay) const {
  Replay.clear();
  Replay.push_back(&Last);
  for (const Step *S = this; S->Parent; S = S->Parent)
    Replay.push_back(&S->Applied);
  std::reverse(Replay.begin(), Replay.end());
  size_t Next = 0;
  ExprPtr E = buildExpr(Replay, Next, G);
  assert(Next == Replay.size() && "toExpr on an incomplete template");
  return E;
}

void StepRef::release(Step *S) {
  while (S && --S->Refs == 0) {
    Step *Parent = S->Parent;
    ::operator delete(S);
    S = Parent;
  }
}
