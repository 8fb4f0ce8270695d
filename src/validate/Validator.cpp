//===- validate/Validator.cpp - Template validation (§6) ------------------===//

#include "validate/Validator.h"

#include "taco/Semantics.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <string_view>

using namespace stagg;
using namespace stagg::validate;
using namespace stagg::taco;

taco::Program validate::instantiateTemplate(
    const Program &Template,
    const std::map<std::string, std::string> &SymbolBinding,
    const std::vector<int64_t> &ConstantValues) {
  size_t ConstAt = 0;
  std::function<ExprPtr(const Expr &)> Rewrite =
      [&](const Expr &E) -> ExprPtr {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      auto It = SymbolBinding.find(A.name());
      std::string Name = It != SymbolBinding.end() ? It->second : A.name();
      return std::make_unique<AccessExpr>(Name, A.indices());
    }
    case Expr::Kind::Constant: {
      const auto &C = exprCast<ConstantExpr>(E);
      if (!C.isSymbolic())
        return C.clone();
      assert(ConstAt < ConstantValues.size() && "missing constant value");
      return std::make_unique<ConstantExpr>(ConstantValues[ConstAt++]);
    }
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      ExprPtr Lhs = Rewrite(B.lhs());
      ExprPtr Rhs = Rewrite(B.rhs());
      return std::make_unique<BinaryExpr>(B.op(), std::move(Lhs),
                                          std::move(Rhs));
    }
    case Expr::Kind::Negate:
      return std::make_unique<NegateExpr>(
          Rewrite(exprCast<NegateExpr>(E).operand()));
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      ExprPtr Lhs = Rewrite(M.lhs());
      ExprPtr Rhs = Rewrite(M.rhs());
      return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
    }
    }
    return nullptr;
  };

  auto LhsIt = SymbolBinding.find(Template.Lhs.name());
  AccessExpr Lhs(LhsIt != SymbolBinding.end() ? LhsIt->second
                                              : Template.Lhs.name(),
                 Template.Lhs.indices());
  return Program(std::move(Lhs),
                 Template.Rhs ? Rewrite(*Template.Rhs) : nullptr);
}

uint64_t validate::bindableRanks(const bench::Benchmark &B) {
  uint64_t Ranks = 0;
  for (const bench::ArgSpec &Arg : B.Args)
    if (Arg.rank() < 64)
      Ranks |= uint64_t(1) << Arg.rank();
  return Ranks;
}

Validator::Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
                     std::vector<int64_t> Constants)
    : B(B), Examples(std::move(Examples)), Constants(std::move(Constants)),
      ArgRanks(bindableRanks(B)) {
  // An empty pool would make constant templates uninstantiable even though
  // the grammar can propose them; keep the degenerate default of the source
  // having no literals.
  if (this->Constants.empty())
    this->Constants.push_back(1);
}

namespace {

/// The per-cell acceptance shared by runsConsistently and the validator's
/// fast path — the bit-identical contract between them depends on there
/// being exactly one definition. Inputs are small integers, so everything
/// except division is exact; division gets a relative tolerance.
bool cellsMatch(double A, double E) {
  if (!std::isfinite(A) || !std::isfinite(E))
    return false;
  double Tolerance = 1e-9 * std::max({1.0, std::fabs(A), std::fabs(E)});
  return std::fabs(A - E) <= Tolerance;
}

} // namespace

bool validate::runsConsistently(const bench::Benchmark &B,
                                const Program &Concrete,
                                const std::vector<IoExample> &Examples) {
  const bench::ArgSpec *OutArg = B.outputArg();

  // Names of tensors actually read by the RHS. A symbol bound to the output
  // argument (Fig. 8's S2) reads the *initial* output buffer, so the output
  // name can legitimately appear here too.
  std::vector<std::string> RhsNames;
  std::function<void(const Expr &)> Collect = [&](const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::string &Name = exprCast<AccessExpr>(E).name();
      if (std::find(RhsNames.begin(), RhsNames.end(), Name) == RhsNames.end())
        RhsNames.push_back(Name);
      return;
    }
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      Collect(Bin.lhs());
      Collect(Bin.rhs());
      return;
    }
    case Expr::Kind::Negate:
      Collect(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      Collect(M.lhs());
      Collect(M.rhs());
      return;
    }
    case Expr::Kind::Constant:
      return;
    }
  };
  Collect(*Concrete.Rhs);

  vm::Code Code = vm::compileProgram(Concrete);
  vm::Interpreter<double> Interp(Code);
  for (const IoExample &Ex : Examples) {
    std::map<std::string, Tensor<double>> Operands;
    for (const std::string &Name : RhsNames) {
      const bench::ArgSpec *Arg = B.findArg(Name);
      if (!Arg)
        return false;
      if (Arg->K == bench::ArgSpec::Kind::Array) {
        Tensor<double> T(resolveShape(*Arg, Ex.Sizes));
        T.flat() = Ex.Inputs.Arrays.at(Arg->Name);
        Operands.emplace(Arg->Name, std::move(T));
      } else if (Arg->K == bench::ArgSpec::Kind::SizeScalar) {
        Operands.emplace(Arg->Name, Tensor<double>::scalar(static_cast<double>(
                                        Ex.Sizes.at(Arg->Name))));
      } else {
        Operands.emplace(Arg->Name, Tensor<double>::scalar(
                                        Ex.Inputs.NumScalars.at(Arg->Name)));
      }
    }

    if (!Interp.bindMap(Operands, resolveShape(*OutArg, Ex.Sizes)) ||
        Interp.compare(Ex.Expected.flat(), cellsMatch) != EinsumCompare::Match)
      return false;
  }
  return true;
}

namespace {

/// boost::hash_combine's mixer: order-sensitive, cheap, good enough to
/// order a chain's operands.
uint64_t mix(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

/// The memo table's hash of a key, eight bytes at a time. The last step
/// folds the high bits into the low ones, which pick the table slot.
uint64_t hashKey(std::string_view Key) {
  uint64_t H = Key.size();
  for (size_t I = 0; I < Key.size(); I += 8) {
    uint64_t Word = 0;
    std::memcpy(&Word, Key.data() + I, std::min<size_t>(8, Key.size() - I));
    H = mix(H, Word);
  }
  H *= 0x9e3779b97f4a7c15ull;
  return H ^ (H >> 32);
}

/// A name of at most eight bytes packed into one word, so that names
/// compare as integers; 0 for a longer name. Names never hold a NUL.
uint64_t nameWord(const std::string &Name) {
  if (Name.size() > 8)
    return 0;
  uint64_t Word = 0;
  for (char C : Name)
    Word = Word << 8 | static_cast<unsigned char>(C);
  return Word;
}

uint64_t magnitude(int64_t V) {
  return V < 0 ? uint64_t(0) - static_cast<uint64_t>(V)
               : static_cast<uint64_t>(V);
}

/// The rejection memo's canonical form of a template (Validator.h): every
/// `+` chain flattened across the `+` nodes that introduce no reduction,
/// every `*` chain across all its `*` nodes, the operands of each chain
/// sorted, every other node kept as written. print() renames the symbols
/// other than the LHS symbol by first appearance in that order. The
/// buffers are reused from template to template.
///
/// Operands sort by a hash that names no symbol: a leaf hashes its index
/// variables and a signature of its symbol (the sum of the hashes of all
/// its uses), so renaming the symbols changes no hash. Leaves that still
/// tie sort by their symbol's first appearance in the template, which keeps
/// each symbol's uses together. Any deterministic order is sound, since the
/// key prints the whole form; this one also gives `b*b*c` and `b*c*c`
/// (over like leaves) one key, as a renaming maps one onto the other.
class CanonicalForm {
public:
  /// Use counts are packed one byte per reduction variable.
  static constexpr size_t MaxReductionVars = 8;
  static constexpr size_t MaxLeaves = 255;

  /// Builds the form of \p T (which has an RHS). False when \p T has more
  /// reduction variables or leaves than the packed counts hold, or a name
  /// longer than eight bytes; such a template has no key.
  bool build(const Program &T) {
    this->T = &T;
    LhsName = nameWord(T.Lhs.name());
    LhsVars.clear();
    for (const std::string &Var : T.Lhs.indices())
      LhsVars.push_back(nameWord(Var));
    if (LhsName == 0 ||
        std::find(LhsVars.begin(), LhsVars.end(), 0) != LhsVars.end())
      return false;
    Nodes.clear();
    Operands.clear();
    ReductionVars.clear();
    Symbols.clear();
    Signatures.clear();
    Accesses.clear();
    TotalUses = 0;
    Leaves = 0;
    HasDivision = false;
    MaxLiteral = 0;
    // Names are at most 8 bytes: the LHS access, its '(', ')', a comma or
    // ')' per index, and '='.
    KeyBound = 8 + 2 + 9 * LhsVars.size() + 1;
    if (!scan(*T.Rhs))
      return false;
    NextAccess = 0;
    Root = canon(*T.Rhs);
    return true;
  }

  /// Appends the key of the form built last. It is written through a
  /// pointer into room sized by build(), which bounds every node's text.
  void print(std::string &Out) {
    Numbers.assign(Symbols.size(), -1);
    NextNumber = 0;
    const size_t At = Out.size();
    Out.resize(At + KeyBound);
    char *P = Out.data() + At;
    P = std::copy(T->Lhs.name().begin(), T->Lhs.name().end(), P);
    P = printIndices(T->Lhs.indices(), P);
    *P++ = '=';
    P = printNode(Root, P);
    assert(P <= Out.data() + At + KeyBound && "key bound too small");
    Out.resize(static_cast<size_t>(P - Out.data()));
  }

  /// Facts of the template built last, for the exactness bound.
  bool HasDivision = false;
  size_t Leaves = 0;
  uint64_t MaxLiteral = 0;
  size_t reductions() const { return ReductionVars.size(); }

private:
  struct Node {
    /// 'a' access, 'k' literal, '$' symbolic constant, '~' negate, 'm'
    /// max, else the binary operator's character.
    char Tag;
    /// An access's symbol (an index into Symbols; -1 for the LHS symbol
    /// and for every other node): the tie-break among equal hashes.
    int Sym;
    const Expr *Leaf;
    /// Operands[Begin, Begin + Count): the children, in canonical order.
    uint32_t Begin;
    uint32_t Count;
    uint64_t Hash;
    /// Byte V: the leaves of this subtree that use reduction variable V.
    uint64_t Uses;
    /// Some reduction is introduced at this node (taco/Einsum.h: its
    /// subtree holds every use and no child's does).
    bool Reduces;
  };

  /// What scan() learns of each access, in leaf order.
  struct AccessFacts {
    int Sym;
    uint64_t Shape;
    uint64_t Uses;
  };

  static int find(const std::vector<uint64_t> &Words, uint64_t Word) {
    for (size_t I = 0; I < Words.size(); ++I)
      if (Words[I] == Word)
        return static_cast<int>(I);
    return -1;
  }

  /// Bit V set when \p Uses holds every use of reduction variable V.
  uint32_t complete(uint64_t Uses) const {
    uint32_t Mask = 0;
    for (size_t V = 0; V < ReductionVars.size(); ++V)
      if ((Uses >> (8 * V) & 0xff) == (TotalUses >> (8 * V) & 0xff))
        Mask |= uint32_t(1) << V;
    return Mask;
  }

  /// First pass: the reduction variables (on the RHS, not on the LHS) with
  /// their total uses, the symbols with their signatures, each access's
  /// facts, and the leaf count. A variable repeated within one access
  /// counts once, as in the structure compiler.
  bool scan(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      const uint64_t Name = nameWord(A.name());
      const bool IsLhs = Name == LhsName;
      uint64_t Shape = mix('a', IsLhs);
      uint64_t Uses = 0;
      uint64_t Seen = 0; // Reduction variables already counted here.
      for (const std::string &Var : A.indices()) {
        const uint64_t Word = nameWord(Var);
        if (Word == 0)
          return false;
        Shape = mix(Shape, Word);
        if (find(LhsVars, Word) >= 0)
          continue;
        int V = find(ReductionVars, Word);
        if (V < 0) {
          if (ReductionVars.size() == MaxReductionVars)
            return false;
          V = static_cast<int>(ReductionVars.size());
          ReductionVars.push_back(Word);
        }
        if (Seen >> V & 1)
          continue;
        Seen |= uint64_t(1) << V;
        Uses += uint64_t(1) << (8 * V);
      }
      int Sym = -1;
      if (!IsLhs) {
        if (Name == 0)
          return false;
        Sym = find(Symbols, Name);
        if (Sym < 0) {
          Sym = static_cast<int>(Symbols.size());
          Symbols.push_back(Name);
          Signatures.push_back(0);
        }
        Signatures[static_cast<size_t>(Sym)] += Shape * 0x9e3779b97f4a7c15ull;
      }
      Accesses.push_back({Sym, Shape, Uses});
      TotalUses += Uses;
      // The name, or '#' and a symbol number below 256.
      KeyBound += 8 + 2 + 9 * A.indices().size();
      return ++Leaves <= MaxLeaves;
    }
    case Expr::Kind::Constant:
      KeyBound += 21; // A sign and 20 digits.
      return ++Leaves <= MaxLeaves;
    // An operator's tag, '(', ')' and a comma per operand. A flattened
    // chain of n operands prints n + 2 characters for its n - 1 nodes.
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      KeyBound += 5;
      return scan(Bin.lhs()) && scan(Bin.rhs());
    }
    case Expr::Kind::Negate:
      KeyBound += 4;
      return scan(exprCast<NegateExpr>(E).operand());
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      KeyBound += 5;
      return scan(M.lhs()) && scan(M.rhs());
    }
    }
    return false;
  }

  int addLeaf(char Tag, int Sym, const Expr &E, uint64_t Hash,
              uint64_t Uses) {
    const uint32_t Begin = static_cast<uint32_t>(Operands.size());
    Nodes.push_back({Tag, Sym, &E, Begin, 0, Hash, Uses, false});
    return static_cast<int>(Nodes.size() - 1);
  }

  /// Second pass: lowers \p E, children first; returns its node.
  int canon(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const AccessFacts &A = Accesses[NextAccess++];
      const uint64_t Signature =
          A.Sym < 0 ? 0 : Signatures[static_cast<size_t>(A.Sym)];
      return addLeaf('a', A.Sym, E, mix(A.Shape, Signature), A.Uses);
    }
    case Expr::Kind::Constant: {
      const auto &C = exprCast<ConstantExpr>(E);
      if (C.isSymbolic())
        return addLeaf('$', -1, E, mix('$', 0), 0);
      MaxLiteral = std::max(MaxLiteral, magnitude(C.value()));
      return addLeaf('k', -1, E, mix('k', static_cast<uint64_t>(C.value())),
                     0);
    }
    case Expr::Kind::Negate: {
      const int Child = canon(exprCast<NegateExpr>(E).operand());
      return opNode('~', Child, -1);
    }
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      const int L = canon(M.lhs());
      return opNode('m', L, canon(M.rhs()));
    }
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      const int L = canon(Bin.lhs());
      const int R = canon(Bin.rhs());
      switch (Bin.op()) {
      case BinOpKind::Add:
        return opNode('+', L, R);
      case BinOpKind::Mul:
        return opNode('*', L, R);
      case BinOpKind::Sub:
        return opNode('-', L, R);
      case BinOpKind::Div:
        HasDivision = true;
        return opNode('/', L, R);
      }
      break;
    }
    }
    return -1;
  }

  /// An operator node over \p L and \p R (-1 for a negation). A `*` takes
  /// over the operands of a `*` child, and a `+` those of a `+` child that
  /// introduces no reduction; then the operands are sorted (a stable
  /// insertion sort: chains are short, and it allocates nothing). A sum
  /// over v introduced at a `*` child may move out to the chain: no other
  /// factor uses v, so a * sum_v(f) = sum_v(a * f); a sum introduced at a
  /// `+` child may not, as b + sum_v(f) adds b once, not once per v.
  int opNode(char Tag, int L, int R) {
    const uint32_t Begin = static_cast<uint32_t>(Operands.size());
    const bool Chain = Tag == '+' || Tag == '*';
    uint64_t Uses = 0;
    uint32_t Within = ~uint32_t(0);
    for (int Child : {L, R}) {
      if (Child < 0)
        continue;
      const Node &N = Nodes[static_cast<size_t>(Child)];
      Uses += N.Uses;
      Within &= ~complete(N.Uses);
      if (!Chain || N.Tag != Tag || (Tag == '+' && N.Reduces)) {
        Operands.push_back(Child);
        continue;
      }
      for (uint32_t I = N.Begin; I < N.Begin + N.Count; ++I)
        Operands.push_back(Operands[I]);
    }
    auto Before = [this](int A, int B) {
      const Node &X = Nodes[static_cast<size_t>(A)];
      const Node &Y = Nodes[static_cast<size_t>(B)];
      return X.Hash != Y.Hash ? X.Hash < Y.Hash : X.Sym < Y.Sym;
    };
    if (Chain)
      for (size_t I = Begin + 1; I < Operands.size(); ++I)
        for (size_t J = I; J > Begin && Before(Operands[J], Operands[J - 1]);
             --J)
          std::swap(Operands[J], Operands[J - 1]);
    uint64_t Hash = mix(static_cast<unsigned char>(Tag), Operands.size() - Begin);
    for (size_t I = Begin; I < Operands.size(); ++I)
      Hash = mix(Hash, Nodes[static_cast<size_t>(Operands[I])].Hash);
    const bool Reduces = (complete(Uses) & Within) != 0;
    Nodes.push_back({Tag, -1, nullptr, Begin,
                     static_cast<uint32_t>(Operands.size()) - Begin, Hash,
                     Uses, Reduces});
    return static_cast<int>(Nodes.size() - 1);
  }

  static char *printIndices(const std::vector<std::string> &Indices,
                            char *P) {
    *P++ = '(';
    for (size_t I = 0; I < Indices.size(); ++I) {
      if (I)
        *P++ = ',';
      P = std::copy(Indices[I].begin(), Indices[I].end(), P);
    }
    *P++ = ')';
    return P;
  }

  static char *printNumber(uint64_t Value, char *P) {
    return std::to_chars(P, P + 20, Value).ptr;
  }

  char *printNode(int Id, char *P) {
    const Node &N = Nodes[static_cast<size_t>(Id)];
    switch (N.Tag) {
    case 'a': {
      const auto &A = exprCast<AccessExpr>(*N.Leaf);
      if (N.Sym < 0) {
        P = std::copy(A.name().begin(), A.name().end(), P);
      } else {
        int &Number = Numbers[static_cast<size_t>(N.Sym)];
        if (Number < 0)
          Number = NextNumber++;
        *P++ = '#';
        P = printNumber(static_cast<uint64_t>(Number), P);
      }
      return printIndices(A.indices(), P);
    }
    case 'k': {
      const int64_t V = exprCast<ConstantExpr>(*N.Leaf).value();
      if (V < 0)
        *P++ = '-';
      return printNumber(magnitude(V), P);
    }
    case '$':
      *P++ = '$';
      return P;
    default:
      *P++ = N.Tag;
      *P++ = '(';
      for (uint32_t I = 0; I < N.Count; ++I) {
        if (I)
          *P++ = ',';
        P = printNode(Operands[N.Begin + I], P);
      }
      *P++ = ')';
      return P;
    }
  }

  const Program *T = nullptr;
  std::vector<Node> Nodes;
  std::vector<int> Operands;
  int Root = -1;
  /// Names as words (nameWord): the LHS symbol and index variables, and
  /// the reduction variables and other symbols in order of first
  /// appearance.
  uint64_t LhsName = 0;
  std::vector<uint64_t> LhsVars;
  std::vector<uint64_t> ReductionVars;
  std::vector<uint64_t> Symbols;
  std::vector<uint64_t> Signatures;
  std::vector<AccessFacts> Accesses;
  size_t NextAccess = 0;
  uint64_t TotalUses = 0;
  /// At least the length of the key print() writes.
  size_t KeyBound = 0;
  /// print()'s renaming: symbol -> number, -1 until first printed.
  std::vector<int> Numbers;
  int NextNumber = 0;
};

/// The keys of the templates a validator rejected: their bytes back to back
/// in one arena, found through an open-addressed table of (hash, offset,
/// length). Both grow by doubling, so inserts amortize; the first insert
/// reserves room for a few hundred keys.
class KeySet {
public:
  bool contains(std::string_view Key, uint64_t Hash) const {
    if (Slots.empty())
      return false;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Size == 0)
        return false;
      if (S.Hash == Hash && std::string_view(Arena).substr(S.Begin, S.Size) ==
                                Key)
        return true;
    }
  }

  /// Adds \p Key, which must be absent and non-empty.
  void insert(std::string_view Key, uint64_t Hash) {
    if (Slots.empty()) {
      Slots.resize(512);
      Arena.reserve(16384);
    } else if (2 * (Count + 1) > Slots.size()) {
      std::vector<Slot> Old(Slots.size() * 2);
      Old.swap(Slots);
      for (const Slot &S : Old)
        if (S.Size != 0)
          place(S);
    }
    assert(!Key.empty() && Arena.size() + Key.size() <= UINT32_MAX);
    place({Hash, static_cast<uint32_t>(Arena.size()),
           static_cast<uint32_t>(Key.size())});
    Arena.append(Key);
    ++Count;
  }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Begin = 0;
    /// 0 marks an empty slot.
    uint32_t Size = 0;
  };

  void place(const Slot &S) {
    const size_t Mask = Slots.size() - 1;
    size_t I = S.Hash & Mask;
    while (Slots[I].Size != 0)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }

  std::string Arena;
  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace

std::string validate::templateKey(const Program &Template) {
  CanonicalForm Form;
  std::string Key;
  if (Template.Rhs && Form.build(Template))
    Form.print(Key);
  return Key;
}

/// Everything the validator keeps between calls. The argument table is
/// built once per validator; the rest is per-template scratch whose buffers
/// are reused, so a call allocates only when a template outgrows them.
struct Validator::State {
  //===-- Argument table: one row per I/O example --------------------------===
  struct ExampleArgs {
    /// Storage for every bound argument (an argument missing from the
    /// example stays unbound; evaluating a candidate that reads it fails).
    std::map<std::string, Tensor<double>> Operands;
    /// Per argument (B.Args order): its operand, nullptr when unbound.
    std::vector<const Tensor<double> *> Ptr;
    /// Every argument's resolved shape, concatenated (see DimBegin).
    std::vector<int64_t> Dims;
    std::vector<int64_t> OutShape;
    const Tensor<double> *Out = nullptr;
    /// Every output extent is positive; a binding on this example fails
    /// otherwise, as Interpreter::bind does.
    bool OutPositive = true;
  };
  std::vector<ExampleArgs> Table;
  /// Per argument: offset of its shape in ExampleArgs::Dims (rank-sized).
  std::vector<size_t> DimBegin;

  //===-- Per-template scratch ---------------------------------------------===
  /// RHS access leaves in leaf order — the access-ordinal order of the
  /// compiled code: each leaf's symbol (-1 for the LHS symbol, else an
  /// index into SymNames) and its index-variable ids (LeafVars from
  /// LeafVarBegin[L] to LeafVarBegin[L + 1]).
  std::vector<int> LeafSym;
  std::vector<int> LeafVars;
  std::vector<size_t> LeafVarBegin;
  /// Distinct non-LHS symbols in order of first appearance, with the rank
  /// of that first appearance (the rank filter's key).
  std::vector<const std::string *> SymNames;
  std::vector<int> SymOrder;
  /// Distinct index variables; a variable's id is its position.
  std::vector<const std::string *> VarNames;
  std::vector<int> LhsVars;
  /// Extents pinned by the output shape: [Example * NumVars + Var], -1 when
  /// unpinned.
  std::vector<int64_t> BaseExtents;
  /// Options: argument indices of symbol S's candidates are
  /// ChoiceArg[ChoiceBegin[S]] .. ChoiceArg[ChoiceBegin[S + 1] - 1].
  std::vector<int> ChoiceArg;
  std::vector<size_t> ChoiceBegin;
  /// Unpinned (var, extent) pairs option O imposes on example E:
  /// Cons[ConsBegin[O * NumExamples + E]] .. Cons[ConsBegin[... + 1] - 1].
  std::vector<std::pair<int, int64_t>> Cons;
  std::vector<size_t> ConsBegin;
  std::vector<int64_t> Local;
  /// Every variable's extent per example under the current binding:
  /// [Example * NumVars + Var].
  std::vector<int64_t> BindExtents;
  std::vector<size_t> Pick;
  std::vector<size_t> ConstPick;
  std::vector<int64_t> ConstValues;
  std::vector<uint64_t> BoundEpoch;
  std::vector<char> BindOk;

  //===-- VM evaluation: per-template code and binding tables --------------===
  /// The template's structure and bytecode, recompiled in place per
  /// template, and one interpreter per example re-pointed at it.
  taco::EinsumProgram Structure;
  vm::Code Code;
  std::vector<vm::Interpreter<double>> Interps;
  /// One access binding per (leaf, option, example):
  /// LeafBinds[(LeafOptBase[L] + Option) * NumExamples + E], Data null when
  /// the operand cannot be bound there. The LHS symbol has one option.
  std::vector<vm::AccessBinding<double>> LeafBinds;
  std::vector<size_t> LeafOptBase;
  std::vector<vm::SlotStride> Spans;
  /// The current binding's row for one example, handed to bindPrepared.
  std::vector<vm::AccessBinding<double>> BindRow;
  /// Value per constant ordinal of the code; SymConstOrdinal[I] is the
  /// ordinal of the I-th symbolic constant.
  std::vector<double> ConstRegValues;
  std::vector<size_t> SymConstOrdinal;

  //===-- Rejection memo ---------------------------------------------------===
  /// Every value a template can read, over every example: input and output
  /// cells, size and numeric scalars, and the constant pool. Exact when all
  /// of them are integers below 2^53 in magnitude; then MaxValue bounds
  /// their magnitudes and MaxExtent every index variable's extent.
  bool IntegerValues = true;
  uint64_t MaxValue = 0;
  uint64_t MaxExtent = 0;
  CanonicalForm Form;
  std::string Key;
  KeySet Rejected;
};

Validator::~Validator() = default;

Validator::State &Validator::state() const {
  if (Cache)
    return *Cache;
  Cache = std::make_unique<State>();
  State &S = *Cache;
  const bench::ArgSpec *OutArg = B.outputArg();
  size_t Dims = 0;
  for (const bench::ArgSpec &Arg : B.Args) {
    S.DimBegin.push_back(Dims);
    Dims += static_cast<size_t>(Arg.rank());
  }
  S.Table.resize(Examples.size());
  for (size_t E = 0; E < Examples.size(); ++E) {
    const IoExample &Ex = Examples[E];
    State::ExampleArgs &Row = S.Table[E];
    for (const bench::ArgSpec &Arg : B.Args) {
      std::vector<int64_t> Shape = resolveShape(Arg, Ex.Sizes);
      Row.Dims.insert(Row.Dims.end(), Shape.begin(), Shape.end());
      if (Arg.K == bench::ArgSpec::Kind::Array) {
        auto It = Ex.Inputs.Arrays.find(Arg.Name);
        if (It == Ex.Inputs.Arrays.end())
          continue;
        Tensor<double> T(std::move(Shape));
        T.flat() = It->second;
        Row.Operands.emplace(Arg.Name, std::move(T));
      } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
        auto It = Ex.Sizes.find(Arg.Name);
        if (It == Ex.Sizes.end())
          continue;
        Row.Operands.emplace(
            Arg.Name, Tensor<double>::scalar(static_cast<double>(It->second)));
      } else {
        auto It = Ex.Inputs.NumScalars.find(Arg.Name);
        if (It == Ex.Inputs.NumScalars.end())
          continue;
        Row.Operands.emplace(Arg.Name, Tensor<double>::scalar(It->second));
      }
    }
    auto Find = [&Row](const std::string &Name) -> const Tensor<double> * {
      auto It = Row.Operands.find(Name);
      return It == Row.Operands.end() ? nullptr : &It->second;
    };
    for (const bench::ArgSpec &Arg : B.Args)
      Row.Ptr.push_back(Find(Arg.Name));
    if (OutArg) {
      Row.OutShape = resolveShape(*OutArg, Ex.Sizes);
      Row.Out = Find(OutArg->Name);
      for (int64_t Extent : Row.OutShape)
        Row.OutPositive = Row.OutPositive && Extent > 0;
    }
  }

  // The memo's bounds. Every extent is some argument's dimension.
  constexpr double Exact = 9007199254740992.0; // 2^53
  auto NoteValue = [&S, Exact](double V) {
    if (!(std::fabs(V) < Exact) || V != std::trunc(V)) {
      S.IntegerValues = false;
      return;
    }
    S.MaxValue = std::max(S.MaxValue, static_cast<uint64_t>(std::fabs(V)));
  };
  for (const State::ExampleArgs &Row : S.Table) {
    for (const auto &[Name, Operand] : Row.Operands)
      for (double V : Operand.flat())
        NoteValue(V);
    for (int64_t Extent : Row.Dims)
      S.MaxExtent = std::max(S.MaxExtent, magnitude(Extent));
  }
  for (int64_t C : Constants)
    NoteValue(static_cast<double>(C));
  return S;
}

bool Validator::memoizable(State &S, const Program &Template) const {
  if (!S.IntegerValues || !S.Form.build(Template) || S.Form.HasDivision)
    return false;
  // Every intermediate value of every instantiation is at most
  // W^Leaves * X^Reductions in magnitude (W >= 2 bounds each leaf, a sum
  // of two values of at least 2 is at most their product, and a reduction
  // adds at most X terms per variable), so double evaluation is exact
  // while that stays below 2^53.
  constexpr uint64_t Limit = (uint64_t(1) << 53) - 1;
  const uint64_t W = std::max({S.MaxValue, S.Form.MaxLiteral, uint64_t(2)});
  const uint64_t X = std::max(S.MaxExtent, uint64_t(1));
  uint64_t Bound = 1;
  auto Times = [&Bound, Limit](uint64_t F) {
    if (Bound > Limit / F)
      return false;
    Bound *= F;
    return true;
  };
  for (size_t I = 0; I < S.Form.Leaves; ++I)
    if (!Times(W))
      return false;
  for (size_t I = 0; I < S.Form.reductions(); ++I)
    if (!Times(X))
      return false;
  S.Key.clear();
  S.Form.print(S.Key);
  return true;
}

namespace {

/// False when some RHS access other than the LHS symbol has a rank no
/// argument has: that symbol has no option, so the template validates
/// nothing. Allocation-free.
bool ranksAvailable(const Expr &E, const std::string &LhsName,
                    uint64_t ArgRanks) {
  switch (E.kind()) {
  case Expr::Kind::Access: {
    const auto &A = exprCast<AccessExpr>(E);
    if (A.name() == LhsName)
      return true;
    return A.order() < 64 && (ArgRanks >> A.order() & 1) != 0;
  }
  case Expr::Kind::Constant:
    return true;
  case Expr::Kind::Binary: {
    const auto &Bin = exprCast<BinaryExpr>(E);
    return ranksAvailable(Bin.lhs(), LhsName, ArgRanks) &&
           ranksAvailable(Bin.rhs(), LhsName, ArgRanks);
  }
  case Expr::Kind::Negate:
    return ranksAvailable(exprCast<NegateExpr>(E).operand(), LhsName,
                          ArgRanks);
  case Expr::Kind::Max: {
    const auto &M = exprCast<MaxExpr>(E);
    return ranksAvailable(M.lhs(), LhsName, ArgRanks) &&
           ranksAvailable(M.rhs(), LhsName, ArgRanks);
  }
  }
  return true;
}

/// Interns \p Name into \p Names by a short linear scan; returns its id.
int intern(std::vector<const std::string *> &Names, const std::string &Name) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (*Names[I] == Name)
      return static_cast<int>(I);
  Names.push_back(&Name);
  return static_cast<int>(Names.size() - 1);
}

} // namespace

bool Validator::rejectsOnRank(const Program &Template) const {
  return Template.Rhs &&
         !ranksAvailable(*Template.Rhs, Template.Lhs.name(), ArgRanks);
}

std::vector<Instantiation>
Validator::validate(const Program &Template, size_t MaxResults) const {
  if (!Template.Rhs || Examples.empty())
    return {};

  const bench::ArgSpec *OutArg = B.outputArg();
  if (!OutArg)
    return {};

  // The LHS symbol is pinned to the output argument; ranks must agree.
  if (static_cast<int>(Template.Lhs.order()) != OutArg->rank())
    return {};
  if (rejectsOnRank(Template))
    return {};

  State &S = state();
  const bool Memo = memoizable(S, Template);
  const uint64_t KeyHash = Memo ? hashKey(S.Key) : 0;
  if (Memo && S.Rejected.contains(S.Key, KeyHash)) {
    ++MemoHits;
    return {};
  }
  std::vector<Instantiation> Valid = evaluate(S, Template, MaxResults);
  if (Memo && Valid.empty())
    S.Rejected.insert(S.Key, KeyHash);
  return Valid;
}

std::vector<Instantiation> Validator::evaluate(State &S,
                                               const Program &Template,
                                               size_t MaxResults) const {
  std::vector<Instantiation> Valid;
  const bench::ArgSpec *OutArg = B.outputArg();
  const size_t NumExamples = Examples.size();
  const size_t NumArgs = B.Args.size();
  const std::string &LhsName = Template.Lhs.name();

  // One walk of the RHS: access leaves with their symbol and variable ids,
  // and the symbolic-constant count (each leaf is substituted
  // independently).
  S.LeafSym.clear();
  S.LeafVars.clear();
  S.LeafVarBegin.clear();
  S.SymNames.clear();
  S.SymOrder.clear();
  S.VarNames.clear();
  S.LhsVars.clear();
  for (const std::string &Var : Template.Lhs.indices())
    S.LhsVars.push_back(intern(S.VarNames, Var));
  size_t ConstLeaves = 0;
  auto Walk = [&](auto &Self, const Expr &E) -> void {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      int Sym = -1;
      if (A.name() != LhsName) {
        size_t Before = S.SymNames.size();
        Sym = intern(S.SymNames, A.name());
        if (S.SymNames.size() != Before)
          S.SymOrder.push_back(static_cast<int>(A.order()));
      }
      S.LeafSym.push_back(Sym);
      S.LeafVarBegin.push_back(S.LeafVars.size());
      for (const std::string &Var : A.indices())
        S.LeafVars.push_back(intern(S.VarNames, Var));
      return;
    }
    case Expr::Kind::Constant:
      if (exprCast<ConstantExpr>(E).isSymbolic())
        ++ConstLeaves;
      return;
    case Expr::Kind::Binary: {
      const auto &Bin = exprCast<BinaryExpr>(E);
      Self(Self, Bin.lhs());
      Self(Self, Bin.rhs());
      return;
    }
    case Expr::Kind::Negate:
      Self(Self, exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      Self(Self, M.lhs());
      Self(Self, M.rhs());
      return;
    }
    }
  };
  Walk(Walk, *Template.Rhs);
  S.LeafVarBegin.push_back(S.LeafVars.size());
  const size_t NumLeaves = S.LeafSym.size();
  const size_t NumSymbols = S.SymNames.size();
  const size_t NumVars = S.VarNames.size();
  auto LeafOrder = [&S](size_t L) {
    return S.LeafVarBegin[L + 1] - S.LeafVarBegin[L];
  };
  auto LeafVar = [&S](size_t L, size_t P) {
    return static_cast<size_t>(S.LeafVars[S.LeafVarBegin[L] + P]);
  };

  // Base extents per example: variables pinned by the output shape, both
  // through the LHS and through RHS occurrences of the LHS symbol (which
  // read the output argument). A conflict here dooms every binding — the
  // interpreter's bind would reject each one on that example.
  S.BaseExtents.assign(NumExamples * NumVars, -1);
  for (size_t E = 0; E < NumExamples; ++E) {
    const std::vector<int64_t> &OutShape = S.Table[E].OutShape;
    int64_t *Base = S.BaseExtents.data() + E * NumVars;
    auto Pin = [&](size_t Var, int64_t Extent) {
      if (Base[Var] >= 0 && Base[Var] != Extent)
        return false;
      Base[Var] = Extent;
      return true;
    };
    for (size_t I = 0; I < OutShape.size(); ++I)
      if (!Pin(static_cast<size_t>(S.LhsVars[I]), OutShape[I]))
        return Valid;
    for (size_t L = 0; L < NumLeaves; ++L) {
      if (S.LeafSym[L] >= 0)
        continue;
      if (LeafOrder(L) != OutShape.size())
        return Valid;
      for (size_t P = 0; P < OutShape.size(); ++P)
        if (!Pin(LeafVar(L, P), OutShape[P]))
          return Valid;
    }
  }

  // Candidate arguments per symbol, filtered by rank (Fig. 8's "discard
  // substitutions that bind tensors to scalars and vice versa") and by
  // shape compatibility: an option whose extents conflict — internally,
  // across the symbol's repeated accesses, or against the output-pinned
  // variables — in any example can never produce a valid instantiation,
  // because binding rejects exactly that conflict. Each kept
  // option records the unpinned (var, extent) pairs it imposes per example.
  S.ChoiceArg.clear();
  S.ChoiceBegin.clear();
  S.Cons.clear();
  S.ConsBegin.clear();
  for (size_t SI = 0; SI < NumSymbols; ++SI) {
    S.ChoiceBegin.push_back(S.ChoiceArg.size());
    for (size_t K = 0; K < NumArgs; ++K) {
      const int Rank = B.Args[K].rank();
      if (Rank != S.SymOrder[SI])
        continue;
      const size_t ConsMark = S.Cons.size();
      const size_t BeginMark = S.ConsBegin.size();
      bool Compatible = true;
      for (size_t E = 0; E < NumExamples && Compatible; ++E) {
        S.ConsBegin.push_back(S.Cons.size());
        S.Local.assign(NumVars, -1);
        const int64_t *Shape = S.Table[E].Dims.data() + S.DimBegin[K];
        const int64_t *Base = S.BaseExtents.data() + E * NumVars;
        for (size_t L = 0; L < NumLeaves && Compatible; ++L) {
          if (S.LeafSym[L] != static_cast<int>(SI))
            continue;
          if (LeafOrder(L) != static_cast<size_t>(Rank)) {
            Compatible = false;
            break;
          }
          for (size_t P = 0; P < static_cast<size_t>(Rank); ++P) {
            size_t Var = LeafVar(L, P);
            if (Base[Var] >= 0) {
              if (Base[Var] != Shape[P]) {
                Compatible = false;
                break;
              }
              continue;
            }
            int64_t &Slot = S.Local[Var];
            if (Slot >= 0) {
              if (Slot != Shape[P]) {
                Compatible = false;
                break;
              }
              continue;
            }
            Slot = Shape[P];
            S.Cons.emplace_back(static_cast<int>(Var), Shape[P]);
          }
        }
      }
      if (!Compatible) {
        S.Cons.resize(ConsMark);
        S.ConsBegin.resize(BeginMark);
        continue;
      }
      S.ChoiceArg.push_back(static_cast<int>(K));
    }
    if (S.ChoiceArg.size() == S.ChoiceBegin.back())
      return Valid;
  }
  S.ChoiceBegin.push_back(S.ChoiceArg.size());
  S.ConsBegin.push_back(S.Cons.size());

  S.Pick.assign(NumSymbols, 0);
  auto OptionOf = [&S](size_t SI) { return S.ChoiceBegin[SI] + S.Pick[SI]; };

  // Cross-symbol consistency of the current binding, which also settles
  // every variable's extent per example: the output-pinned ones, plus the
  // (var, extent) pairs each chosen option imposes.
  S.BindExtents.resize(NumExamples * NumVars);
  auto BindingShapesConsistent = [&]() {
    for (size_t E = 0; E < NumExamples; ++E) {
      int64_t *Extent = S.BindExtents.data() + E * NumVars;
      std::copy_n(S.BaseExtents.data() + E * NumVars, NumVars, Extent);
      for (size_t SI = 0; SI < NumSymbols; ++SI) {
        size_t At = OptionOf(SI) * NumExamples + E;
        for (size_t C = S.ConsBegin[At]; C < S.ConsBegin[At + 1]; ++C) {
          const auto &[Var, Want] = S.Cons[C];
          int64_t &Have = Extent[static_cast<size_t>(Var)];
          if (Have >= 0 && Have != Want)
            return false;
          Have = Want;
        }
      }
    }
    return true;
  };

  // The template is compiled *once*, straight from the caller's program,
  // into the reused scratch, and evaluated directly under each symbol
  // binding: instantiation only renames tensors and fills constant values,
  // neither of which changes the compiled structure, reduction placement,
  // or evaluation order — so verdicts are bit-identical to evaluating the
  // instantiated program. Plain bytecode: no vm::optimize, whose passes
  // cost more than they save on a few small examples.
  if (!vm::compileInto(Template, S.Structure, S.Code))
    return Valid;
  const vm::StmtCode &SC = S.Code.statements()[0];
  // Variable ids and code slots are both interned LHS first, then in RHS
  // leaf order, so BindExtents rows are per-slot extent tables as they are.
  assert(static_cast<size_t>(SC.NumSlots) == NumVars &&
         SC.Accesses.size() == NumLeaves);
#ifndef NDEBUG
  for (size_t L = 0; L < NumLeaves; ++L)
    for (size_t P = 0; P < LeafOrder(L); ++P)
      assert(static_cast<size_t>(SC.Accesses[L].Slots[P]) == LeafVar(L, P));
#endif
  for (size_t E = 0; E < NumExamples; ++E) {
    if (E < S.Interps.size())
      S.Interps[E].reset(S.Code);
    else
      S.Interps.emplace_back(S.Code);
  }

  // Binding tables: one access binding per (leaf, option, example), with
  // the operand checks bind() would repeat per binding run here once. A
  // binding whose operand fails them cannot bind that example.
  S.LeafOptBase.clear();
  size_t NumEntries = 0, NumPairs = 0;
  auto NumOptions = [&S](size_t L) -> size_t {
    int Sym = S.LeafSym[L];
    if (Sym < 0)
      return 1;
    return S.ChoiceBegin[static_cast<size_t>(Sym) + 1] -
           S.ChoiceBegin[static_cast<size_t>(Sym)];
  };
  for (size_t L = 0; L < NumLeaves; ++L) {
    S.LeafOptBase.push_back(NumEntries);
    NumEntries += NumOptions(L);
    NumPairs += NumOptions(L) * NumExamples * LeafOrder(L);
  }
  S.LeafBinds.assign(NumEntries * NumExamples, {});
  S.Spans.resize(NumPairs);
  vm::SlotStride *Pair = S.Spans.data();
  for (size_t L = 0; L < NumLeaves; ++L) {
    const vm::AccessInfo &Access = SC.Accesses[L];
    const int Sym = S.LeafSym[L];
    for (size_t Opt = 0; Opt < NumOptions(L); ++Opt) {
      for (size_t E = 0; E < NumExamples; ++E) {
        const Tensor<double> *Operand =
            Sym < 0 ? S.Table[E].Out
                    : S.Table[E].Ptr[static_cast<size_t>(
                          S.ChoiceArg[S.ChoiceBegin[static_cast<size_t>(Sym)] +
                                      Opt])];
        if (!Operand || Operand->order() != Access.Slots.size())
          continue;
        const std::vector<int64_t> &Shape = Operand->shape();
        if (std::any_of(Shape.begin(), Shape.end(),
                        [](int64_t D) { return D <= 0; }))
          continue;
        vm::AccessBinding<double> &AB =
            S.LeafBinds[(S.LeafOptBase[L] + Opt) * NumExamples + E];
        AB.Data = Operand->flat().data();
        AB.Begin = Pair;
        size_t Stride = 1;
        for (size_t P = Shape.size(); P > 0; --P) {
          Pair[P - 1] = {Access.Slots[P - 1], Stride};
          Stride *= static_cast<size_t>(Shape[P - 1]);
        }
        Pair += Shape.size();
        AB.End = Pair;
      }
    }
  }

  // Constant registers: literals once, symbolic ones per assignment.
  S.ConstRegValues.assign(SC.Consts.size(), 0);
  S.SymConstOrdinal.clear();
  for (size_t I = 0; I < SC.Consts.size(); ++I) {
    if (SC.Consts[I]->isSymbolic())
      S.SymConstOrdinal.push_back(I);
    else
      S.ConstRegValues[I] = static_cast<double>(SC.Consts[I]->value());
  }

  // Odometer over symbol bindings x constant assignments, exactly the naive
  // enumeration order; shape-incompatible bindings are skipped wholesale
  // (their entire constant block would have failed evaluation).
  S.BindRow.resize(NumLeaves);
  S.ConstPick.assign(ConstLeaves, 0);
  S.ConstValues.assign(ConstLeaves, 0);
  // Examples are (re)bound lazily per binding, preserving the fail-fast
  // behavior of the naive loop: a binding rejected on the first example
  // never pays for the others.
  uint64_t BindEpoch = 0;
  S.BoundEpoch.assign(NumExamples, 0);
  S.BindOk.assign(NumExamples, 0);
  auto BindExample = [&](size_t E) {
    if (!S.Table[E].OutPositive)
      return false;
    for (size_t L = 0; L < NumLeaves; ++L) {
      int Sym = S.LeafSym[L];
      size_t Opt = Sym < 0 ? 0 : S.Pick[static_cast<size_t>(Sym)];
      const vm::AccessBinding<double> &AB =
          S.LeafBinds[(S.LeafOptBase[L] + Opt) * NumExamples + E];
      if (!AB.Data)
        return false;
      S.BindRow[L] = AB;
    }
    S.Interps[E].bindPrepared(S.BindRow.data(),
                              S.BindExtents.data() + E * NumVars,
                              S.Table[E].OutShape);
    return true;
  };
  auto EnsureBound = [&](size_t E) -> bool {
    if (S.BoundEpoch[E] == BindEpoch)
      return S.BindOk[E] != 0;
    S.BoundEpoch[E] = BindEpoch;
    S.BindOk[E] = BindExample(E);
    return S.BindOk[E] != 0;
  };

  for (;;) {
    if (BindingShapesConsistent()) {
      ++BindEpoch;
      for (bool More = true; More;) {
        for (size_t I = 0; I < ConstLeaves; ++I) {
          S.ConstValues[I] = Constants[S.ConstPick[I]];
          S.ConstRegValues[S.SymConstOrdinal[I]] =
              static_cast<double>(S.ConstValues[I]);
        }

        ++Tried;
        bool Consistent = true;
        for (size_t E = 0; E < NumExamples; ++E) {
          if (!EnsureBound(E)) {
            Consistent = false;
            break;
          }
          S.Interps[E].setConstants(S.ConstRegValues.data());
          if (S.Interps[E].compare(Examples[E].Expected.flat(), cellsMatch) !=
              taco::EinsumCompare::Match) {
            Consistent = false;
            break;
          }
        }

        if (Consistent) {
          Instantiation Inst;
          Inst.SymbolBinding[LhsName] = OutArg->Name;
          for (size_t SI = 0; SI < NumSymbols; ++SI)
            Inst.SymbolBinding[*S.SymNames[SI]] =
                B.Args[static_cast<size_t>(S.ChoiceArg[OptionOf(SI)])].Name;
          Inst.Concrete = instantiateTemplate(Template, Inst.SymbolBinding,
                                              S.ConstValues);
          Inst.ConstantValues = S.ConstValues;
          Valid.push_back(std::move(Inst));
          if (Valid.size() >= MaxResults)
            return Valid;
        }

        // Advance the constant odometer.
        size_t Axis = S.ConstPick.size();
        bool Wrapped = true;
        while (Axis > 0) {
          --Axis;
          if (++S.ConstPick[Axis] < Constants.size()) {
            Wrapped = false;
            break;
          }
          S.ConstPick[Axis] = 0;
        }
        if (S.ConstPick.empty() || Wrapped)
          More = false;
      }
    }

    // Advance the symbol odometer.
    size_t Axis = S.Pick.size();
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (++S.Pick[Axis] < S.ChoiceBegin[Axis + 1] - S.ChoiceBegin[Axis]) {
        Wrapped = false;
        break;
      }
      S.Pick[Axis] = 0;
    }
    if (S.Pick.empty() || Wrapped)
      return Valid;
  }
}
