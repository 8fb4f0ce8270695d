//===- validate/Validator.cpp - Template validation (§6) ------------------===//

#include "validate/Validator.h"

#include "taco/Einsum.h"
#include "taco/Semantics.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

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
                     std::vector<int64_t> Constants, bool UseVm,
                     bool /*UseVmOpt*/)
    : B(B), Examples(std::move(Examples)), Constants(std::move(Constants)),
      UseVm(UseVm), ArgRanks(bindableRanks(B)) {
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

    std::vector<int64_t> OutShape = resolveShape(*OutArg, Ex.Sizes);
    EinsumResult<double> R = evalEinsum<double>(Concrete, Operands, OutShape);
    if (!R.Ok)
      return false;
    const std::vector<double> &Got = R.Value.flat();
    const std::vector<double> &Want = Ex.Expected.flat();
    if (Got.size() != Want.size())
      return false;
    for (size_t I = 0; I < Got.size(); ++I)
      if (!cellsMatch(Got[I], Want[I]))
        return false;
  }
  return true;
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

  //===-- Tree-walk evaluation (--no-vm) -----------------------------------===
  /// The template with its symbolic constants made mutable.
  Program Bound;
  std::vector<ConstantExpr *> ConstNodes;
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
  return S;
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

/// Rewrites \p E with every symbolic constant replaced by a mutable literal
/// node (appended to \p ConstNodes in leaf order), so the constant odometer
/// can sweep assignments in place instead of re-cloning the template.
ExprPtr withMutableConstants(const Expr &E,
                             std::vector<ConstantExpr *> &ConstNodes) {
  switch (E.kind()) {
  case Expr::Kind::Access:
    return E.clone();
  case Expr::Kind::Constant: {
    const auto &C = exprCast<ConstantExpr>(E);
    if (!C.isSymbolic())
      return C.clone();
    auto Node = std::make_unique<ConstantExpr>(0);
    ConstNodes.push_back(Node.get());
    return Node;
  }
  case Expr::Kind::Binary: {
    const auto &Bin = exprCast<BinaryExpr>(E);
    ExprPtr Lhs = withMutableConstants(Bin.lhs(), ConstNodes);
    ExprPtr Rhs = withMutableConstants(Bin.rhs(), ConstNodes);
    return std::make_unique<BinaryExpr>(Bin.op(), std::move(Lhs),
                                        std::move(Rhs));
  }
  case Expr::Kind::Negate:
    return std::make_unique<NegateExpr>(
        withMutableConstants(exprCast<NegateExpr>(E).operand(), ConstNodes));
  case Expr::Kind::Max: {
    const auto &M = exprCast<MaxExpr>(E);
    ExprPtr Lhs = withMutableConstants(M.lhs(), ConstNodes);
    ExprPtr Rhs = withMutableConstants(M.rhs(), ConstNodes);
    return std::make_unique<MaxExpr>(std::move(Lhs), std::move(Rhs));
  }
  }
  return nullptr;
}

} // namespace

bool Validator::rejectsOnRank(const Program &Template) const {
  return Template.Rhs &&
         !ranksAvailable(*Template.Rhs, Template.Lhs.name(), ArgRanks);
}

std::vector<Instantiation>
Validator::validate(const Program &Template, size_t MaxResults) const {
  std::vector<Instantiation> Valid;
  if (!Template.Rhs || Examples.empty())
    return Valid;

  const bench::ArgSpec *OutArg = B.outputArg();
  if (!OutArg)
    return Valid;

  // The LHS symbol is pinned to the output argument; ranks must agree.
  if (static_cast<int>(Template.Lhs.order()) != OutArg->rank())
    return Valid;
  if (rejectsOnRank(Template))
    return Valid;

  State &S = state();
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
  // einsum evaluator would reject each one on that example.
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
  // because the einsum evaluator rejects exactly that conflict. Each kept
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

  // Odometer over symbol bindings x constant assignments, exactly the naive
  // enumeration order; shape-incompatible bindings are skipped wholesale
  // (their entire constant block would have failed evaluation). The
  // evaluators plug in three steps: publishing the constant values,
  // binding an example, and comparing it against the expected output.
  S.ConstPick.assign(ConstLeaves, 0);
  S.ConstValues.assign(ConstLeaves, 0);
  auto RunEnum = [&](const auto &ApplyConstants, const auto &BindExample,
                     const auto &Matches) {
    // Examples are (re)bound lazily per binding, preserving the fail-fast
    // behavior of the naive loop: a binding rejected on the first example
    // never pays for the others.
    uint64_t BindEpoch = 0;
    S.BoundEpoch.assign(NumExamples, 0);
    S.BindOk.assign(NumExamples, 0);
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
          for (size_t I = 0; I < ConstLeaves; ++I)
            S.ConstValues[I] = Constants[S.ConstPick[I]];
          ApplyConstants();

          ++Tried;
          bool Consistent = true;
          for (size_t E = 0; E < NumExamples; ++E) {
            if (!EnsureBound(E) || !Matches(E)) {
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
              return;
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
        return;
    }
  };
  auto Matches = [&](auto &Evaluator, size_t E) {
    return Evaluator.compare(Examples[E].Expected.flat(), cellsMatch) ==
           taco::EinsumCompare::Match;
  };

  if (!UseVm) {
    // The tree-walk evaluates a clone of the template whose symbolic
    // constants are mutable literal nodes, rewritten in place per
    // assignment.
    S.ConstNodes.clear();
    S.Bound = Program(AccessExpr(Template.Lhs.name(), Template.Lhs.indices()),
                      withMutableConstants(*Template.Rhs, S.ConstNodes));
    taco::EinsumProgram Compiled(S.Bound);
    if (!Compiled.ok())
      return Valid;
    std::vector<taco::EinsumEvaluator<double>> Evaluators(
        NumExamples, taco::EinsumEvaluator<double>(Compiled));
    RunEnum(
        [&] {
          for (size_t I = 0; I < ConstLeaves; ++I)
            S.ConstNodes[I]->setValue(S.ConstValues[I]);
        },
        [&](size_t E) {
          return Evaluators[E].bind(
              [&](const std::string &Name) -> const Tensor<double> * {
                if (Name == LhsName)
                  return S.Table[E].Out;
                for (size_t SI = 0; SI < NumSymbols; ++SI)
                  if (*S.SymNames[SI] == Name)
                    return S.Table[E].Ptr[static_cast<size_t>(
                        S.ChoiceArg[OptionOf(SI)])];
                return nullptr;
              },
              S.Table[E].OutShape);
        },
        [&](size_t E) {
          Evaluators[E].refreshConstants();
          return Matches(Evaluators[E], E);
        });
    return Valid;
  }

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

  S.BindRow.resize(NumLeaves);
  RunEnum(
      [&] {
        for (size_t I = 0; I < ConstLeaves; ++I)
          S.ConstRegValues[S.SymConstOrdinal[I]] =
              static_cast<double>(S.ConstValues[I]);
      },
      [&](size_t E) {
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
      },
      [&](size_t E) {
        S.Interps[E].setConstants(S.ConstRegValues.data());
        return Matches(S.Interps[E], E);
      });
  return Valid;
}
