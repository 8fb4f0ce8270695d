//===- taco/Einsum.h - Reference einsum evaluator ---------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference evaluator for TACO's extended einsum semantics. Indices absent
/// from the LHS are *reduction* indices; following TACO's semantics, the
/// reduction over an index is placed at the smallest subexpression that
/// contains every use of that index. So in
///
///   a(i) = B(i,j) * x(j) + d(i)
///
/// the sum over `j` wraps only `B(i,j) * x(j)`, and `d(i)` is added once —
/// not once per value of `j`. TACO's extension of the traditional notation
/// admits `-` and `/` under the same placement rule.
///
/// This evaluator replaces the paper's pipeline of TACO codegen + JAX/MLIR
/// lowering: it *is* the semantics both toolchains implement for the dense
/// fragment, so validation and verification are unchanged.
///
/// Evaluation is split into two phases so the validator can amortize the
/// expensive one:
///
///  * EinsumProgram — *structure compilation*, once per program: index
///    variables become integer slots into a flat coordinate array, the
///    expression becomes a vector of nodes with child indices, and
///    reduction placement is computed. None of this depends on the operand
///    tensors, so one compiled program serves every operand binding.
///  * EinsumEvaluator — *operand binding*, once per operand set: extents
///    are checked and bound per slot, and every access is lowered to the
///    operand's flat storage plus pre-resolved per-position strides. The
///    per-cell loop then runs without any map lookups, and rebinding the
///    same evaluator reuses all of its buffers.
///
/// Loop nesting and iteration order are exactly those of the direct
/// recursive evaluator this replaced, so floating-point summation order
/// (and therefore every validator verdict) is bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TACO_EINSUM_H
#define STAGG_TACO_EINSUM_H

#include "taco/Ast.h"
#include "taco/Semantics.h"
#include "taco/Tensor.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>

namespace stagg {
namespace taco {

/// Result of an evaluation attempt: either a tensor or a diagnostic.
template <typename T> struct EinsumResult {
  bool Ok = false;
  Tensor<T> Value;
  std::string Error;

  static EinsumResult success(Tensor<T> V) {
    EinsumResult R;
    R.Ok = true;
    R.Value = std::move(V);
    return R;
  }
  static EinsumResult failure(std::string Message) {
    EinsumResult R;
    R.Error = std::move(Message);
    return R;
  }
};

/// Outcome of einsumCompare: the evaluation matched the expected output
/// cell-for-cell, some cell failed the predicate, or the program could not
/// be evaluated at all (binding/rank/extent error).
enum class EinsumCompare { Match, Mismatch, Error };

namespace detail {

/// Advances a mixed-radix counter; returns false once all combinations have
/// been visited (an empty counter wraps immediately).
inline bool advanceCounter(std::vector<int64_t> &Coord,
                           const std::vector<int64_t> &Extents) {
  for (size_t I = Coord.size(); I > 0; --I) {
    if (++Coord[I - 1] < Extents[I - 1])
      return true;
    Coord[I - 1] = 0;
  }
  return false;
}

} // namespace detail

/// The operand-independent compilation of a program: slots, node tree, and
/// reduction placement. Immutable after construction; any number of
/// evaluators can share one instance.
class EinsumProgram {
public:
  explicit EinsumProgram(const Program &P) : P(P) {
    if (!P.Rhs) {
      StructureError = "program has no RHS";
      return;
    }

    // Slot assignment: LHS variables first, then RHS variables in order of
    // first appearance. Slot ids double as variable ids below.
    for (const std::string &Var : P.Lhs.indices())
      slotOf(Var);
    NumLhsSlots = static_cast<int>(Vars.size());
    collectVars(*P.Rhs);

    for (const std::string &Var : P.Lhs.indices())
      OutSlots.push_back(slotOf(Var));

    // Reduction variables are the slots the LHS does not pin. Nodes list
    // their introduced reductions in variable-name order, the order the
    // direct evaluator nested them in.
    for (int Slot = NumLhsSlots; Slot < static_cast<int>(Vars.size()); ++Slot)
      ReduceOrder.push_back(Slot);
    std::sort(ReduceOrder.begin(), ReduceOrder.end(), [this](int A, int B) {
      return *Vars[static_cast<size_t>(A)] < *Vars[static_cast<size_t>(B)];
    });

    Root = compile(*P.Rhs);

    // The use-count table is only needed during compilation.
    Uses.clear();
    TotalUses.clear();
  }

  bool ok() const { return StructureError.empty(); }
  const std::string &error() const { return StructureError; }
  const Program &program() const { return P; }
  size_t numSlots() const { return Vars.size(); }

  /// One compiled expression node. Children are indices into Nodes, so the
  /// hot evaluation loop touches only flat vectors.
  struct Node {
    Expr::Kind Kind;
    BinOpKind Op = BinOpKind::Add;
    int ChildA = -1;
    int ChildB = -1;
    /// Access: the source node, its index slots, and its ordinal into the
    /// evaluator's per-access binding table.
    const AccessExpr *Access = nullptr;
    std::vector<int> Slots;
    int AccessOrdinal = -1;
    /// Constant: the source node and its ordinal into the evaluator's
    /// value table.
    const ConstantExpr *Constant = nullptr;
    int ConstOrdinal = -1;
    /// Slots of the reduction variables introduced at this node, in the
    /// same order the direct evaluator used (sorted by variable name).
    std::vector<int> ReduceSlots;
  };

  const std::vector<Node> &nodes() const { return Nodes; }
  const std::vector<int> &accessNodes() const { return AccessNodes; }
  const std::vector<int> &constNodes() const { return ConstNodes; }
  const std::vector<int> &outSlots() const { return OutSlots; }
  int root() const { return Root; }

private:
  /// Interns \p Var: a short linear scan, since templates use a handful of
  /// index variables.
  int slotOf(const std::string &Var) {
    for (size_t I = 0; I < Vars.size(); ++I)
      if (*Vars[I] == Var)
        return static_cast<int>(I);
    Vars.push_back(&Var);
    return static_cast<int>(Vars.size() - 1);
  }

  bool isReduction(int Slot) const { return Slot >= NumLhsSlots; }

  /// Interns the RHS variables and counts, per reduction variable, the
  /// accesses that use it (an access repeating a variable counts once).
  void collectVars(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::vector<std::string> &Indices =
          exprCast<AccessExpr>(E).indices();
      for (size_t I = 0; I < Indices.size(); ++I) {
        int Slot = slotOf(Indices[I]);
        if (!isReduction(Slot) || repeatsEarlier(Indices, I))
          continue;
        if (TotalUses.size() <= static_cast<size_t>(Slot))
          TotalUses.resize(static_cast<size_t>(Slot) + 1, 0);
        ++TotalUses[static_cast<size_t>(Slot)];
      }
      return;
    }
    case Expr::Kind::Constant:
      return;
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      collectVars(B.lhs());
      collectVars(B.rhs());
      return;
    }
    case Expr::Kind::Negate:
      collectVars(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      collectVars(M.lhs());
      collectVars(M.rhs());
      return;
    }
    }
  }

  static bool repeatsEarlier(const std::vector<std::string> &Indices,
                             size_t I) {
    for (size_t J = 0; J < I; ++J)
      if (Indices[J] == Indices[I])
        return true;
    return false;
  }

  int uses(int NodeId, int Slot) const {
    return Uses[static_cast<size_t>(NodeId) * Vars.size() +
                static_cast<size_t>(Slot)];
  }

  /// Lowers \p E to a compiled node and returns its index in Nodes. Nodes
  /// are numbered in post-order, so both children's rows of the use-count
  /// table exist when the node's own row is summed from them. A variable is
  /// reduced at the *smallest* node containing all its uses: the node whose
  /// count reaches the total while no child's already does.
  int compile(const Expr &E) {
    Node N;
    N.Kind = E.kind();
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      N.Access = &A;
      for (const std::string &Var : A.indices())
        N.Slots.push_back(slotOf(Var));
      break;
    }
    case Expr::Kind::Constant:
      N.Constant = &exprCast<ConstantExpr>(E);
      break;
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      N.Op = B.op();
      N.ChildA = compile(B.lhs());
      N.ChildB = compile(B.rhs());
      break;
    }
    case Expr::Kind::Negate:
      N.ChildA = compile(exprCast<NegateExpr>(E).operand());
      break;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      N.ChildA = compile(M.lhs());
      N.ChildB = compile(M.rhs());
      break;
    }
    }

    int Id = static_cast<int>(Nodes.size());
    size_t Row = Uses.size();
    Uses.resize(Row + Vars.size(), 0);
    if (N.Kind == Expr::Kind::Access) {
      for (size_t I = 0; I < N.Slots.size(); ++I)
        if (isReduction(N.Slots[I]) && !repeatsEarlier(N.Access->indices(), I))
          ++Uses[Row + static_cast<size_t>(N.Slots[I])];
    } else {
      for (int Child : {N.ChildA, N.ChildB})
        if (Child >= 0)
          for (size_t V = 0; V < Vars.size(); ++V)
            Uses[Row + V] += uses(Child, static_cast<int>(V));
    }
    for (int Slot : ReduceOrder) {
      int Total = TotalUses[static_cast<size_t>(Slot)];
      if (uses(Id, Slot) != Total)
        continue;
      bool InOneChild = false;
      for (int Child : {N.ChildA, N.ChildB})
        InOneChild = InOneChild || (Child >= 0 && uses(Child, Slot) == Total);
      if (!InOneChild)
        N.ReduceSlots.push_back(Slot);
    }

    if (N.Kind == Expr::Kind::Access) {
      N.AccessOrdinal = static_cast<int>(AccessNodes.size());
      AccessNodes.push_back(Id);
    } else if (N.Kind == Expr::Kind::Constant) {
      N.ConstOrdinal = static_cast<int>(ConstNodes.size());
      ConstNodes.push_back(Id);
    }
    Nodes.push_back(std::move(N));
    return Id;
  }

  const Program &P;
  std::string StructureError;
  /// Slot id -> variable name, pointing into P's index lists.
  std::vector<const std::string *> Vars;
  int NumLhsSlots = 0;
  /// Reduction slots sorted by variable name.
  std::vector<int> ReduceOrder;
  /// Accesses using each slot over the whole RHS (zero for LHS slots).
  std::vector<int> TotalUses;
  /// Row per node (post-order id), column per slot: accesses in the node's
  /// subtree that use the slot's reduction variable.
  std::vector<int> Uses;
  std::vector<Node> Nodes;
  std::vector<int> AccessNodes;
  std::vector<int> ConstNodes;
  std::vector<int> OutSlots;
  int Root = -1;
};

/// Binds operands against a shared EinsumProgram and evaluates. Rebinding
/// reuses every internal buffer, so the per-(operand set) cost is a few
/// flat-vector walks.
template <typename T> class EinsumEvaluator {
public:
  /// Resolves an access name to its operand, or nullptr when unbound.
  using Resolver = std::function<const Tensor<T> *(const std::string &)>;

  explicit EinsumEvaluator(const EinsumProgram &S) : S(S) {}

  const std::string &error() const {
    return S.ok() ? Error : S.error();
  }

  /// Binds (or rebinds) the operands and output shape against the compiled
  /// structure: checks ranks and extent consistency, resolves flat strides
  /// and data pointers, and caches constant values. Error semantics and
  /// first-reported diagnostics are identical to the original single-shot
  /// evaluator's.
  bool bind(const Resolver &Resolve, const std::vector<int64_t> &OutputShape) {
    if (!S.ok())
      return false;
    Error.clear();
    Bound = false;
    const Program &P = S.program();
    if (P.Lhs.order() != OutputShape.size()) {
      Error = "output shape rank does not match LHS";
      return false;
    }
    ExtentBySlot.assign(S.numSlots(), -1);
    Coords.assign(S.numSlots(), 0);
    const std::vector<int> &OutSlots = S.outSlots();
    for (size_t I = 0; I < OutputShape.size(); ++I)
      if (!bindExtent(OutSlots[I], P.Lhs.indices()[I], OutputShape[I]))
        return false;

    // Access nodes are listed in leaf (left-to-right) order, matching the
    // recursive binder's conflict-discovery order.
    const std::vector<EinsumProgram::Node> &Nodes = S.nodes();
    AccessBinds.resize(S.accessNodes().size());
    for (int NodeId : S.accessNodes()) {
      const EinsumProgram::Node &N = Nodes[static_cast<size_t>(NodeId)];
      const AccessExpr &A = *N.Access;
      const Tensor<T> *Operand = Resolve(A.name());
      if (!Operand) {
        Error = "unbound tensor '" + A.name() + "'";
        return false;
      }
      if (Operand->order() != A.order()) {
        Error = "tensor '" + A.name() + "' accessed with wrong rank";
        return false;
      }
      const std::vector<int64_t> &Shape = Operand->shape();
      for (size_t I = 0; I < A.order(); ++I)
        if (!bindExtent(N.Slots[I], A.indices()[I], Shape[I]))
          return false;
      // Row-major strides, innermost dimension last; repeated variables in
      // one access contribute once per position, exactly like offsetOf().
      AccessBind &AB = AccessBinds[static_cast<size_t>(N.AccessOrdinal)];
      AB.Data = &Operand->flat();
      AB.Strides.resize(Shape.size());
      size_t Stride = 1;
      for (size_t I = Shape.size(); I > 0; --I) {
        AB.Strides[I - 1] = Stride;
        Stride *= static_cast<size_t>(Shape[I - 1]);
      }
    }

    ConstValues.resize(S.constNodes().size());
    refreshConstants();

    OutShape = OutputShape;
    Bound = true;
    return true;
  }

  /// bind() against a plain name->tensor map.
  bool bindMap(const std::map<std::string, Tensor<T>> &Operands,
               const std::vector<int64_t> &OutputShape) {
    return bind(
        [&Operands](const std::string &Name) -> const Tensor<T> * {
          auto It = Operands.find(Name);
          return It == Operands.end() ? nullptr : &It->second;
        },
        OutputShape);
  }

  /// Re-reads the value of every ConstantExpr. The validator's constant
  /// odometer rewrites the same nodes in place; everything else about the
  /// binding is value-independent.
  void refreshConstants() {
    const std::vector<EinsumProgram::Node> &Nodes = S.nodes();
    for (int NodeId : S.constNodes()) {
      const EinsumProgram::Node &N = Nodes[static_cast<size_t>(NodeId)];
      assert(!N.Constant->isSymbolic() &&
             "symbolic constants must be instantiated");
      ConstValues[static_cast<size_t>(N.ConstOrdinal)] = T(N.Constant->value());
    }
  }

  /// Evaluates every output cell into a fresh tensor. Requires bind().
  EinsumResult<T> evaluate() {
    assert(Bound && "evaluate() requires a successful bind()");
    Tensor<T> Output(OutShape);
    std::vector<T> &Flat = Output.flat();
    // The output odometer enumerates coordinates in row-major order, which
    // is exactly the flat storage order: a running linear index replaces
    // the per-cell offset computation.
    const std::vector<int> &OutSlots = S.outSlots();
    std::vector<int64_t> OutCoord(OutSlots.size(), 0);
    size_t Linear = 0;
    do {
      for (size_t I = 0; I < OutSlots.size(); ++I)
        Coords[OutSlots[I]] = OutCoord[I];
      Flat[Linear++] = evalNode(S.root());
    } while (detail::advanceCounter(OutCoord, OutShape));
    return EinsumResult<T>::success(std::move(Output));
  }

  /// Evaluates cell by cell against \p Want, stopping at the first cell for
  /// which \p CellOk(got, want) is false. Verdicts equal those of
  /// evaluate() followed by a full comparison: binding errors are all
  /// raised in bind(), and cells are compared independently. Requires
  /// bind().
  template <typename CellOkFn>
  EinsumCompare compare(const std::vector<T> &Want, CellOkFn &&CellOk) {
    assert(Bound && "compare() requires a successful bind()");
    size_t Total = 1;
    for (int64_t D : OutShape)
      Total *= static_cast<size_t>(D);
    if (Want.size() != Total)
      return EinsumCompare::Mismatch;

    const std::vector<int> &OutSlots = S.outSlots();
    std::vector<int64_t> OutCoord(OutSlots.size(), 0);
    size_t Linear = 0;
    do {
      for (size_t I = 0; I < OutSlots.size(); ++I)
        Coords[OutSlots[I]] = OutCoord[I];
      if (!CellOk(evalNode(S.root()), Want[Linear++]))
        return EinsumCompare::Mismatch;
    } while (detail::advanceCounter(OutCoord, OutShape));
    return EinsumCompare::Match;
  }

private:
  struct AccessBind {
    const std::vector<T> *Data = nullptr;
    std::vector<size_t> Strides;
  };

  bool bindExtent(int Slot, const std::string &Var, int64_t Extent) {
    int64_t &Cell = ExtentBySlot[static_cast<size_t>(Slot)];
    if (Cell >= 0 && Cell != Extent) {
      Error = "index '" + Var + "' has conflicting extents";
      return false;
    }
    Cell = Extent;
    return true;
  }

  T evalInner(const EinsumProgram::Node &N) {
    switch (N.Kind) {
    case Expr::Kind::Access: {
      const AccessBind &AB = AccessBinds[static_cast<size_t>(N.AccessOrdinal)];
      size_t Offset = 0;
      for (size_t I = 0; I < N.Slots.size(); ++I)
        Offset += static_cast<size_t>(Coords[N.Slots[I]]) * AB.Strides[I];
      return (*AB.Data)[Offset];
    }
    case Expr::Kind::Constant:
      return ConstValues[static_cast<size_t>(N.ConstOrdinal)];
    case Expr::Kind::Binary: {
      T Lhs = evalNode(N.ChildA);
      T Rhs = evalNode(N.ChildB);
      switch (N.Op) {
      case BinOpKind::Add:
        return Lhs + Rhs;
      case BinOpKind::Sub:
        return Lhs - Rhs;
      case BinOpKind::Mul:
        return Lhs * Rhs;
      case BinOpKind::Div:
        return Lhs / Rhs;
      }
      return T{};
    }
    case Expr::Kind::Negate:
      return -evalNode(N.ChildA);
    case Expr::Kind::Max: {
      T Lhs = evalNode(N.ChildA);
      T Rhs = evalNode(N.ChildB);
      return Lhs < Rhs ? Rhs : Lhs;
    }
    }
    return T{};
  }

  T evalNode(int Id) {
    const EinsumProgram::Node &N = S.nodes()[static_cast<size_t>(Id)];
    if (N.ReduceSlots.empty())
      return evalInner(N);

    // Reduction loop over this node's introduced variables, innermost last;
    // identical nesting and order to the direct evaluator, so the
    // floating-point accumulation sequence is unchanged. The coordinate
    // vector is a per-visit local because reduction nodes can nest.
    T Sum{};
    std::vector<int64_t> Coord(N.ReduceSlots.size(), 0);
    for (;;) {
      for (size_t I = 0; I < N.ReduceSlots.size(); ++I)
        Coords[N.ReduceSlots[I]] = Coord[I];
      Sum += evalInner(N);
      bool Advanced = false;
      for (size_t I = Coord.size(); I > 0; --I) {
        if (++Coord[I - 1] <
            ExtentBySlot[static_cast<size_t>(N.ReduceSlots[I - 1])]) {
          Advanced = true;
          break;
        }
        Coord[I - 1] = 0;
      }
      if (!Advanced)
        break;
    }
    return Sum;
  }

  const EinsumProgram &S;
  std::string Error;
  std::vector<AccessBind> AccessBinds;
  std::vector<T> ConstValues;
  std::vector<int64_t> ExtentBySlot;
  std::vector<int64_t> Coords;
  std::vector<int64_t> OutShape;
  bool Bound = false;
};

/// Evaluates \p P over the named \p Operands, producing a tensor of shape
/// \p OutputShape. Every tensor named in the program's RHS must be present
/// in \p Operands with a matching rank; symbolic constants must have been
/// instantiated beforehand.
template <typename T>
EinsumResult<T> evalEinsum(const Program &P,
                           const std::map<std::string, Tensor<T>> &Operands,
                           const std::vector<int64_t> &OutputShape) {
  EinsumProgram Compiled(P);
  EinsumEvaluator<T> Evaluator(Compiled);
  if (!Compiled.ok() || !Evaluator.bindMap(Operands, OutputShape))
    return EinsumResult<T>::failure(Evaluator.error());
  return Evaluator.evaluate();
}

/// Infers the output shape of \p P's LHS from the extents its RHS operands
/// pin, falling back to an operand already bound under the LHS name (a
/// pre-state buffer or an earlier statement's result). Returns false when
/// some LHS index has no derivable extent.
template <typename T>
bool inferLhsShape(const Program &P,
                   const std::map<std::string, Tensor<T>> &Operands,
                   std::vector<int64_t> &Out, std::string &Error) {
  auto It = Operands.find(P.Lhs.name());
  if (It != Operands.end() &&
      It->second.order() == P.Lhs.order()) {
    Out = It->second.shape();
    return true;
  }
  std::map<std::string, int64_t> Extents;
  std::function<bool(const Expr &)> Bind = [&](const Expr &E) -> bool {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const auto &A = exprCast<AccessExpr>(E);
      auto OpIt = Operands.find(A.name());
      if (OpIt == Operands.end() || OpIt->second.order() != A.order())
        return true; // unbound/mismatched operands are bind()'s problem
      for (size_t I = 0; I < A.order(); ++I)
        Extents.emplace(A.indices()[I], OpIt->second.shape()[I]);
      return true;
    }
    case Expr::Kind::Constant:
      return true;
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      return Bind(B.lhs()) && Bind(B.rhs());
    }
    case Expr::Kind::Negate:
      return Bind(exprCast<NegateExpr>(E).operand());
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      return Bind(M.lhs()) && Bind(M.rhs());
    }
    }
    return true;
  };
  if (P.Rhs)
    Bind(*P.Rhs);
  Out.clear();
  for (const std::string &Var : P.Lhs.indices()) {
    auto ExtIt = Extents.find(Var);
    if (ExtIt == Extents.end()) {
      Error = "no extent derivable for output index '" + Var + "'";
      return false;
    }
    Out.push_back(ExtIt->second);
  }
  return true;
}

/// Evaluates an ordered statement list as one program: each statement's
/// result is bound under its LHS name before the next statement runs, so
/// later statements read earlier results (including read-modify-write of a
/// buffer whose pre-state is in \p Operands). The value of \p OutputName
/// after the last statement is the program's result.
template <typename T>
EinsumResult<T>
evalEinsumSequence(const std::vector<Program> &Statements,
                   std::map<std::string, Tensor<T>> Operands,
                   const std::string &OutputName) {
  if (Statements.empty())
    return EinsumResult<T>::failure("empty statement list");
  for (const Program &P : Statements) {
    std::vector<int64_t> Shape;
    std::string Error;
    if (!inferLhsShape(P, Operands, Shape, Error))
      return EinsumResult<T>::failure(Error);
    EinsumResult<T> R = evalEinsum<T>(P, Operands, Shape);
    if (!R.Ok)
      return R;
    Operands.insert_or_assign(P.Lhs.name(), std::move(R.Value));
  }
  auto It = Operands.find(OutputName);
  if (It == Operands.end())
    return EinsumResult<T>::failure("statement list never defines '" +
                                    OutputName + "'");
  return EinsumResult<T>::success(std::move(It->second));
}

/// Compares the evaluation of \p P against the expected flat output \p Want
/// cell by cell (row-major), short-circuiting on the first cell for which
/// \p CellOk(got, want) is false. Equivalent to evalEinsum + a full
/// comparison, but never materializes the output tensor and stops early on
/// a mismatch — the validator's instantiation-check fast path.
template <typename T, typename CellOkFn>
EinsumCompare einsumCompare(const Program &P,
                            const std::map<std::string, Tensor<T>> &Operands,
                            const std::vector<int64_t> &OutputShape,
                            const std::vector<T> &Want, CellOkFn &&CellOk) {
  EinsumProgram Compiled(P);
  EinsumEvaluator<T> Evaluator(Compiled);
  if (!Compiled.ok() || !Evaluator.bindMap(Operands, OutputShape))
    return EinsumCompare::Error;
  return Evaluator.compare(Want, std::forward<CellOkFn>(CellOk));
}

} // namespace taco
} // namespace stagg

#endif // STAGG_TACO_EINSUM_H
