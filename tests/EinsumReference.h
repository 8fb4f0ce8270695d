//===- tests/EinsumReference.h - Reference einsum evaluator -----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference spec of TACO's extended einsum semantics, as a direct tree
/// walk over a compiled taco::EinsumProgram (see taco/Einsum.h for the
/// reduction-placement rule). The pipeline itself evaluates everything on
/// vm::Interpreter; the tests pin the VM against this evaluator cell for
/// cell, error string for error string.
///
///  * EinsumEvaluator — operand binding, once per operand set: extents are
///    checked and bound per slot, and every access is lowered to the
///    operand's flat storage plus pre-resolved per-position strides.
///  * evalEinsum / einsumCompare — one program over named operands.
///  * evalEinsumSequence — an ordered statement list as one program.
///
/// Loop nesting and iteration order define the floating-point summation
/// order the VM reproduces bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TESTS_EINSUMREFERENCE_H
#define STAGG_TESTS_EINSUMREFERENCE_H

#include "taco/Einsum.h"

#include <cassert>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace stagg {
namespace taco {

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
    EinsumProgram::NodeView Nodes = S.nodes();
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
    EinsumProgram::NodeView Nodes = S.nodes();
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

#endif // STAGG_TESTS_EINSUMREFERENCE_H
