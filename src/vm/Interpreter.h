//===- vm/Interpreter.h - Execute vm::Code ----------------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vm::Interpreter executes a shared, immutable vm::Code against concrete
/// operands. It is reentrant in the sense that any number of Interpreter
/// instances (each with its own InterpreterState) can run the same Code
/// concurrently; a single instance rebinds across operand sets with zero
/// allocation once its buffers have grown to size (tracked by
/// allocEvents(), which the rebind-reuse test pins).
///
/// It is the only evaluator of TACO programs in the pipeline: the validator,
/// the verifier, kernel ingestion and the execute endpoint all run on it.
/// Its results are pinned cell for cell against the reference evaluator
/// kept with the tests (tests/EinsumReference.h), which spells out the
/// einsum semantics as a direct tree walk: same bind order, error strings,
/// accumulation order and comparison verdicts. Statement lists run through
/// run() — shape inference, per-statement binding, store forwarding of
/// earlier results — without re-compiling anything per call.
///
/// Every binding has one representation, AccessBinding: the operand's
/// storage plus a span of (slot, stride) pairs, which Load and the fused
/// span loops read. bind() derives it from the operands with every check
/// the reference binder runs; bindPrepared() takes it ready-made from a
/// caller that has already run those checks once for many bindings (the
/// validator's per-template tables) and checks nothing.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VM_INTERPRETER_H
#define STAGG_VM_INTERPRETER_H

#include "vm/Code.h"

#include "taco/Einsum.h"
#include "taco/Tensor.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace stagg {
namespace vm {

/// One index position of a bound access: the coordinate slot it reads and
/// that position's row-major stride in the operand's storage.
struct SlotStride {
  int Slot = -1;
  size_t Stride = 0;
};

/// A bound access: the operand's flat storage and one SlotStride per index
/// position, in position order ([Begin, End) may point into any storage
/// that outlives the binding).
template <typename T> struct AccessBinding {
  const T *Data = nullptr;
  const SlotStride *Begin = nullptr;
  const SlotStride *End = nullptr;
};

/// An operand bound where it lies: \p Cells points at caller-owned
/// row-major storage of shape \p Shape (empty for a scalar). bind() takes
/// a resolver returning either this or a taco::Tensor; the execute
/// endpoint binds posted input arrays this way instead of copying each
/// one into a tensor.
template <typename T> struct OperandView {
  const T *Cells = nullptr;
  std::vector<int64_t> Shape;

  size_t order() const { return Shape.size(); }
  const std::vector<int64_t> &shape() const { return Shape; }
  const T *data() const { return Cells; }
};

/// Executes one vm::Code. Template parameter T is the cell type (double for
/// validation/execution, Rational for the bounded verifier).
template <typename T> class Interpreter {
public:
  /// Resolves an access name to its operand, or nullptr when unbound.
  using Resolver = std::function<const taco::Tensor<T> *(const std::string &)>;

  explicit Interpreter(const Code &C) { reset(C); }

  /// Re-points this interpreter at \p NewC, keeping every grown buffer: the
  /// validator compiles one Code per template and rebinds the same
  /// per-example interpreters to it. Any previous binding is dropped.
  void reset(const Code &NewC) {
    C = &NewC;
    States.resize(NewC.statements().size());
    Scratch.resize(NewC.statements().size());
    for (StmtState &St : States)
      St.Bound = false;
  }

  const std::string &error() const { return C->ok() ? Error : C->error(); }

  /// Number of buffer growths since construction. Stable across rebinds of
  /// equal-or-smaller shapes: the zero-allocation re-execution contract.
  int64_t allocEvents() const { return AllocEvents; }

  //===--------------------------------------------------------------------===
  // Single-statement surface (requires C.single()).
  //===--------------------------------------------------------------------===

  /// Binds (or rebinds) operands and output shape against the first
  /// statement. Check order, error strings, and stride layout are those of
  /// the reference evaluator's bind. \p Resolve is any callable with the
  /// Resolver signature (a plain lambda avoids the std::function
  /// indirection), or one that returns a `const OperandView<T> *`.
  template <typename ResolveFn>
  bool bind(const ResolveFn &Resolve, const std::vector<int64_t> &OutputShape) {
    if (!C->ok())
      return false;
    Error.clear();
    return bindStmt(0, Resolve, OutputShape);
  }

  /// Binds the first statement from prepared tables, checking nothing:
  /// \p Binds holds one binding per access ordinal and \p SlotExtents one
  /// extent per coordinate slot. Load does not bounds-check, so the caller
  /// guarantees exactly what a successful bind() would derive: each
  /// operand present with the access's rank, each span its row-major
  /// strides over the access's slots (StmtCode::Accesses), every extent
  /// positive and equal to each operand dimension indexed by that slot, and
  /// \p OutputShape the extents of the output slots. Constant registers are
  /// not touched; set them with setConstants().
  void bindPrepared(const AccessBinding<T> *Binds, const int64_t *SlotExtents,
                    const std::vector<int64_t> &OutputShape) {
    const StmtCode &SC = C->statements()[0];
    StmtState &St = States[0];
    grow(St.Binds, SC.Accesses.size());
    std::copy_n(Binds, SC.Accesses.size(), St.Binds.begin());
    const size_t NumSlots = static_cast<size_t>(SC.NumSlots);
    grow(St.ExtentBySlot, NumSlots);
    std::copy_n(SlotExtents, NumSlots, St.ExtentBySlot.begin());
    assign(St.Coords, NumSlots, int64_t(0));
    grow(St.Regs, static_cast<size_t>(SC.NumRegs));
    setOutShape(St, OutputShape);
    St.Bound = true;
  }

  /// Writes the constant registers of the first statement, one value per
  /// constant ordinal (StmtCode::Consts order), instead of reading them
  /// from the source program's ConstantExpr nodes. Requires a binding.
  void setConstants(const T *Values) {
    const StmtCode &SC = C->statements()[0];
    T *Regs = States[0].Regs.data();
    for (size_t I = 0; I < SC.ConstRegs.size(); ++I)
      Regs[SC.ConstRegs[I]] = Values[I];
  }

  /// bind() against a plain name->tensor map.
  bool bindMap(const std::map<std::string, taco::Tensor<T>> &Operands,
               const std::vector<int64_t> &OutputShape) {
    return bind(
        [&Operands](const std::string &Name) -> const taco::Tensor<T> * {
          auto It = Operands.find(Name);
          return It == Operands.end() ? nullptr : &It->second;
        },
        OutputShape);
  }

  /// Evaluates every output cell into a fresh tensor. Requires bind().
  taco::EinsumResult<T> evaluate() {
    StmtState &St = States[0];
    assert(St.Bound && "evaluate() requires a successful bind()");
    taco::Tensor<T> Output(St.OutShape);
    evalStmtInto(0, Output.flat());
    return taco::EinsumResult<T>::success(std::move(Output));
  }

  /// Evaluates into \p Out, reusing its storage — the zero-allocation
  /// execute path. Requires bind().
  void evaluateInto(taco::Tensor<T> &Out) {
    StmtState &St = States[0];
    assert(St.Bound && "evaluateInto() requires a successful bind()");
    reshape(Out, St.OutShape);
    evalStmtInto(0, Out.flat());
  }

  /// Evaluates into \p Flat, resized to the output's cell count: the
  /// execute endpoint's result buffer, filled with no tensor in between.
  /// Requires bind().
  void evaluateInto(std::vector<T> &Flat) {
    StmtState &St = States[0];
    assert(St.Bound && "evaluateInto() requires a successful bind()");
    size_t Total = 1;
    for (int64_t D : St.OutShape)
      Total *= static_cast<size_t>(D);
    Flat.resize(Total);
    evalStmtInto(0, Flat);
  }

  /// Evaluates cell by cell against \p Want, stopping at the first cell for
  /// which \p CellOk(got, want) is false: the verdict of evaluate() followed
  /// by a full comparison. Requires bind().
  template <typename CellOkFn>
  taco::EinsumCompare compare(const std::vector<T> &Want, CellOkFn &&CellOk) {
    StmtState &St = States[0];
    assert(St.Bound && "compare() requires a successful bind()");
    size_t Total = 1;
    for (int64_t D : St.OutShape)
      Total *= static_cast<size_t>(D);
    if (Want.size() != Total)
      return taco::EinsumCompare::Mismatch;

    const StmtCode &SC = C->statements()[0];
    if (isMapSpan(SC)) {
      // Same row-major cell order, same per-cell arithmetic; only the
      // dispatch is amortized, so the first-mismatch verdict is identical.
      return forMapCells(SC, St,
                         [&](size_t L, T Got) { return CellOk(Got, Want[L]); })
                 ? taco::EinsumCompare::Match
                 : taco::EinsumCompare::Mismatch;
    }
    assign(St.OutCoord, SC.OutSlots.size(), int64_t(0));
    size_t Linear = 0;
    do {
      for (size_t I = 0; I < SC.OutSlots.size(); ++I)
        St.Coords[static_cast<size_t>(SC.OutSlots[I])] = St.OutCoord[I];
      if (!CellOk(execCell(SC, St), Want[Linear++]))
        return taco::EinsumCompare::Mismatch;
    } while (taco::detail::advanceCounter(St.OutCoord, St.OutShape));
    return taco::EinsumCompare::Match;
  }

  //===--------------------------------------------------------------------===
  // Statement-list surface.
  //===--------------------------------------------------------------------===

  /// Runs every statement in order against \p Resolve, binding each result
  /// under its LHS name for later statements (store forwarding through
  /// per-statement scratch tensors, reused across calls), then copies the
  /// final value of \p OutputName into \p Out. Returns false with error()
  /// set on failure.
  template <typename ResolveFn>
  bool run(const ResolveFn &Resolve, const std::string &OutputName,
           taco::Tensor<T> &Out) {
    if (!C->ok())
      return false;
    Error.clear();
    const std::vector<StmtCode> &Stmts = C->statements();

    // Name resolution chains through the scratch results of statements
    // executed so far this run (latest definition wins), then the caller's
    // operands: the evolving environment of the statement list.
    size_t Done = 0;
    auto Chain = [&](const std::string &Name) -> const taco::Tensor<T> * {
      for (size_t K = Done; K > 0; --K)
        if (Stmts[K - 1].LhsName == Name)
          return &Scratch[K - 1];
      return Resolve(Name);
    };

    for (size_t K = 0; K < Stmts.size(); ++K) {
      const StmtCode &SC = Stmts[K];
      StmtState &St = States[K];
      if (!inferShape(SC, St, Chain))
        return false;
      if (!bindStmt(K, Chain, St.InferredShape))
        return false;
      reshape(Scratch[K], St.OutShape);
      evalStmtInto(K, Scratch[K].flat());
      Done = K + 1;
    }

    const taco::Tensor<T> *Result = Chain(OutputName);
    if (!Result) {
      Error = "statement list never defines '" + OutputName + "'";
      return false;
    }
    Out = *Result;
    return true;
  }

private:
  /// Per-statement binding and execution state.
  struct StmtState {
    std::vector<int64_t> ExtentBySlot;
    std::vector<int64_t> Coords;
    std::vector<AccessBinding<T>> Binds;
    /// The spans bind() derives; bindPrepared() spans live with its caller.
    std::vector<SlotStride> Spans;
    std::vector<T> Regs;
    std::vector<int64_t> OutShape;
    std::vector<int64_t> OutCoord;
    std::vector<int64_t> InferredShape;
    std::vector<int64_t> InferExtent; ///< Per-slot extents seen by inferShape.
    bool Bound = false;
  };

  /// resize()/assign() with allocation tracking: a capacity change counts
  /// as one alloc event.
  template <typename V> void grow(V &Vec, size_t N) {
    size_t Cap = Vec.capacity();
    Vec.resize(N);
    if (Vec.capacity() != Cap)
      ++AllocEvents;
  }
  template <typename V, typename E> void assign(V &Vec, size_t N, E Value) {
    size_t Cap = Vec.capacity();
    Vec.assign(N, Value);
    if (Vec.capacity() != Cap)
      ++AllocEvents;
  }

  /// Resizes \p Out to \p Shape, reusing its flat storage.
  void reshape(taco::Tensor<T> &Out, const std::vector<int64_t> &Shape) {
    if (Out.shape() == Shape)
      return;
    size_t Cap = Out.flat().capacity();
    Out = taco::Tensor<T>(Shape);
    if (Out.flat().capacity() > Cap)
      ++AllocEvents;
  }

  bool bindExtent(StmtState &St, int Slot, const std::string &Var,
                  int64_t Extent) {
    // LoopBegin/LoopEnd is a do-while — the reduction body runs at least
    // once — and Op::Load does not bounds-check, so a zero extent would
    // read out of bounds. Every current caller guarantees extents >= 1
    // (the protocol rejects non-positive sizes, Tensor asserts positive
    // dims), but the assert is debug-only; fail the bind so release builds
    // are safe against a future caller too.
    if (Extent <= 0) {
      Error = "index '" + Var + "' has non-positive extent";
      return false;
    }
    int64_t &Cell = St.ExtentBySlot[static_cast<size_t>(Slot)];
    if (Cell >= 0 && Cell != Extent) {
      Error = "index '" + Var + "' has conflicting extents";
      return false;
    }
    Cell = Extent;
    return true;
  }

  /// Binds statement \p K: the reference binder's check order and
  /// diagnostics, strides row-major with the innermost dimension last.
  /// \p Resolve maps an access name to its operand. The spans land in
  /// St.Spans in the layout bindPrepared() takes from its caller.
  template <typename ResolveFn>
  bool bindStmt(size_t K, const ResolveFn &Resolve,
                const std::vector<int64_t> &OutputShape) {
    const StmtCode &SC = C->statements()[K];
    StmtState &St = States[K];
    St.Bound = false;
    if (SC.LhsIndices.size() != OutputShape.size()) {
      Error = "output shape rank does not match LHS";
      return false;
    }
    assign(St.ExtentBySlot, static_cast<size_t>(SC.NumSlots), int64_t(-1));
    assign(St.Coords, static_cast<size_t>(SC.NumSlots), int64_t(0));
    for (size_t I = 0; I < OutputShape.size(); ++I)
      if (!bindExtent(St, SC.OutSlots[I], SC.LhsIndices[I], OutputShape[I]))
        return false;

    // Every span is laid out before any binding points into the pool.
    size_t NumPairs = 0;
    for (const AccessInfo &A : SC.Accesses)
      NumPairs += A.Slots.size();
    grow(St.Spans, NumPairs);
    grow(St.Binds, SC.Accesses.size());
    SlotStride *Pair = St.Spans.data();
    for (size_t Ord = 0; Ord < SC.Accesses.size(); ++Ord) {
      const AccessInfo &A = SC.Accesses[Ord];
      const auto *Operand = Resolve(A.Name);
      if (!Operand) {
        Error = "unbound tensor '" + A.Name + "'";
        return false;
      }
      if (Operand->order() != A.Indices.size()) {
        Error = "tensor '" + A.Name + "' accessed with wrong rank";
        return false;
      }
      const std::vector<int64_t> &Shape = Operand->shape();
      for (size_t I = 0; I < A.Indices.size(); ++I)
        if (!bindExtent(St, A.Slots[I], A.Indices[I], Shape[I]))
          return false;
      AccessBinding<T> &AB = St.Binds[Ord];
      AB.Data = Operand->data();
      AB.Begin = Pair;
      size_t Stride = 1;
      for (size_t I = Shape.size(); I > 0; --I) {
        Pair[I - 1] = {A.Slots[I - 1], Stride};
        Stride *= static_cast<size_t>(Shape[I - 1]);
      }
      Pair += Shape.size();
      AB.End = Pair;
    }

    grow(St.Regs, static_cast<size_t>(SC.NumRegs));
    refreshStmtConstants(K);
    setOutShape(St, OutputShape);
    St.Bound = true;
    return true;
  }

  void setOutShape(StmtState &St, const std::vector<int64_t> &OutputShape) {
    size_t Cap = St.OutShape.capacity();
    St.OutShape = OutputShape;
    if (St.OutShape.capacity() != Cap)
      ++AllocEvents;
  }

  void refreshStmtConstants(size_t K) {
    const StmtCode &SC = C->statements()[K];
    StmtState &St = States[K];
    if (St.Regs.size() < static_cast<size_t>(SC.NumRegs))
      grow(St.Regs, static_cast<size_t>(SC.NumRegs));
    for (size_t I = 0; I < SC.Consts.size(); ++I) {
      assert(!SC.Consts[I]->isSymbolic() &&
             "symbolic constants must be instantiated");
      St.Regs[static_cast<size_t>(SC.ConstRegs[I])] =
          T(SC.Consts[I]->value());
    }
  }

  /// The reference inferLhsShape for statement \p K: prefer an operand
  /// already bound under the LHS name with matching order, else derive
  /// extents from the RHS accesses in leaf order (first binding of a
  /// variable wins).
  template <typename ResolveFn>
  bool inferShape(const StmtCode &SC, StmtState &St,
                  const ResolveFn &Resolve) {
    const taco::Tensor<T> *Existing = Resolve(SC.LhsName);
    if (Existing && Existing->order() == SC.LhsIndices.size()) {
      size_t Cap = St.InferredShape.capacity();
      St.InferredShape = Existing->shape();
      if (St.InferredShape.capacity() != Cap)
        ++AllocEvents;
      return true;
    }
    assign(St.InferExtent, static_cast<size_t>(SC.NumSlots), int64_t(-1));
    for (const AccessInfo &A : SC.Accesses) {
      const taco::Tensor<T> *Operand = Resolve(A.Name);
      if (!Operand || Operand->order() != A.Indices.size())
        continue; // unbound/mismatched operands are bind()'s problem
      for (size_t I = 0; I < A.Slots.size(); ++I) {
        int64_t &Cell = St.InferExtent[static_cast<size_t>(A.Slots[I])];
        if (Cell < 0)
          Cell = Operand->shape()[I];
      }
    }
    assign(St.InferredShape, size_t(0), int64_t(0));
    for (size_t I = 0; I < SC.OutSlots.size(); ++I) {
      int64_t Extent = St.InferExtent[static_cast<size_t>(SC.OutSlots[I])];
      if (Extent < 0) {
        Error = "no extent derivable for output index '" + SC.LhsIndices[I] +
                "'";
        return false;
      }
      size_t Cap = St.InferredShape.capacity();
      St.InferredShape.push_back(Extent);
      if (St.InferredShape.capacity() != Cap)
        ++AllocEvents;
    }
    return true;
  }

  /// Runs the instruction stream once for the current coordinates; the cell
  /// value lands in the root register.
  T execCell(const StmtCode &SC, StmtState &St) {
    const Inst *Base = SC.Instrs.data();
    const Inst *I = Base;
    const Inst *End = Base + SC.Instrs.size();
    T *R = St.Regs.data();
    int64_t *Coords = St.Coords.data();
    const int64_t *Ext = St.ExtentBySlot.data();
    while (I != End) {
      switch (I->K) {
      case Op::Load: {
        const AccessBinding<T> &AB = St.Binds[static_cast<size_t>(I->A)];
        size_t Offset = 0;
        for (const SlotStride *P = AB.Begin; P != AB.End; ++P)
          Offset += static_cast<size_t>(Coords[P->Slot]) * P->Stride;
        R[I->Dst] = AB.Data[Offset];
        break;
      }
      case Op::Add:
        R[I->Dst] = R[I->A] + R[I->B];
        break;
      case Op::Sub:
        R[I->Dst] = R[I->A] - R[I->B];
        break;
      case Op::Mul:
        R[I->Dst] = R[I->A] * R[I->B];
        break;
      case Op::Div:
        R[I->Dst] = R[I->A] / R[I->B];
        break;
      case Op::Neg:
        R[I->Dst] = -R[I->A];
        break;
      case Op::Max:
        R[I->Dst] = R[I->A] < R[I->B] ? R[I->B] : R[I->A];
        break;
      case Op::ResetAcc:
        R[I->Dst] = T{};
        break;
      case Op::AccAdd:
        R[I->Dst] += R[I->A];
        break;
      case Op::MulAcc: {
        T Product = R[I->A] * R[I->B];
        R[I->Dst] += Product;
        break;
      }
      case Op::LoopBegin:
        Coords[I->Dst] = 0;
        break;
      case Op::LoopEnd:
        if (++Coords[I->Dst] < Ext[I->Dst]) {
          I = Base + I->A;
          continue;
        }
        break;
      case Op::DotSpan: {
        // Fused {Load, Load, MulAcc} loop over slot C: the same loads and
        // the same round-then-accumulate sequence as the scalar loop, with
        // the dispatch switch run once instead of 3*N times.
        size_t BaseA, StepA, BaseB, StepB;
        spanBase(St.Binds[static_cast<size_t>(I->A)], Coords, I->C, BaseA,
                 StepA);
        spanBase(St.Binds[static_cast<size_t>(I->B)], Coords, I->C, BaseB,
                 StepB);
        const T *Pa = St.Binds[static_cast<size_t>(I->A)].Data + BaseA;
        const T *Pb = St.Binds[static_cast<size_t>(I->B)].Data + BaseB;
        const int64_t N = Ext[I->C];
        T Acc = R[I->Dst];
        for (int64_t K = 0; K < N; ++K) {
          T Product = Pa[static_cast<size_t>(K) * StepA] *
                      Pb[static_cast<size_t>(K) * StepB];
          Acc += Product;
        }
        R[I->Dst] = Acc;
        Coords[I->C] = N; // where the scalar LoopEnd leaves the counter
        break;
      }
      case Op::SumSpan: {
        size_t BaseA, StepA;
        spanBase(St.Binds[static_cast<size_t>(I->A)], Coords, I->C, BaseA,
                 StepA);
        const T *Pa = St.Binds[static_cast<size_t>(I->A)].Data + BaseA;
        const int64_t N = Ext[I->C];
        T Acc = R[I->Dst];
        for (int64_t K = 0; K < N; ++K)
          Acc += Pa[static_cast<size_t>(K) * StepA];
        R[I->Dst] = Acc;
        Coords[I->C] = N;
        break;
      }
      case Op::MapSpan:
        assert(false && "MapSpan executes at the output odometer level");
        break;
      }
      ++I;
    }
    return R[SC.Root];
  }

  static bool isMapSpan(const StmtCode &SC) {
    return SC.Instrs.size() == 1 && SC.Instrs[0].K == Op::MapSpan;
  }

  /// Splits an access's flat offset at the current coordinates into a base
  /// (every slot except \p Span) and the stride of \p Span — the pointer
  /// arithmetic behind the fused span loops. An access that does not index
  /// \p Span gets step 0 (its value is constant across the span); a
  /// diagonal access indexing it twice gets the summed stride.
  static void spanBase(const AccessBinding<T> &AB, const int64_t *Coords,
                       int Span, size_t &Base, size_t &Step) {
    Base = 0;
    Step = 0;
    for (const SlotStride *P = AB.Begin; P != AB.End; ++P) {
      if (P->Slot == Span)
        Step += P->Stride;
      else
        Base += static_cast<size_t>(Coords[P->Slot]) * P->Stride;
    }
  }

  /// Advances the output odometer over every dimension *except* the
  /// innermost (which a MapSpan row covers). False when the outer dims wrap.
  static bool advanceRowDims(std::vector<int64_t> &Coord,
                             const std::vector<int64_t> &Shape) {
    for (size_t I = Shape.size() - 1; I > 0; --I) {
      if (++Coord[I - 1] < Shape[I - 1])
        return true;
      Coord[I - 1] = 0;
    }
    return false;
  }

  /// Drives \p Cell(linear, value) over the cells of a MapSpan statement in
  /// row-major order, stopping early when \p Cell returns false. The span
  /// runs over the innermost output dimension as a tight pointer loop.
  template <typename CellFn>
  bool forMapCells(const StmtCode &SC, StmtState &St, const CellFn &Cell) {
    const Inst &M = SC.Instrs[0];
    const size_t Rank = St.OutShape.size();
    const AccessBinding<T> &BA = St.Binds[static_cast<size_t>(M.A)];
    const AccessBinding<T> *BB =
        M.B >= 0 ? &St.Binds[static_cast<size_t>(M.B)] : nullptr;
    const MapOp MO = static_cast<MapOp>(M.Dst);
    int64_t *Coords = St.Coords.data();

    const int64_t SpanLen = St.OutShape[Rank - 1];

    assign(St.OutCoord, SC.OutSlots.size(), int64_t(0));
    size_t Linear = 0;
    do {
      for (size_t I = 0; I + 1 < Rank; ++I)
        Coords[static_cast<size_t>(SC.OutSlots[I])] = St.OutCoord[I];

      size_t BaseA, StepA;
      spanBase(BA, Coords, M.C, BaseA, StepA);
      const T *Pa = BA.Data + BaseA;
      const T *Pb = nullptr;
      size_t StepB = 0;
      if (BB) {
        size_t BaseB;
        spanBase(*BB, Coords, M.C, BaseB, StepB);
        Pb = BB->Data + BaseB;
      }
      // One switch per row, then a tight loop per sub-operation; each
      // cell performs exactly the scalar stream's load(s) + op.
      switch (MO) {
      case MapOp::Copy:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    Pa[static_cast<size_t>(K) * StepA]))
            return false;
        break;
      case MapOp::Neg:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    -Pa[static_cast<size_t>(K) * StepA]))
            return false;
        break;
      case MapOp::Add:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    Pa[static_cast<size_t>(K) * StepA] +
                        Pb[static_cast<size_t>(K) * StepB]))
            return false;
        break;
      case MapOp::Sub:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    Pa[static_cast<size_t>(K) * StepA] -
                        Pb[static_cast<size_t>(K) * StepB]))
            return false;
        break;
      case MapOp::Mul:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    Pa[static_cast<size_t>(K) * StepA] *
                        Pb[static_cast<size_t>(K) * StepB]))
            return false;
        break;
      case MapOp::Div:
        for (int64_t K = 0; K < SpanLen; ++K)
          if (!Cell(Linear + static_cast<size_t>(K),
                    Pa[static_cast<size_t>(K) * StepA] /
                        Pb[static_cast<size_t>(K) * StepB]))
            return false;
        break;
      case MapOp::Max: {
        for (int64_t K = 0; K < SpanLen; ++K) {
          const T &Va = Pa[static_cast<size_t>(K) * StepA];
          const T &Vb = Pb[static_cast<size_t>(K) * StepB];
          if (!Cell(Linear + static_cast<size_t>(K), Va < Vb ? Vb : Va))
            return false;
        }
        break;
      }
      }
      Linear += static_cast<size_t>(SpanLen);
    } while (advanceRowDims(St.OutCoord, St.OutShape));
    return true;
  }

  /// The row-major output odometer of the reference evaluate().
  void evalStmtInto(size_t K, std::vector<T> &Flat) {
    const StmtCode &SC = C->statements()[K];
    StmtState &St = States[K];
    if (isMapSpan(SC)) {
      forMapCells(SC, St, [&Flat](size_t L, T V) {
        Flat[L] = V;
        return true;
      });
      return;
    }
    assign(St.OutCoord, SC.OutSlots.size(), int64_t(0));
    size_t Linear = 0;
    do {
      for (size_t I = 0; I < SC.OutSlots.size(); ++I)
        St.Coords[static_cast<size_t>(SC.OutSlots[I])] = St.OutCoord[I];
      Flat[Linear++] = execCell(SC, St);
    } while (taco::detail::advanceCounter(St.OutCoord, St.OutShape));
  }

  const Code *C = nullptr;
  std::string Error;
  std::vector<StmtState> States;
  std::vector<taco::Tensor<T>> Scratch;
  int64_t AllocEvents = 0;
};

} // namespace vm
} // namespace stagg

#endif // STAGG_VM_INTERPRETER_H
