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
/// The public surface mirrors taco::EinsumEvaluator bit-for-bit — bind order,
/// error strings, accumulation order, and comparison verdicts are identical —
/// so the validator and verifier can switch between the two behind one seam
/// (`--no-vm`). Statement lists run through run(), which replicates
/// taco::evalEinsumSequence (shape inference, per-statement binding, store
/// forwarding of earlier results) without re-compiling anything per call.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VM_INTERPRETER_H
#define STAGG_VM_INTERPRETER_H

#include "vm/Code.h"

#include "taco/Einsum.h"
#include "taco/Tensor.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace stagg {
namespace vm {

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
  // Single-statement surface (EinsumEvaluator-compatible; requires
  // C.single()).
  //===--------------------------------------------------------------------===

  /// Binds (or rebinds) operands and output shape against the first
  /// statement. Check order, error strings, and stride layout are those of
  /// EinsumEvaluator::bind. \p Resolve is any callable with the Resolver
  /// signature (a plain lambda avoids the std::function indirection).
  template <typename ResolveFn>
  bool bind(const ResolveFn &Resolve, const std::vector<int64_t> &OutputShape) {
    if (!C->ok())
      return false;
    return bindByAccess(byName(0, Resolve), OutputShape);
  }

  /// bind() with operands resolved by access ordinal (leaf order) instead
  /// of by name: \p ResolveAt(size_t Ordinal) returns the operand or
  /// nullptr. Same checks, order and diagnostics as bind().
  template <typename ResolveAtFn>
  bool bindByAccess(const ResolveAtFn &ResolveAt,
                    const std::vector<int64_t> &OutputShape) {
    if (!C->ok())
      return false;
    Error.clear();
    return bindStmt(0, ResolveAt, OutputShape);
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

  /// Re-reads every ConstantExpr the code references (the validator's
  /// constant odometer rewrites them in place).
  void refreshConstants() {
    for (size_t K = 0; K < C->statements().size(); ++K)
      refreshStmtConstants(K);
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

  /// Evaluates only the output rows [RowBegin, RowEnd) of the *outermost*
  /// dimension, writing them at their usual row-major positions in \p Flat
  /// (the full-size output buffer). The parallel tiled execute path: workers
  /// with disjoint row ranges write disjoint cells of a shared buffer, each
  /// through its own Interpreter, producing exactly the cells a serial
  /// evaluate() would. Requires bind() and an output rank >= 1.
  void evaluateRows(std::vector<T> &Flat, int64_t RowBegin, int64_t RowEnd) {
    StmtState &St = States[0];
    (void)St;
    assert(St.Bound && "evaluateRows() requires a successful bind()");
    assert(!St.OutShape.empty() && "evaluateRows() requires rank >= 1");
    evalStmtRows(0, Flat, RowBegin, RowEnd);
  }

  /// Evaluates cell by cell against \p Want, stopping at the first cell for
  /// which \p CellOk(got, want) is false. Verdict-identical to
  /// EinsumEvaluator::compare. Requires bind().
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
      return forMapCells(SC, St, 0, St.OutShape[0],
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
  // Statement-list surface (evalEinsumSequence-compatible).
  //===--------------------------------------------------------------------===

  /// Runs every statement in order against \p Resolve, binding each result
  /// under its LHS name for later statements (store forwarding through
  /// per-statement scratch tensors, reused across calls), then copies the
  /// final value of \p OutputName into \p Out. Error strings are those of
  /// evalEinsumSequence. Returns false with error() set on failure.
  template <typename ResolveFn>
  bool run(const ResolveFn &Resolve, const std::string &OutputName,
           taco::Tensor<T> &Out) {
    if (!C->ok())
      return false;
    Error.clear();
    const std::vector<StmtCode> &Stmts = C->statements();

    // Name resolution chains through the scratch results of statements
    // executed so far this run (latest definition wins), then the caller's
    // operands — exactly the evolving Operands map of evalEinsumSequence.
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
      if (!bindStmt(K, byName(K, Chain), St.InferredShape))
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
  struct AccessBind {
    const std::vector<T> *Data = nullptr;
    /// Pre-resolved (coordinate slot, row-major stride) per index position.
    std::vector<std::pair<int, size_t>> SlotStride;
  };

  /// Per-statement binding and execution state.
  struct StmtState {
    std::vector<int64_t> ExtentBySlot;
    std::vector<int64_t> Coords;
    std::vector<AccessBind> Binds;
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

  /// Adapts a by-name resolver to statement \p K's access ordinals.
  template <typename ResolveFn>
  auto byName(size_t K, const ResolveFn &Resolve) const {
    const std::vector<AccessInfo> &Accesses = C->statements()[K].Accesses;
    return [&Accesses, &Resolve](size_t Ord) -> const taco::Tensor<T> * {
      return Resolve(Accesses[Ord].Name);
    };
  }

  /// EinsumEvaluator::bind for statement \p K: same check order, same
  /// diagnostics, strides row-major with the innermost dimension last.
  /// \p ResolveAt maps an access ordinal to its operand.
  template <typename ResolveAtFn>
  bool bindStmt(size_t K, const ResolveAtFn &ResolveAt,
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

    grow(St.Binds, SC.Accesses.size());
    for (size_t Ord = 0; Ord < SC.Accesses.size(); ++Ord) {
      const AccessInfo &A = SC.Accesses[Ord];
      const taco::Tensor<T> *Operand = ResolveAt(Ord);
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
      AccessBind &AB = St.Binds[Ord];
      AB.Data = &Operand->flat();
      grow(AB.SlotStride, Shape.size());
      size_t Stride = 1;
      for (size_t I = Shape.size(); I > 0; --I) {
        AB.SlotStride[I - 1] = {A.Slots[I - 1], Stride};
        Stride *= static_cast<size_t>(Shape[I - 1]);
      }
    }

    grow(St.Regs, static_cast<size_t>(SC.NumRegs));
    refreshStmtConstants(K);

    size_t Cap = St.OutShape.capacity();
    St.OutShape = OutputShape;
    if (St.OutShape.capacity() != Cap)
      ++AllocEvents;
    St.Bound = true;
    return true;
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

  /// taco::inferLhsShape for statement \p K: prefer an operand already bound
  /// under the LHS name with matching order, else derive extents from the
  /// RHS accesses in leaf order (first binding of a variable wins).
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
        const AccessBind &AB = St.Binds[static_cast<size_t>(I->A)];
        size_t Offset = 0;
        for (const std::pair<int, size_t> &P : AB.SlotStride)
          Offset += static_cast<size_t>(Coords[P.first]) * P.second;
        R[I->Dst] = (*AB.Data)[Offset];
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
        const T *Pa =
            St.Binds[static_cast<size_t>(I->A)].Data->data() + BaseA;
        const T *Pb =
            St.Binds[static_cast<size_t>(I->B)].Data->data() + BaseB;
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
        const T *Pa =
            St.Binds[static_cast<size_t>(I->A)].Data->data() + BaseA;
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
  static void spanBase(const AccessBind &AB, const int64_t *Coords, int Span,
                       size_t &Base, size_t &Step) {
    Base = 0;
    Step = 0;
    for (const std::pair<int, size_t> &P : AB.SlotStride) {
      if (P.first == Span)
        Step += P.second;
      else
        Base += static_cast<size_t>(Coords[P.first]) * P.second;
    }
  }

  /// Advances the output odometer over every dimension *except* the
  /// outermost (which evalStmtRows owns). False when the inner dims wrap.
  static bool advanceInnerDims(std::vector<int64_t> &Coord,
                               const std::vector<int64_t> &Shape) {
    for (size_t I = Shape.size(); I > 1; --I) {
      if (++Coord[I - 1] < Shape[I - 1])
        return true;
      Coord[I - 1] = 0;
    }
    return false;
  }

  /// Drives \p Cell(linear, value) over the cells of a MapSpan statement in
  /// row-major order, restricted to outermost rows [RowBegin, RowEnd),
  /// stopping early when \p Cell returns false. The span runs over the
  /// innermost output dimension as a tight pointer loop; for rank 1 the
  /// outermost dimension *is* the span, so the row restriction becomes a
  /// span segment.
  template <typename CellFn>
  bool forMapCells(const StmtCode &SC, StmtState &St, int64_t RowBegin,
                   int64_t RowEnd, const CellFn &Cell) {
    if (RowBegin >= RowEnd)
      return true;
    const Inst &M = SC.Instrs[0];
    const size_t Rank = St.OutShape.size();
    const AccessBind &BA = St.Binds[static_cast<size_t>(M.A)];
    const AccessBind *BB =
        M.B >= 0 ? &St.Binds[static_cast<size_t>(M.B)] : nullptr;
    const MapOp MO = static_cast<MapOp>(M.Dst);
    int64_t *Coords = St.Coords.data();

    const int64_t SpanLen =
        Rank == 1 ? RowEnd - RowBegin : St.OutShape[Rank - 1];
    const int64_t SpanOff = Rank == 1 ? RowBegin : 0;
    const int64_t OuterEnd = Rank == 1 ? RowBegin + 1 : RowEnd;

    assign(St.OutCoord, SC.OutSlots.size(), int64_t(0));
    for (int64_t Row = RowBegin; Row < OuterEnd; ++Row) {
      St.OutCoord[0] = Row;
      for (size_t I = 1; I < Rank; ++I)
        St.OutCoord[I] = 0;
      bool More = true;
      while (More) {
        for (size_t I = 0; I + 1 < Rank; ++I)
          Coords[static_cast<size_t>(SC.OutSlots[I])] = St.OutCoord[I];
        size_t Linear = static_cast<size_t>(St.OutCoord[0]);
        for (size_t I = 1; I < Rank; ++I)
          Linear = Linear * static_cast<size_t>(St.OutShape[I]) +
                   static_cast<size_t>(I + 1 < Rank ? St.OutCoord[I] : 0);

        size_t BaseA, StepA;
        spanBase(BA, Coords, M.C, BaseA, StepA);
        const T *Pa = BA.Data->data() + BaseA +
                      static_cast<size_t>(SpanOff) * StepA;
        const T *Pb = nullptr;
        size_t StepB = 0;
        if (BB) {
          size_t BaseB;
          spanBase(*BB, Coords, M.C, BaseB, StepB);
          Pb = BB->Data->data() + BaseB + static_cast<size_t>(SpanOff) * StepB;
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
        More = advanceInnerDims(St.OutCoord, St.OutShape);
      }
    }
    return true;
  }

  /// The row-major output odometer of EinsumEvaluator::evaluate.
  void evalStmtInto(size_t K, std::vector<T> &Flat) {
    const StmtCode &SC = C->statements()[K];
    StmtState &St = States[K];
    if (St.OutShape.empty()) {
      // Rank-0 output: one cell, no out slots to drive (MapSpan is never
      // emitted for rank 0).
      assign(St.OutCoord, size_t(0), int64_t(0));
      Flat[0] = execCell(SC, St);
      return;
    }
    evalStmtRows(K, Flat, 0, St.OutShape[0]);
  }

  /// Evaluates outermost rows [RowBegin, RowEnd) of statement \p K into
  /// their row-major positions in \p Flat. Cell order within the range and
  /// per-cell arithmetic match the full odometer exactly.
  void evalStmtRows(size_t K, std::vector<T> &Flat, int64_t RowBegin,
                    int64_t RowEnd) {
    const StmtCode &SC = C->statements()[K];
    StmtState &St = States[K];
    if (isMapSpan(SC)) {
      forMapCells(SC, St, RowBegin, RowEnd, [&Flat](size_t L, T V) {
        Flat[L] = V;
        return true;
      });
      return;
    }
    const size_t Rank = St.OutShape.size();
    size_t InnerCells = 1;
    for (size_t I = 1; I < Rank; ++I)
      InnerCells *= static_cast<size_t>(St.OutShape[I]);
    assign(St.OutCoord, SC.OutSlots.size(), int64_t(0));
    for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
      St.OutCoord[0] = Row;
      for (size_t I = 1; I < Rank; ++I)
        St.OutCoord[I] = 0;
      size_t Linear = static_cast<size_t>(Row) * InnerCells;
      do {
        for (size_t I = 0; I < SC.OutSlots.size(); ++I)
          St.Coords[static_cast<size_t>(SC.OutSlots[I])] = St.OutCoord[I];
        Flat[Linear++] = execCell(SC, St);
      } while (advanceInnerDims(St.OutCoord, St.OutShape));
    }
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
