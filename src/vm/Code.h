//===- vm/Code.h - Register-based bytecode for lifted programs --*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vm::Code is the compiled form of a lifted TACO program (or ordered
/// statement list): a flat register-based instruction stream in the style of
/// PyTorch JIT's interpreter, produced once by vm/Compiler.h and executed any
/// number of times by vm::Interpreter. The stream encodes exactly the
/// evaluation of the reference tree-walk kept with the tests
/// (tests/EinsumReference.h) — same loop nesting, same accumulation order,
/// same operator semantics — so outputs are bit-identical, but the hot loop
/// is a switch over a dense `Inst` array instead of a recursive walk that
/// allocates a coordinate vector per reduction-node visit.
///
/// Division of labor:
///
///  * Compilation (vm/Compiler.h) happens once per program: reduction
///    placement is borrowed from taco::EinsumProgram (guaranteeing identical
///    slot assignment and LCA reduction placement), then the node tree is
///    lowered to instructions. Loops appear in the stream as
///    LoopBegin/LoopEnd pairs over index slots; `acc += a * b` bodies fuse
///    into a single MulAcc.
///  * Binding (vm::Interpreter::bind) happens once per operand set: loop
///    ranges are resolved from the bound shapes into a per-slot extent
///    table, and every access is resolved to flat storage plus pre-computed
///    (slot, stride) pairs. A caller that has tabulated those already (the
///    validator) hands them over with Interpreter::bindPrepared.
///  * Execution touches only flat arrays: registers, coordinates, extents.
///
/// Lifetime: Code copies every name and slot it needs, but keeps pointers to
/// the source program's ConstantExpr nodes, which bind() reads (the
/// validator writes constant registers with setConstants instead). The
/// source statements' RHS trees must therefore outlive the Code; moving a
/// taco::Program keeps the heap-allocated RHS stable, copying does not.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VM_CODE_H
#define STAGG_VM_CODE_H

#include "taco/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stagg {
namespace vm {

/// One VM opcode. Arithmetic follows the reference evalInner exactly;
/// Max is `a < b ? b : a`, reductions accumulate with `+=`.
enum class Op : uint8_t {
  Load,      ///< R[Dst] = access A's storage at the current coordinates.
  Add,       ///< R[Dst] = R[A] + R[B]
  Sub,       ///< R[Dst] = R[A] - R[B]
  Mul,       ///< R[Dst] = R[A] * R[B]
  Div,       ///< R[Dst] = R[A] / R[B]
  Neg,       ///< R[Dst] = -R[A]
  Max,       ///< R[Dst] = R[A] < R[B] ? R[B] : R[A]
  ResetAcc,  ///< R[Dst] = T{}
  AccAdd,    ///< R[Dst] += R[A]
  MulAcc,    ///< R[Dst] += R[A] * R[B] (product rounded first, like the
             ///< tree-walk's `Sum += Lhs * Rhs`)
  LoopBegin, ///< Coords[Dst] = 0; fall through (body runs at least once)
  LoopEnd,   ///< if (++Coords[Dst] < Extent[Dst]) jump to instruction A

  // Fused span superinstructions, emitted only by vm::optimize. Each
  // replaces a whole LoopBegin/body/LoopEnd triple (or, for MapSpan, the
  // whole stream) with one tight pointer loop over a span slot. The loop
  // body performs exactly the scalar sequence — load, (load,) op,
  // accumulate — in the same order, so results are bit-identical; there is
  // no reassociation and no fast-math, the win is dispatch removal (and
  // compiler auto-vectorization of the stride-1 cases).
  DotSpan, ///< for k in 0..Extent[C): R[Dst] += a_A[k] * a_B[k] — the fused
           ///< form of {Load, Load, MulAcc} over loop slot C, where A/B are
           ///< access ordinals.
  SumSpan, ///< for k in 0..Extent[C): R[Dst] += a_A[k] — the fused form of
           ///< {Load, AccAdd} over loop slot C; A is an access ordinal.
  MapSpan, ///< Whole-statement elementwise map over the innermost free
           ///< dimension (slot C): out[k] = op(a_A[k][, a_B[k]]) with the
           ///< sub-operation in Dst (see MapOp). Executed at the output
           ///< odometer level, one contiguous row at a time.
};

/// MapSpan sub-operations, carried in Inst::Dst.
enum class MapOp : int32_t {
  Copy = 0, ///< out = a
  Neg = 1,  ///< out = -a
  Add = 2,  ///< out = a + b
  Sub = 3,  ///< out = a - b
  Mul = 4,  ///< out = a * b
  Div = 5,  ///< out = a / b
  Max = 6,  ///< out = a < b ? b : a
};

/// One instruction. Operand meaning depends on the opcode: Dst is a register
/// (or an index slot for LoopBegin/LoopEnd, or a MapOp for MapSpan), A/B are
/// source registers, an access ordinal (Load and the spans), or a jump
/// target (LoopEnd). C is the span slot of the fused superinstructions and
/// unused (-1) elsewhere.
struct Inst {
  Op K;
  int32_t Dst = -1;
  int32_t A = -1;
  int32_t B = -1;
  int32_t C = -1;
};

/// One tensor access of a compiled statement, in leaf (left-to-right) order —
/// the order the reference binder discovers extent conflicts in.
struct AccessInfo {
  std::string Name;
  std::vector<std::string> Indices; ///< Index variable names, for diagnostics.
  std::vector<int> Slots;           ///< One slot per index position.
};

/// One compiled statement: `Lhs(indices...) = <instruction stream>`.
struct StmtCode {
  std::string LhsName;
  std::vector<std::string> LhsIndices;
  int NumSlots = 0;
  std::vector<int> OutSlots; ///< One slot per LHS index position.
  std::vector<AccessInfo> Accesses;
  /// Constant leaves in ordinal order: live pointers into the source RHS
  /// tree, read at bind time.
  std::vector<const taco::ConstantExpr *> Consts;
  std::vector<int> ConstRegs; ///< Constant ordinal -> pre-filled register.
  std::vector<Inst> Instrs;
  int Root = -1; ///< Register holding the cell value after the stream runs.
  int NumRegs = 0;
};

/// A compiled program: one StmtCode per statement of the source list (a
/// single taco::Program compiles to one). Immutable between compilations
/// (vm::compileInto recompiles one in place); any number of Interpreters
/// (including concurrently) can share one instance.
class Code {
public:
  bool ok() const { return Error.empty() && !Stmts.empty(); }
  const std::string &error() const { return Error; }
  const std::vector<StmtCode> &statements() const { return Stmts; }
  bool single() const { return Stmts.size() == 1; }

  /// Compiler hooks; not for consumers.
  void setError(std::string E) {
    Error = std::move(E);
    Stmts.clear();
  }
  void clearError() { Error.clear(); }
  std::vector<StmtCode> &mutableStatements() { return Stmts; }

private:
  std::string Error;
  std::vector<StmtCode> Stmts;
};

} // namespace vm
} // namespace stagg

#endif // STAGG_VM_CODE_H
