//===- vm/Compiler.h - Lower TACO programs to vm::Code ----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler lowers a taco::Program (or an ordered statement list) to a
/// vm::Code instruction stream. Slot assignment and reduction placement are
/// delegated to taco::EinsumProgram — the structure compiler the VM shares
/// with the reference evaluator kept with the tests — so the lowering is a
/// pure linearization: every expression node becomes a register, reduction
/// nodes become ResetAcc + LoopBegin/LoopEnd nests, and `acc += a * b`
/// bodies fuse into MulAcc.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VM_COMPILER_H
#define STAGG_VM_COMPILER_H

#include "vm/Code.h"

#include "taco/Ast.h"

#include <vector>

namespace stagg {
namespace taco {
class EinsumProgram;
} // namespace taco

namespace vm {

/// Compiles \p P as the only statement of \p Out, re-targeting \p Structure
/// at it (taco::EinsumProgram::compile). Both keep their buffers, so
/// compiling program after program into the same pair — the validator's
/// per-template path — allocates only when a program outgrows every earlier
/// one. On structural failure (no RHS) returns false and \p Out is !ok()
/// with the diagnostic. \p Out keeps pointers into \p P (see Code.h).
bool compileInto(const taco::Program &P, taco::EinsumProgram &Structure,
                 Code &Out);

/// Compiles a single statement into a fresh Code; compileInto with
/// throwaway scratch.
Code compileProgram(const taco::Program &P);

/// Compiles an ordered statement list; statements execute in order with
/// each result bound under its LHS name for the statements after it.
Code compileStatements(const std::vector<taco::Program> &Statements);

} // namespace vm
} // namespace stagg

#endif // STAGG_VM_COMPILER_H
