//===- vm/Optimizer.h - Post-compile optimizer for vm::Code -----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vm::optimize rewrites a compiled vm::Code into a faster but
/// result-identical stream through one fixed pipeline of passes, all
/// bit-identity preserving by construction (no reassociation, no fast-math,
/// no change to accumulation order):
///
///  * Classic passes on the flat stream: constant-register dedup
///    (pointer-identical constants always; equal values only when the caller
///    promises the constants are frozen — a caller that rewrites
///    ConstantExpr values in place between runs makes value-based merging
///    unsound), and dead-register elimination with compact renumbering.
///
///  * Fused span superinstructions: an innermost reduction loop whose body
///    is exactly {Load, Load, MulAcc} becomes one Op::DotSpan; {Load,
///    AccAdd} becomes Op::SumSpan; a loop-free elementwise statement with a
///    recognized root becomes a single Op::MapSpan executed one output row
///    at a time. Each superinstruction performs the same loads and the same
///    accumulation sequence as the scalar loop it replaces, so outputs are
///    bit-identical; the win is that the interpreter's dispatch switch runs
///    once per span instead of once per element.
///
/// vm::disassemble renders either stream human-readably, for the
/// `stagg disasm` subcommand and for debugging the passes themselves.
///
/// optimize() is idempotent (span opcodes are opaque to the pattern
/// matchers) and total: a malformed or already-minimal stream comes back
/// unchanged rather than failing.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VM_OPTIMIZER_H
#define STAGG_VM_OPTIMIZER_H

#include "vm/Code.h"

#include <string>

namespace stagg {
namespace vm {

/// Optimizer knobs; the pass pipeline itself is fixed. (The validator, whose
/// constant odometer retunes constants in place, does not optimize at all.)
struct OptimizeOptions {
  /// Promise that the ConstantExpr nodes the code references will not be
  /// rewritten (ConstantExpr::setValue) for the lifetime of the optimized
  /// Code. Enables value-based constant dedup. A caller that retunes
  /// constant leaves between refreshConstants() calls must pass false, since
  /// two constants that are equal now may diverge later. Pointer-identical
  /// constants are always merged.
  bool FreezeConstants = false;
};

/// Returns an optimized copy of \p C. A !ok() input is returned unchanged.
Code optimize(const Code &C, const OptimizeOptions &Options = {});

/// Renders \p C as a human-readable listing: one header line per statement
/// (LHS, accesses, constants) followed by the numbered instruction stream
/// with loop-nesting indentation. Stable enough to grep in tests.
std::string disassemble(const Code &C);

} // namespace vm
} // namespace stagg

#endif // STAGG_VM_OPTIMIZER_H
