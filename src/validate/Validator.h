//===- validate/Validator.h - Template validation (§6) ----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Template validation per paper §6. A complete template contains symbolic
/// tensors (`b`, `c`, ...) and symbolic constants; the validator enumerates
/// substitutions binding the LHS symbol to the kernel's output argument, the
/// RHS symbols to *any* argument of compatible rank (including the output
/// and repeated bindings, exactly as in Fig. 8), and constant symbols to the
/// integer literals collected from the source. The template is compiled once
/// to VM bytecode and each instantiation is evaluated by rebinding it against
/// the I/O examples; all consistent instantiations are returned in
/// enumeration order, so the verifier can reject one and fall back to the
/// next.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VALIDATE_VALIDATOR_H
#define STAGG_VALIDATE_VALIDATOR_H

#include "benchsuite/Benchmark.h"
#include "taco/Ast.h"
#include "validate/IoExamples.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stagg {
namespace validate {

/// One I/O-consistent instantiation of a template.
struct Instantiation {
  /// The concrete program: tensor names are argument names, constants are
  /// literal values.
  taco::Program Concrete;

  /// Template tensor symbol -> argument name.
  std::map<std::string, std::string> SymbolBinding;

  /// Values substituted for the symbolic constants, in leaf order.
  std::vector<int64_t> ConstantValues;
};

/// Validator state shared across all templates of one query.
///
/// The enumeration is heavily pruned relative to the naive cartesian
/// product, without changing the returned instantiations or their order:
///
///  * a template naming a symbol whose rank no argument has is rejected by
///    one walk of the RHS against a per-validator rank mask, before any
///    per-template state is built;
///  * per-symbol options are filtered by rank *and* by shape compatibility
///    (an argument whose extents conflict with the output shape, or with
///    the symbol's own repeated accesses, in any I/O example can never
///    validate);
///  * each symbol binding is checked for cross-symbol extent consistency
///    before any instantiation is built or evaluated;
///  * every argument's operand tensor and resolved shape are tabulated once
///    per validator (they depend only on the argument and the example, not
///    the candidate), so the per-template work is integer indexing;
///  * instantiation evaluation short-circuits on the first failing output
///    cell of the first failing I/O example.
///
/// Every pruned candidate is one the einsum evaluator would have rejected,
/// so the surviving set — and the enumeration order within it — is
/// bit-identical to the naive enumerator's (tests/PerfEquivalenceTest.cpp).
class Validator {
public:
  /// \p Constants is the literal pool harvested from the source by the
  /// static analysis. \p UseVm selects the bytecode VM for instantiation
  /// evaluation (bit-identical verdicts and order; the tree-walk remains
  /// available behind `--no-vm` for A/B comparison). \p UseVmOpt is
  /// ignored: the validator never runs vm::optimize, because a template's
  /// stream is evaluated on a few small examples and optimizing it cost
  /// several times what it saved. The parameter stays because existing
  /// callers (the repository benchmark among them) pass it; `--no-vm-opt`
  /// still governs the verifier and execute.
  Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
            std::vector<int64_t> Constants, bool UseVm = true,
            bool UseVmOpt = true);
  ~Validator();

  /// Enumerates substitutions for \p Template and returns every
  /// instantiation that satisfies all I/O examples, up to \p MaxResults.
  std::vector<Instantiation> validate(const taco::Program &Template,
                                      size_t MaxResults = 8) const;

  /// Total instantiations evaluated so far (across calls); a cost metric.
  /// Shape-pruned bindings never reach evaluation and are not counted.
  int64_t instantiationsTried() const { return Tried; }

  const std::vector<IoExample> &examples() const { return Examples; }

private:
  /// The per-validator argument table (operands and resolved shapes per
  /// example) plus the per-template scratch reused across calls; defined in
  /// Validator.cpp.
  struct State;

  /// Builds the argument table on first use (it needs no template).
  State &state() const;

  const bench::Benchmark &B;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;
  bool UseVm = true;
  /// Bit R is set when some argument has rank R.
  uint64_t ArgRanks = 0;
  mutable int64_t Tried = 0;
  mutable std::unique_ptr<State> Cache;
};

/// Rewrites \p Template by applying \p SymbolBinding to tensor names and
/// substituting \p ConstantValues into the symbolic constants (in leaf
/// order). Exposed for tests and the baselines.
taco::Program instantiateTemplate(
    const taco::Program &Template,
    const std::map<std::string, std::string> &SymbolBinding,
    const std::vector<int64_t> &ConstantValues);

/// Evaluates a fully concrete program (tensor names are argument names,
/// constants are literals) on every example and compares against the
/// expected outputs. Shared by the validator and the enumerative baselines.
bool runsConsistently(const bench::Benchmark &B, const taco::Program &Concrete,
                      const std::vector<IoExample> &Examples);

} // namespace validate
} // namespace stagg

#endif // STAGG_VALIDATE_VALIDATOR_H
