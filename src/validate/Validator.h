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
/// A validator is per-lift scratch as much as a table: it owns the template
/// structure, the bytecode and one interpreter per example, and compiles
/// every template into them in place. Validating a template no larger than
/// an earlier one allocates nothing beyond the instantiations it returns.
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

/// Bit R is set when some argument of \p B has rank R: the ranks a template
/// symbol can be bound at. The pipeline hands it to the search, which
/// settles every template rejectsOnRank would reject without building it
/// (search/SearchTypes.h, AllRanksBindable).
uint64_t bindableRanks(const bench::Benchmark &B);

/// Validator state shared across all templates of one query.
///
/// The enumeration is heavily pruned relative to the naive cartesian
/// product, without changing the returned instantiations or their order:
///
///  * a template naming a symbol whose rank no argument has is rejected by
///    one walk of the RHS against the bindableRanks mask, before any
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
///  * each (leaf, option, example) access binding — storage plus (slot,
///    stride) span, with the operand checks — is built once per template,
///    and each binding hands the interpreter those rows plus the variable
///    extents the consistency check settled (vm::Interpreter::
///    bindPrepared), so a binding runs no per-access checks;
///  * instantiation evaluation short-circuits on the first failing output
///    cell of the first failing I/O example.
///
/// Every pruned candidate is one evaluation would have rejected, so the
/// surviving set — and the enumeration order within it — is bit-identical
/// to the naive enumerator's (tests/PerfEquivalenceTest.cpp).
class Validator {
public:
  /// \p Constants is the literal pool harvested from the source by the
  /// static analysis. Instantiations are evaluated on the bytecode VM,
  /// without vm::optimize: a template's stream runs on a few small
  /// examples, and optimizing it cost several times what it saved.
  Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
            std::vector<int64_t> Constants);

  /// Same validator; both flags are ignored. Kept only because the
  /// repository benchmark calls it (perfbench/src/Reconstruct.cpp:132); the
  /// next benchmark change deletes it.
  Validator(const bench::Benchmark &B, std::vector<IoExample> Examples,
            std::vector<int64_t> Constants, bool /*UseVm*/, bool /*UseVmOpt*/)
      : Validator(B, std::move(Examples), std::move(Constants)) {}
  ~Validator();

  /// Enumerates substitutions for \p Template and returns every
  /// instantiation that satisfies all I/O examples, up to \p MaxResults.
  std::vector<Instantiation> validate(const taco::Program &Template,
                                      size_t MaxResults = 8) const;

  /// True when validate() rejects \p Template on rank alone: some RHS
  /// access other than the LHS symbol has a rank outside bindableRanks.
  bool rejectsOnRank(const taco::Program &Template) const;

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
  /// bindableRanks(B).
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
/// constants are literals) on the bytecode VM for every example and
/// compares against the expected outputs, with the validator's per-cell
/// tolerance. Used by kernel ingestion and the enumerative baselines.
bool runsConsistently(const bench::Benchmark &B, const taco::Program &Concrete,
                      const std::vector<IoExample> &Examples);

} // namespace validate
} // namespace stagg

#endif // STAGG_VALIDATE_VALIDATOR_H
