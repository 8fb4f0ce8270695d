//===- verify/BoundedVerifier.h - Bounded equivalence checking --*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded equivalence checking between the legacy C kernel and a candidate
/// TACO program, standing in for the paper's CBMC pipeline (§7). Like the
/// paper we work over exact *rational* datatypes rather than floats. The
/// bound is over shapes and a structured input family:
///
///  * every size-parameter assignment up to a per-dimension bound,
///  * the all-ones input,
///  * one-hot bases swept jointly through pairs of operand tensors (which
///    pins down multilinear behaviour the way symbolic case analysis would),
///  * deterministic pseudo-random rational inputs (including negatives and
///    non-integers).
///
/// The candidate is compiled once per call to vm::Code, optimized, and run
/// on a vm::Interpreter over rationals for every test. The C kernel is
/// compiled once per lift to its slot-resolved form
/// (cfront::CompiledFunction, owned by the ReferenceCache, or by the call
/// when there is none) and run by one cfront::Executor. One set of flat
/// argument buffers and operand tensors is allocated per call and reshaped
/// per shape assignment; each test overwrites the input cells in place, the
/// candidate reads them directly, and the kernel runs on a scratch copy.
/// On disagreement a readable counterexample is produced and the pipeline
/// returns to the validator for the next substitution, exactly as in
/// Fig. 1. A test in which either side ends holding an overflowed
/// (poisoned) rational fails with the witness "rational overflow in C
/// reference" or "rational overflow in candidate"; it never passes.
///
/// Two hot-path optimizations keep the Fig. 1 loop cheap without changing
/// verdicts:
///
///  * The C kernel's outputs are *candidate-independent*: for a fixed
///    (shape, input) the reference interpretation always produces the same
///    result. A ReferenceCache passed across verifyEquivalence calls (the
///    validator-fallback loop re-verifies one candidate after another
///    against the same kernel) memoizes them keyed on the exact input
///    words, so only the first candidate pays for interpretation.
///  * The quadratic joint one-hot sweep over a pair of *distinct* operands
///    only distinguishes candidates with a multiplicative interaction
///    between those operands; for pairs the candidate never multiplies
///    together the sweep is reduced to its diagonal (the linear one-hot
///    probes). VerifyOptions::OneHotOnlyMultiplied restores the exhaustive
///    sweep when disabled; tests/PerfEquivalenceTest.cpp checks both paths
///    agree on the registry suite.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_VERIFY_BOUNDEDVERIFIER_H
#define STAGG_VERIFY_BOUNDEDVERIFIER_H

#include "benchsuite/Benchmark.h"
#include "cfront/Ast.h"
#include "support/Rational.h"
#include "taco/Ast.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace stagg {
namespace cfront {
struct CompiledFunction;
} // namespace cfront

namespace verify {

/// Verifier configuration.
struct VerifyOptions {
  /// Inclusive upper bound for each size parameter (lower bound is 1).
  /// Two suffices to expose rank and transposition errors because mixed
  /// shapes like (1,2)/(2,1) are included; tests also exercise 3.
  int64_t MaxSize = 2;

  /// Random rational trials per shape.
  int RandomTrials = 8;

  /// Cap on one-hot combinations per shape.
  int MaxOneHot = 512;

  /// Restrict the joint one-hot sweep of an operand pair to its diagonal
  /// when the candidate never multiplies (or divides) the two operands
  /// together; the cross terms only probe bilinear coefficients the
  /// candidate does not have. Disable for the exhaustive sweep.
  bool OneHotOnlyMultiplied = true;

  uint64_t Seed = 0x57466; // "STAGG"-ish; any fixed value keeps runs stable.

  /// Ignored: the candidate side always runs on the bytecode VM, optimized
  /// (vm::optimize). Kept only because the repository benchmark still sets
  /// them (perfbench/src/Reconstruct.cpp:117-118); the next benchmark change
  /// deletes both.
  bool UseVm = true;
  bool UseVmOpt = true;

  /// Skip the reference interpreter's per-access bounds checks. Only set
  /// when analysis::Checker proved every access in bounds for all sizes
  /// (CheckReport::BoundsProvenSafe) — the static proof licenses dropping
  /// the dynamic probe, shaving interpreter time off every reference run.
  /// Kernel-derived, so excluded from config fingerprints.
  bool TrustStaticBounds = false;
};

/// Outcome of a verification run.
struct VerifyResult {
  bool Equivalent = false;
  int TestsRun = 0;
  std::string Counterexample; ///< Human-readable witness when inequivalent.
};

/// Memoizes the C kernel's reference outputs across verifyEquivalence calls
/// for the *same* kernel and options (Fig. 1's fallback loop re-verifies
/// candidate after candidate), and owns the kernel's compiled form
/// (cfront::CompiledFunction), built on the first call and reused by every
/// later one. Not thread-safe; use one per lift, like the validator.
///
/// A key is one test's exact input words: the size assignment, then the
/// numerator and denominator of every input cell (each non-output array
/// and numeric scalar, in argument order). The sizes fix every array's
/// length, so the layout is unambiguous for one kernel. Lookups hash the
/// words and compare them exactly, so a hash collision can never return
/// another input's entry.
/// Keys, outputs and entries live in flat arrays that only grow: a miss
/// allocates nothing once they have grown to the sweep's size.
class ReferenceCache {
public:
  /// One memoized reference run. The pointers reach into the cache and
  /// stay valid until the next insert().
  struct Entry {
    bool Ok = false;
    const std::string *Error = nullptr; ///< Interpreter diagnostic when !Ok.
    const Rational *Output = nullptr;   ///< Output argument's post-state.
    size_t Size = 0;                    ///< ... and its cell count.
  };

  ReferenceCache();
  ~ReferenceCache();

  /// Looks up the input words \p Key; counts a hit or a miss.
  bool find(const std::vector<int64_t> &Key, Entry &Out) const;

  /// Records the run for an absent \p Key and returns its entry.
  Entry insert(const std::vector<int64_t> &Key, bool Ok,
               const std::string &Error, const Rational *Output,
               size_t Size);

  /// The slot-resolved form of \p Fn, compiled on first use (and again only
  /// if a different function is passed).
  const cfront::CompiledFunction &reference(const cfront::CFunction &Fn);

  int64_t hits() const { return Hits; }
  int64_t misses() const { return Misses; }
  size_t size() const { return Records.size(); }

private:
  struct Record {
    uint64_t Hash;
    size_t KeyAt, KeyLen;
    size_t OutAt, OutLen;
    size_t ErrorAt; ///< Index into Errors; SIZE_MAX when the run was Ok.
  };

  Entry entry(const Record &R) const;

  std::vector<Record> Records;
  std::vector<int64_t> Words;
  std::vector<Rational> Cells;
  std::vector<std::string> Errors;
  /// Open addressing over Records: index + 1, 0 = empty; a power of two,
  /// kept at most half full.
  std::vector<uint32_t> Table;
  std::unique_ptr<cfront::CompiledFunction> Compiled;
  const cfront::CFunction *CompiledFrom = nullptr;
  mutable int64_t Hits = 0;
  mutable int64_t Misses = 0;
};

/// Checks `forall inputs up to the bound: C(x) == TACO(x)` for the concrete
/// \p Candidate program (argument names, literal constants). When \p Cache
/// is non-null the C kernel's reference outputs are reused across calls;
/// verdicts, counterexamples, and test counts are identical either way
/// (the cache must only ever see one (benchmark, kernel, options) tuple).
VerifyResult verifyEquivalence(const bench::Benchmark &B,
                               const cfront::CFunction &Fn,
                               const taco::Program &Candidate,
                               const VerifyOptions &Options = VerifyOptions(),
                               ReferenceCache *Cache = nullptr);

/// Statement-list form: executes the ordered \p Candidate statements as one
/// program (each statement's result is visible to the statements after it,
/// and the output buffer's zero pre-state to the first) and checks the
/// final output against the C kernel on the same bounded input family.
/// Multi-statement kernels lower to exactly such lists. The one-hot pruning
/// optimization is not applied (the cross-statement data flow defeats the
/// per-expression multiplied-pair analysis), so every pair gets the full
/// joint sweep.
VerifyResult verifyEquivalence(const bench::Benchmark &B,
                               const cfront::CFunction &Fn,
                               const std::vector<taco::Program> &Candidate,
                               const VerifyOptions &Options = VerifyOptions(),
                               ReferenceCache *Cache = nullptr);

} // namespace verify
} // namespace stagg

#endif // STAGG_VERIFY_BOUNDEDVERIFIER_H
