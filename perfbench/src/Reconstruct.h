//===- perfbench/src/Reconstruct.h - Traced rebuild of the pipeline -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// core::liftBenchmark rebuilt step by step from the same public calls,
/// with a span around each call: C parse, kernel model plus checker, the
/// oracle, grammar learning, I/O examples, and the top-down search whose
/// probe (the benchmark's own TemplateProbeFactory) times Validator
/// construction, every validate call and every bounded verification.
///
/// The traced run compares each rebuilt result against core::liftBenchmark
/// (or the service's answer) and aborts on any difference, so the per-layer
/// numbers describe the pipeline the untraced run measures.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RECONSTRUCT_H
#define PERFBENCH_RECONSTRUCT_H

#include "core/Stagg.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Span names of the rebuilt pipeline.
namespace spans {
inline constexpr const char *Op = "op";
inline constexpr const char *Parse = "cfront.parse";
inline constexpr const char *ModelCheck = "analysis.model_check";
inline constexpr const char *Oracle = "llm.oracle";
inline constexpr const char *Grammar = "grammar.build";
inline constexpr const char *Examples = "validate.examples";
inline constexpr const char *Search = "search.run_top_down";
inline constexpr const char *ValidatorInit = "validate.construct";
inline constexpr const char *Validate = "validate.validate";
inline constexpr const char *Verify = "verify.verify";
} // namespace spans

/// A rebuilt lift plus the probe counters spans cannot express.
struct TracedLift {
  stagg::core::LiftResult Result;
  int64_t ValidateCalls = 0;
  int64_t Instantiations = 0; ///< Instantiations the validate calls returned.
  int64_t VerifyCalls = 0;
  int64_t Equivalent = 0;
};

/// Rebuilds core::liftBenchmark(\p B, \p Oracle, \p Config) under spans
/// tagged with \p Op. Top-down search only (the benchmark's config).
TracedLift tracedLift(const stagg::bench::Benchmark &B,
                      stagg::llm::CandidateOracle &Oracle,
                      const stagg::core::StaggConfig &Config, int64_t Op);

/// Empty when \p A and \p B agree on Solved, Attempts, Expansions and the
/// concrete program; otherwise a description of the first difference.
std::string compareLifts(const stagg::core::LiftResult &A,
                         const stagg::core::LiftResult &B);

} // namespace perfbench

#endif // PERFBENCH_RECONSTRUCT_H
