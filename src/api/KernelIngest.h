//===- api/KernelIngest.h - Arbitrary C kernels to benchmarks ---*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns arbitrary C kernel text into a self-contained, owned
/// bench::Benchmark that the pipeline can lift exactly like a registry
/// entry. Everything is derived from one normalized analysis::KernelModel —
/// the symbolic executor's public store/access IR — so the subscript,
/// pointer-walking, guarded (relu-family), and multi-statement forms of a
/// kernel all ingest through the same path:
///
///  * argument specifications are synthesized from the model's delinearized
///    accesses (stride ordering, stride-ratio extents, loop-bound leading
///    extents), falling back to the executor's ranks when a shape has no
///    closed form;
///
///  * a *reference translation* is emitted from the model's normalized
///    stores: guarded stores lower to `max(...)` (select) nodes, sequential
///    stores lower to an ordered TACO statement list plus a composed
///    single-program form that seeds the simulated candidate oracle — the
///    role GPT-4's reading of the prompt plays in the paper. Kernels beyond
///    the model (while loops, untranslatable conditions, non-affine
///    subscripts) are refused with a diagnostic that carries the construct's
///    line/column; callers can supply an oracle hint instead (real LLM
///    backends need neither).
///
/// The resulting benchmark is a value: it shares no storage with the input
/// text, so requests built from it survive any caller buffer lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_KERNELINGEST_H
#define STAGG_API_KERNELINGEST_H

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Ast.h"
#include "taco/Ast.h"

#include <optional>
#include <string>
#include <vector>

namespace stagg {
namespace api {

/// Why ingestion failed.
enum class IngestStatus {
  Ok,
  ParseError,    ///< The text is not a parseable C kernel.
  AnalysisError, ///< Parsed, but no usable benchmark could be derived.
  UnsafeKernel,  ///< The static checker found hard safety findings.
};

/// Outcome of ingestKernel.
struct IngestResult {
  IngestStatus Status = IngestStatus::Ok;
  std::string Error;

  /// The static checker's findings under the synthesized shapes. Hard
  /// findings refuse ingestion (Status == UnsafeKernel) and are rendered as
  /// structured wire diagnostics; warnings ride along on success.
  std::vector<analysis::CheckFinding> Findings;

  /// True when every access was statically proven in bounds — the license
  /// for the verifier to skip dynamic bounds probing downstream.
  bool BoundsProvenSafe = false;

  /// The synthesized benchmark (valid when ok()). Category is "inline".
  bench::Benchmark Kernel;

  /// The ordered statement-list form of the derived reference translation
  /// (empty when the caller supplied an oracle_hint instead). The einsum
  /// sequence evaluator and the verifier execute it as one program;
  /// Kernel.GroundTruth holds the composed single-program form.
  std::vector<taco::Program> ReferenceStatements;

  /// Ingestion class of the kernel (subscript / pointer-walking /
  /// conditional / multi-statement).
  analysis::KernelClass Class = analysis::KernelClass::Subscript;

  bool ok() const { return Status == IngestStatus::Ok; }
};

/// Ingests \p CSource. \p Name labels the benchmark (defaults to the C
/// function's name); \p OracleHint optionally supplies the reference
/// translation when the model has none (and overrides it when both exist —
/// the caller knows their kernel best).
IngestResult ingestKernel(const std::string &CSource,
                          const std::string &Name = "",
                          const std::string &OracleHint = "");

} // namespace api
} // namespace stagg

#endif // STAGG_API_KERNELINGEST_H
