//===- api/Api.h - Public request/response surface --------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-class lift API. Everything a caller can ask of the system goes
/// through one request shape and comes back through one response shape,
/// regardless of transport (in-process via api::Endpoint, newline-delimited
/// JSON via `stagg serve`, or the batch driver):
///
///  * api::LiftRequest names a registry benchmark *or* carries an inline C
///    kernel body (api::ingestKernel turns the latter into an owned
///    bench::Benchmark), plus an api::ConfigPatch of per-request overrides
///    applied on top of the service-wide core::StaggConfig.
///
///  * api::LiftResponse carries a status (protocol errors are data, not
///    exit paths), the lifted TACO expressions, per-phase timings, and
///    cache provenance.
///
/// The wire encoding of both lives in api/Protocol.h; this header is
/// transport-agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_API_H
#define STAGG_API_API_H

#include "analysis/Checker.h"
#include "core/Stagg.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace stagg {
namespace api {

/// Per-request configuration overrides. Every field is optional; set fields
/// replace the corresponding service-wide value for one request (patch
/// precedence is total — a set field always wins), unset fields inherit.
/// Serving-layer knobs (queue depth, cache shape, execute limits) are fixed
/// per service and deliberately not patchable.
struct ConfigPatch {
  std::optional<core::SearchKind> Kind;        ///< "search": "td" | "bu"
  std::optional<int> NumCandidates;            ///< "candidates"
  std::optional<int> NumIoExamples;            ///< "io_examples"
  std::optional<uint64_t> ExampleSeed;         ///< "example_seed"
  std::optional<bool> SkipVerification;        ///< "skip_verify"
  std::optional<double> TimeoutSeconds;        ///< "timeout_s"
  std::optional<int> MaxDepth;                 ///< "max_depth"
  std::optional<int64_t> MaxExpansions;        ///< "max_expansions"
  std::optional<int> MaxAttempts;              ///< "max_attempts"
  std::optional<int64_t> VerifyMaxSize;        ///< "verify_max_size"
  std::optional<bool> FullGrammar;             ///< "full_grammar"
  std::optional<bool> EqualProbability;        ///< "equal_probability"
  std::optional<bool> UseVm;                   ///< "use_vm"
  std::optional<bool> UseVmOpt;                ///< "use_vm_opt"
  std::optional<int> SearchThreads;            ///< "search_threads"

  bool empty() const;

  /// Returns \p Base with every set field replaced.
  core::StaggConfig apply(const core::StaggConfig &Base) const;

  /// Parses a protocol "config" object. Unknown keys and mistyped values
  /// are errors (a silently dropped override would run the wrong pipeline);
  /// returns an empty string on success.
  static std::string fromJson(const support::Json &Object, ConfigPatch &Out);

  /// Renders only the set fields, mirroring the request spelling — echoed
  /// in responses so clients can see which overrides actually applied.
  support::Json toJson() const;
};

/// Concrete inputs posted with a v2 "execute" frame: size-parameter
/// bindings plus flat array / scalar values keyed by argument name. Arrays
/// not posted are zero-filled (the usual state of the output buffer);
/// missing size parameters default to 1, mirroring validate::resolveShape.
struct ExecuteIo {
  std::map<std::string, int64_t> Sizes;              ///< "sizes"
  std::map<std::string, std::vector<double>> Arrays; ///< array "inputs"
  std::map<std::string, double> Scalars;             ///< scalar "inputs"
};

/// Outcome of executing a lifted kernel on posted inputs, rendered as a v2
/// "result" event.
struct ExecuteOutcome {
  bool Ok = false;
  std::string Error; ///< When !Ok: lift failure, bad inputs, bind failure.

  bool Cached = false; ///< The lift itself was a result-cache hit.
  std::string Expr;    ///< The concrete lifted program that was executed.
  std::vector<int64_t> Shape; ///< Output tensor shape.
  std::vector<double> Data;   ///< Output cells, row-major.
};

/// One lift request. Exactly one of RegistryName / KernelSource is set;
/// api::Endpoint rejects requests with both or neither.
struct LiftRequest {
  /// Registry mode: the name of a benchmark baked into bench::allBenchmarks.
  std::string RegistryName;

  /// Inline mode: the C source of an arbitrary kernel, ingested on
  /// admission (api::ingestKernel). The request owns the text; callers may
  /// free their buffers the moment submit() returns.
  std::string KernelSource;

  /// Optional label for an inline kernel (defaults to the C function name).
  std::string Name;

  /// Optional TACO reference translation for an inline kernel, forwarded to
  /// the candidate oracle. Only the *simulated* oracle needs it (it models
  /// GPT-4's error distribution around a reference); a real LLM backend
  /// reads the prompt and ignores this. Without it, inline ingestion
  /// derives a reference by direct transliteration where possible.
  std::string OracleHint;

  ConfigPatch Patch;

  bool isInline() const { return !KernelSource.empty(); }
};

/// How a request fared, protocol-wise. Pipeline failures (search exhausted,
/// timeout, no valid candidates) are NOT errors: they come back as Ok with
/// Result.Solved == false and a FailReason.
enum class Status {
  Ok,               ///< The pipeline ran (or the cache answered).
  BadRequest,       ///< Malformed JSON or protocol violation.
  UnknownBenchmark, ///< Registry mode named an absent benchmark.
  KernelParseError, ///< Inline kernel failed to parse as C.
  IngestError,      ///< Parsed, but analysis/ingestion could not proceed.
  UnsafeKernel,     ///< The static checker refused the inline kernel.
  ShuttingDown,     ///< The service is draining and admits nothing new.
};

/// The canonical spelling of \p S on the wire ("ok", "bad_request", ...).
const char *statusName(Status S);

/// One lift response.
struct LiftResponse {
  Status St = Status::Ok;

  /// Diagnostic for non-Ok statuses.
  std::string Error;

  std::string Name;
  std::string Category;

  /// Pipeline outcome, including per-phase timings and Verified (valid when
  /// St == Ok).
  core::LiftResult Result;

  /// True when the result came from the kernel-text cache.
  bool CacheHit = false;

  /// The overrides that applied to this request (echo of the request's
  /// patch).
  ConfigPatch Applied;

  /// Static-checker findings for an inline kernel: the hard findings behind
  /// an UnsafeKernel refusal (rendered as the wire "diagnostics" array), or
  /// the surviving warnings on success (the wire "warnings" array).
  std::vector<analysis::CheckFinding> Diagnostics;

  bool ok() const { return St == Status::Ok; }
};

} // namespace api
} // namespace stagg

#endif // STAGG_API_API_H
