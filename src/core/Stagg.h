//===- core/Stagg.h - The STAGG lifting pipeline ----------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end pipeline of Fig. 1: prompt the oracle for candidate
/// translations, learn a probabilistic grammar of templates from them,
/// search the grammar (top-down or bottom-up weighted A\*), validate
/// complete templates against I/O examples by substitution enumeration, and
/// verify surviving instantiations with the bounded checker. Verification
/// failures fall back to the next substitution and then to the search, as in
/// the paper.
///
/// All evaluation ablations (penalty drops, EqualProbability, FullGrammar,
/// LLMGrammar) are expressed through StaggConfig.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_CORE_STAGG_H
#define STAGG_CORE_STAGG_H

#include "analysis/Checker.h"
#include "benchsuite/Benchmark.h"
#include "grammar/Pcfg.h"
#include "llm/Oracle.h"
#include "search/SearchTypes.h"
#include "taco/Ast.h"
#include "verify/BoundedVerifier.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stagg {
namespace core {

/// Which enumeration strategy drives the pipeline.
enum class SearchKind { TopDown, BottomUp };

/// Knobs of the serving layer (src/serve). They live next to the pipeline
/// configuration so one StaggConfig describes a whole deployment — batch
/// drivers and the persistent `stagg serve` process read the same struct.
struct ServeOptions {
  /// Bound of the request queue; submissions block once this many requests
  /// are in flight (backpressure toward the client).
  int QueueDepth = 64;

  /// Result-cache entries across all shards; 0 disables caching.
  size_t CacheCapacity = 1024;

  /// Number of independently locked cache shards (rounded up to one).
  int CacheShards = 8;

  /// Socket transport: "<addr>:<port>" to listen on (port 0 picks a free
  /// one); empty keeps `stagg serve` on stdin.
  std::string ListenAddr;

  /// Transport limits (see serve::SocketServerOptions).
  int MaxConns = 64;
  int MaxInFlight = 8;
  double IdleTimeoutSeconds = 300;

  /// Cap on the total number of tensor cells one v2 "execute" request may
  /// materialize (inputs + output together). Sizes are client-controlled,
  /// so without a cap a single frame could demand a multi-GB zero-fill (or
  /// overflow the cell count entirely); requests over the cap answer with
  /// a result error instead of allocating. 0 disables the cap — overflow
  /// of the cell count itself is always rejected.
  int64_t MaxExecuteCells = int64_t(1) << 22;

  /// Persistent result-cache journal; empty keeps the cache in-memory
  /// only. Loaded at service startup, written through on every insert.
  std::string CachePath;
};

/// Pipeline configuration.
struct StaggConfig {
  SearchKind Kind = SearchKind::TopDown;
  grammar::GrammarOptions Grammar;
  search::SearchConfig Search;
  verify::VerifyOptions Verify;

  /// Number of candidate translations requested from the oracle.
  int NumCandidates = 10;

  /// Number of I/O examples used by the validator.
  int NumIoExamples = 3;

  /// Seed for I/O example generation.
  uint64_t ExampleSeed = 0xE9A3;

  /// Skip bounded verification (I/O-only acceptance, like C2TACO).
  bool SkipVerification = false;

  /// Ignored: candidates are always evaluated through the bytecode VM
  /// (src/vm), optimized wherever a concrete program runs. Kept only
  /// because the repository benchmark still reads them
  /// (perfbench/src/Reconstruct.cpp:117-118); the next benchmark change
  /// deletes both.
  bool UseVm = true;
  bool UseVmOpt = true;

  /// Serving-layer knobs (queue depth, result cache).
  ServeOptions Serve;
};

/// Everything the experiments need to know about one lifting run.
struct LiftResult {
  bool Solved = false;

  /// True when the solution also passed bounded verification (false for
  /// SkipVerification runs, which accept on I/O validation alone).
  bool Verified = false;

  /// The successful template (symbolic) and its concrete instantiation.
  taco::Program Template;
  taco::Program Concrete;

  /// Complete templates submitted to validation.
  int Attempts = 0;

  /// Expansions in the search (search::SearchResult::Expansions).
  int64_t Expansions = 0;

  /// End-to-end wall-clock seconds (oracle + grammar + search + verify).
  double Seconds = 0;

  /// Per-phase wall-clock breakdown of Seconds: C parse + static analysis,
  /// candidate generation, grammar learning (incl. response parsing and the
  /// dimension vote), and search (incl. validation and verification, which
  /// run inside the search's goal test).
  double ParseSeconds = 0;
  double OracleSeconds = 0;
  double GrammarSeconds = 0;
  double SearchSeconds = 0;

  std::string FailReason;

  /// Diagnostics.
  int CandidatesParsed = 0;
  int CandidatesDiscarded = 0;
  std::vector<int> DimList;

  /// Static-checker verdict over the kernel (analysis/Checker.h), recorded
  /// during step 2. When the checker proves every access in bounds for the
  /// declared argument shapes, the bounded verifier runs with its dynamic
  /// bounds probes elided (VerifyOptions::TrustStaticBounds).
  bool CheckerSafe = false;
  int CheckerFindings = 0;
};

/// The checker's view of \p B's declared signature: every array argument's
/// shape as extent polynomials, and which arrays are outputs. These shapes
/// are authoritative — they are exactly what the harness allocates.
analysis::CheckOptions checkOptionsFor(const bench::Benchmark &B);

/// Lifts \p B using \p Oracle under \p Config.
LiftResult liftBenchmark(const bench::Benchmark &B,
                         llm::CandidateOracle &Oracle,
                         const StaggConfig &Config);

/// Renders a result row for logs: "name: OK concrete (1.2ms, 5 attempts)".
std::string describeResult(const bench::Benchmark &B, const LiftResult &R);

/// Serializes every result-affecting field of \p Config into a compact,
/// stable token. Two configurations with equal fingerprints produce
/// bit-identical lift results for the same query, so the serving layer keys
/// its result cache on (kernel, fingerprint) — per-request config overrides
/// must never be answered from a run under different settings.
std::string configFingerprint(const StaggConfig &Config);

} // namespace core
} // namespace stagg

#endif // STAGG_CORE_STAGG_H
