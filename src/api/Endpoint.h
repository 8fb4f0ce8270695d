//===- api/Endpoint.h - The one entry point into the service ----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// api::Endpoint is the single programmatic entry point of the system: it
/// resolves api::LiftRequests (registry lookup or inline-kernel ingestion),
/// applies per-request configuration patches, and drives the persistent
/// serving layer (serve::LiftService) underneath. Both `stagg serve` and
/// the batch driver (driver::SuiteRunner) are thin clients of this class —
/// there is exactly one code path from a request to a result.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_ENDPOINT_H
#define STAGG_API_ENDPOINT_H

#include "api/Api.h"
#include "api/KernelIngest.h"
#include "serve/LiftService.h"
#include "vm/Code.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace stagg {
namespace api {

/// A submitted request whose response may still be in flight. Requests that
/// fail on admission (bad request, unknown name, ingestion failure) resolve
/// immediately; everything else resolves when a service worker finishes.
class PendingLift {
public:
  PendingLift() = default;

  /// True when get() will not block.
  bool ready();

  /// Waits for and returns the response (call once).
  LiftResponse get();

private:
  friend class Endpoint;

  std::future<serve::LiftResponse> Raw;
  LiftResponse Resolved; ///< Immediate responses; carries Applied for both.
  bool Immediate = false;
};

/// The public face of a running lift service.
class Endpoint {
public:
  explicit Endpoint(serve::ServiceConfig Config,
                    serve::OracleFactory Factory = {});

  /// Admits \p Request (blocking on queue backpressure for well-formed
  /// requests; admission errors resolve immediately).
  PendingLift submit(const LiftRequest &Request);

  /// Non-blocking admission for event-loop callers (the socket transport):
  /// false when the service queue is full — nothing happened, retry after
  /// a completion frees a slot. True means \p Out is live: either an
  /// immediately-resolved admission error or an in-flight lift observing
  /// \p Hooks. Ingestion of an inline kernel still runs synchronously
  /// (memoized), but never blocks on backpressure.
  bool trySubmit(const LiftRequest &Request, serve::SubmitHooks Hooks,
                 PendingLift &Out);

  /// Blocking convenience: submit and wait.
  LiftResponse lift(const LiftRequest &Request);

  /// Runs the lifted program of \p Response on the concrete inputs in
  /// \p Io (the v2 "execute" request). \p Request is the original lift
  /// request, re-resolved (registry lookup or the ingest memo — both
  /// cheap) for the argument specs that shape the posted inputs. The
  /// program is compiled to VM bytecode once per distinct lifted
  /// expression and cached alongside the result cache, so repeated
  /// executions only pay for binding and cell evaluation. The posted
  /// arrays are bound where they lie in \p Io (no copy into a tensor; a
  /// posted output array is bound as the output's pre-state) and the
  /// program evaluates straight into ExecuteOutcome::Data. Sizes, lengths
  /// and the --max-execute-cells budget are all checked, overflow-safe,
  /// before anything is allocated.
  ExecuteOutcome executeLifted(const LiftRequest &Request,
                               const ExecuteIo &Io,
                               const LiftResponse &Response);

  /// Stops admission, drains in-flight requests, joins the worker pool.
  /// Callers whose completion hooks reference external state (the socket
  /// loop) call this before that state goes away.
  void shutdown() { Service.shutdown(); }

  serve::CacheStats cacheStats() const { return Service.cacheStats(); }

  /// Counters of the execute-path compiled-program cache (the 256-entry
  /// memo behind executeLifted). Evictions count wholesale clears.
  struct VmCacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Entries = 0;
    size_t Capacity = 0;
  };
  VmCacheStats vmCacheStats() const;

  int threads() const { return Service.threads(); }
  int queueDepth() const { return Service.queueDepth(); }
  size_t queueLength() const { return Service.queueLength(); }

  /// The service-wide configuration patches apply on top of.
  const core::StaggConfig &baseConfig() const { return Base; }

private:
  /// Builds an admission-failure response that resolves immediately.
  static PendingLift immediateError(Status St, std::string Name,
                                    std::string Error,
                                    const ConfigPatch &Applied);

  /// The shared front half of submit/trySubmit: validation, registry
  /// lookup or (memoized) inline ingestion, and patch application. When
  /// Immediate is true, Pending already carries the resolved admission
  /// error; otherwise Query/Effective/Warnings describe the lift to
  /// enqueue.
  struct Admission {
    bool Immediate = false;
    PendingLift Pending;
    bench::Benchmark Query;
    core::StaggConfig Effective;
    std::vector<analysis::CheckFinding> Warnings;
  };
  Admission admit(const LiftRequest &Request);

  /// ingestKernel with memoization: ingestion (parse, analysis, smoke
  /// execution) runs synchronously on the admission thread, so a client
  /// resubmitting the same inline kernel must not re-pay it just to reach
  /// the result cache. Keyed on normalized source + label + hint; capped,
  /// cleared wholesale on overflow (resubmission patterns are bursty, not
  /// long-tailed).
  IngestResult ingestCached(const LiftRequest &Request);

  /// One lifted program compiled to VM bytecode and vm::optimize'd. The
  /// Program member owns the expression trees the Code points into, so an
  /// entry is immutable and safely shared by any number of concurrent
  /// executions.
  struct CompiledKernel {
    taco::Program Program;
    vm::Code Code;
  };

  /// The bytecode cache lookup, keyed on \p Key: the printed text of
  /// \p Concrete, the same spelling the result cache stores. Compiles on
  /// miss.
  std::shared_ptr<const CompiledKernel>
  compiledFor(const taco::Program &Concrete, const std::string &Key);

  core::StaggConfig Base;
  serve::LiftService Service;

  std::mutex IngestMutex;
  std::unordered_map<std::string, IngestResult> IngestMemo;

  mutable std::mutex VmCacheMutex;
  std::unordered_map<std::string, std::shared_ptr<const CompiledKernel>>
      VmCache;
  VmCacheStats VmStats;
};

} // namespace api
} // namespace stagg

#endif // STAGG_API_ENDPOINT_H
