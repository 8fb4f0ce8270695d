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
/// there is exactly one code path from a request to a result: trySubmit,
/// whose Done callback settles every request (submit and lift wrap it in a
/// future). The serve-to-api response translation happens there, once.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_ENDPOINT_H
#define STAGG_API_ENDPOINT_H

#include "api/Api.h"
#include "api/KernelIngest.h"
#include "serve/LiftService.h"
#include "vm/Code.h"

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace stagg {
namespace api {

/// Observes a queued lift's phases ("searching", "verified"), on the
/// service worker running it.
using ProgressFn = std::function<void(const char *Phase)>;

/// Settles one request; called exactly once.
using DoneFn = std::function<void(LiftResponse &&)>;

/// How Endpoint::trySubmit disposed of a request.
enum class Admission {
  Queued,    ///< Done runs later, on the service worker that settles it.
  Answered,  ///< An admission error: Done already ran, on this thread.
  QueueFull, ///< Nothing happened and Done will not run; retry later.
};

/// The public face of a running lift service.
class Endpoint {
public:
  explicit Endpoint(serve::ServiceConfig Config,
                    serve::OracleFactory Factory = {});

  /// The one admission primitive. Resolves \p Request (validation,
  /// registry lookup or memoized inline ingestion, patch application).
  /// An admission error (bad request, unknown name, refused ingestion)
  /// calls \p Done synchronously. Otherwise the lift is queued and \p Done
  /// runs once on the service worker that settles it, after \p Progress
  /// (may be empty) has reported its phases there. When the service queue
  /// is full, \p Wait blocks for room; without it the answer is QueueFull —
  /// the socket loop's mode, which must never block and retries after a
  /// completion frees a slot (the ingest memo keeps the retry cheap).
  /// After shutdown, Done runs at once with a "service is shut down"
  /// failure.
  Admission trySubmit(const LiftRequest &Request, ProgressFn Progress,
                      DoneFn Done, bool Wait = false);

  /// trySubmit with Wait, as a future (blocks on queue backpressure).
  std::future<LiftResponse> submit(const LiftRequest &Request);

  /// Blocking convenience: submit and wait.
  LiftResponse lift(const LiftRequest &Request) {
    return submit(Request).get();
  }

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
  /// Callers whose Done callbacks reference external state (the socket
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
  /// The front half of trySubmit. Returns the response head: on success
  /// (Status::Ok) it carries the applied patch and the ingest warnings,
  /// and \p Out holds the query and its effective configuration; otherwise
  /// it is the admission error itself.
  LiftResponse admit(const LiftRequest &Request, serve::LiftRequest &Out);

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
