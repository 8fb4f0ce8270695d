//===- api/Endpoint.h - The one entry point into the service ----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// api::Endpoint is the single programmatic entry point of the system and
/// the one serving object: it resolves api::LiftRequests (registry lookup
/// or inline-kernel ingestion), applies per-request configuration patches,
/// and runs the admitted lifts on its own long-lived worker pool behind a
/// bounded request queue, with the kernel-text result cache in front of
/// the pipeline. Both `stagg serve` and the batch driver
/// (driver::SuiteRunner) are thin clients of this class — there is exactly
/// one code path from a request to a result: trySubmit, whose Done callback
/// settles every request on the worker that finished it (submit and lift
/// wrap it in a future).
///
/// Determinism: every worker owns a private oracle constructed from the
/// same factory and seed, and the pipeline derives everything else from the
/// request, so results are independent of worker count, queue order, and
/// cache state. ServeTest pins this down.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_ENDPOINT_H
#define STAGG_API_ENDPOINT_H

#include "api/Api.h"
#include "api/KernelIngest.h"
#include "llm/Oracle.h"
#include "serve/RequestQueue.h"
#include "serve/ResultCache.h"
#include "vm/Code.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace stagg {
namespace serve {

/// Everything a service instance needs at construction.
struct ServiceConfig {
  /// Pipeline configuration, including Config.Serve (queue depth, cache
  /// capacity/shards).
  core::StaggConfig Config;

  /// Worker-pool width; <= 0 means hardware concurrency.
  int Threads = 0;

  /// Seed handed to the oracle factory for every worker.
  uint64_t OracleSeed = 20250411;
};

/// Builds one oracle instance from a seed. The default factory produces
/// llm::SimulatedLlm; tests substitute counting or failing oracles, and a
/// real deployment would produce an HTTP-backed LLM client here.
using OracleFactory =
    std::function<std::unique_ptr<llm::CandidateOracle>(uint64_t Seed)>;

} // namespace serve

namespace api {

/// Observes a queued lift's phases ("searching", "verified"), on the
/// endpoint worker running it.
using ProgressFn = std::function<void(const char *Phase)>;

/// Settles one request; called exactly once.
using DoneFn = std::function<void(LiftResponse &&)>;

/// How Endpoint::trySubmit disposed of a request.
enum class Admission {
  Queued,    ///< Done runs later, on the endpoint worker that settles it.
  Answered,  ///< An admission error: Done already ran, on this thread.
  QueueFull, ///< Nothing happened and Done will not run; retry later.
};

/// The running lift service.
class Endpoint {
public:
  /// Starts Config.Threads workers (<= 0: one per hardware thread), each
  /// with a private oracle that \p Factory (llm::SimulatedLlm when empty)
  /// builds from Config.OracleSeed.
  explicit Endpoint(serve::ServiceConfig Config,
                    serve::OracleFactory Factory = {});

  /// Drains the queue and joins the workers.
  ~Endpoint();

  Endpoint(const Endpoint &) = delete;
  Endpoint &operator=(const Endpoint &) = delete;

  /// The one admission primitive. Resolves \p Request (validation,
  /// registry lookup or memoized inline ingestion, patch application).
  /// An admission error (bad request, unknown name, refused ingestion)
  /// calls \p Done synchronously. Otherwise the lift is queued and \p Done
  /// runs once on the worker that lifts or cache-serves it, after
  /// \p Progress (may be empty) has reported its phases there. When the
  /// queue is full, \p Wait blocks for room; without it the answer is
  /// QueueFull — the socket loop's mode, which must never block and retries
  /// after a completion frees a slot (the ingest memo keeps the retry
  /// cheap). After shutdown, Done runs at once, on this thread, with a
  /// "service is shut down" failure.
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
  /// Idempotent; the destructor calls it. Callers whose Done callbacks
  /// reference external state (the socket loop) call this before that
  /// state goes away.
  void shutdown();

  serve::CacheStats cacheStats() const { return Cache.stats(); }

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

  int threads() const { return static_cast<int>(Pool.size()); }
  int queueDepth() const { return Queue.depth(); }

  /// Lifts currently waiting in the admission queue (a point-in-time
  /// observability reading, racy by nature).
  size_t queueLength() const { return Queue.size(); }

  /// The service-wide configuration patches apply on top of.
  const core::StaggConfig &baseConfig() const { return Base; }

private:
  /// One admitted lift, as it waits in the queue and runs on a worker.
  struct Job {
    /// The kernel: a non-owning pointer to the static registry entry, or
    /// one aliasing an ingest-memo entry, which it keeps alive through the
    /// memo's wholesale clears.
    std::shared_ptr<const bench::Benchmark> Query;

    /// The configuration this lift runs under: the service-wide config
    /// with the request's patch applied. Its serving knobs (queue depth,
    /// cache shape) are fixed at construction and ignored here; everything
    /// else takes effect for this lift alone, and the result cache keys
    /// on it.
    core::StaggConfig Config;

    /// The response head (patch echo, ingest warnings); the worker fills
    /// in the rest and hands it to Done.
    LiftResponse Head;

    /// "searching" when a worker starts the lift, "verified" when the
    /// pipeline finished. Cache hits skip straight to Done and fire
    /// neither.
    ProgressFn Progress;
    DoneFn Done;
  };

  /// The front half of trySubmit. On success \p Out holds the query, its
  /// effective configuration, and a response head carrying the applied
  /// patch and the ingest warnings. Otherwise it returns false and
  /// Out.Head is the admission error itself.
  bool admit(const LiftRequest &Request, Job &Out);

  /// ingestKernel with memoization: ingestion (parse, analysis, smoke
  /// execution) runs synchronously on the admission thread, so a client
  /// resubmitting the same inline kernel must not re-pay it just to reach
  /// the result cache. Keyed on normalized source + label + hint; capped,
  /// cleared wholesale on overflow (resubmission patterns are bursty, not
  /// long-tailed). Entries are shared, never copied.
  std::shared_ptr<const IngestResult> ingestCached(const LiftRequest &Request);

  /// One worker: runs jobs with \p Oracle, its private oracle, until the
  /// queue is closed and drained.
  void workerLoop(llm::CandidateOracle &Oracle);

  /// Runs one job to completion (cache probe, lift, cache fill) using
  /// \p Oracle, and hands the response to its Done.
  void execute(Job &Lift, llm::CandidateOracle &Oracle);

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

  std::mutex IngestMutex;
  std::unordered_map<std::string, std::shared_ptr<const IngestResult>>
      IngestMemo;

  mutable std::mutex VmCacheMutex;
  std::unordered_map<std::string, std::shared_ptr<const CompiledKernel>>
      VmCache;
  VmCacheStats VmStats;

  serve::RequestQueue<Job> Queue;
  serve::ResultCache Cache;
  std::vector<std::thread> Pool;
  std::atomic<bool> Stopped{false};
};

} // namespace api
} // namespace stagg

#endif // STAGG_API_ENDPOINT_H
