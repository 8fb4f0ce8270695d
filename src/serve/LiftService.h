//===- serve/LiftService.h - Persistent lifting service ---------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer: a long-lived pool of lifting workers behind a bounded
/// request queue, with a kernel-text result cache in front of the
/// pipeline. One LiftService instance outlives any number of requests.
/// Requests enter through one admission function (submit) and settle
/// through one callback, LiftRequest::Done, which runs on the worker that
/// finished the request. Its one client is api::Endpoint, which `stagg
/// serve` and the batch driver (driver/SuiteRunner) both drive, so both
/// paths execute the same code.
///
/// Determinism: every worker owns a private oracle constructed from the same
/// factory and seed, and the pipeline derives everything else from the
/// request, so results are independent of worker count, queue order, and
/// cache state. ServeTest pins this down.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SERVE_LIFTSERVICE_H
#define STAGG_SERVE_LIFTSERVICE_H

#include "llm/Oracle.h"
#include "serve/RequestQueue.h"
#include "serve/ResultCache.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
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

/// The persistent lifting service.
class LiftService {
public:
  explicit LiftService(ServiceConfig Config, OracleFactory Factory = {});

  /// Drains the queue and joins the workers.
  ~LiftService();

  LiftService(const LiftService &) = delete;
  LiftService &operator=(const LiftService &) = delete;

  /// The one admission function. Queues \p Request, whose Done then runs
  /// exactly once, on the worker that lifts or cache-serves it. When the
  /// queue is full, \p Wait blocks for room; without it submit returns
  /// false and leaves \p Request untouched, so the caller can retry after a
  /// completion frees a slot. After shutdown, Done runs at once, on this
  /// thread, with a "service is shut down" failure.
  ///
  /// Request.Config is the configuration this request runs under. Its
  /// serving knobs (queue depth, cache shape) are fixed at service
  /// construction and ignored here; everything else — search kind,
  /// candidate counts, verification, timeouts — takes effect for this
  /// request alone, and the result cache keys on it.
  bool submit(LiftRequest &&Request, bool Wait);

  /// Stops admission, drains in-flight requests, joins the pool.
  /// Idempotent; the destructor calls it.
  void shutdown();

  CacheStats cacheStats() const { return Cache.stats(); }

  int threads() const { return static_cast<int>(Pool.size()); }
  int queueDepth() const { return Queue.depth(); }

  /// Requests currently waiting in the admission queue (a point-in-time
  /// observability reading, racy by nature).
  size_t queueLength() const { return Queue.size(); }

private:
  void workerLoop();

  /// Runs one request to completion (cache probe, lift, cache fill) using
  /// \p Oracle, and hands the response to its Done.
  void execute(LiftRequest &Request, llm::CandidateOracle &Oracle);

  ServiceConfig Config;
  OracleFactory Factory;

  RequestQueue Queue;
  ResultCache Cache;

  std::vector<std::thread> Pool;
  std::atomic<bool> Stopped{false};
};

} // namespace serve
} // namespace stagg

#endif // STAGG_SERVE_LIFTSERVICE_H
