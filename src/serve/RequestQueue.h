//===- serve/RequestQueue.h - Bounded MPMC request queue --------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission queue of the serving layer: a bounded multi-producer
/// multi-consumer queue of lift requests. A producer that finds the queue
/// full either waits for room (backpressure toward blocking clients) or is
/// refused at once (the socket loop, which must never block); consumers
/// block when it is empty, and close() wakes everyone so the worker pool
/// can drain and exit. The bound is what keeps a flood of requests from
/// ballooning memory: at most QueueDepth requests wait beyond the ones
/// workers already hold.
///
/// Each request carries its own completion callback, LiftRequest::Done,
/// the one way it settles.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SERVE_REQUESTQUEUE_H
#define STAGG_SERVE_REQUESTQUEUE_H

#include "core/Stagg.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

namespace stagg {
namespace serve {

/// What the service hands back per request.
struct LiftResponse {
  std::string Benchmark;
  std::string Category;
  core::LiftResult Result;

  /// True when the result came out of the kernel-text cache and no pipeline
  /// work ran for this request.
  bool CacheHit = false;
};

/// One lift request as it travels through the service.
///
/// The request *owns* its benchmark: callers may submit kernels ingested
/// from the wire (api::ingestKernel) and drop their buffers immediately —
/// nothing in the service ever points into caller storage. (The original
/// design held `const bench::Benchmark *` into the registry, which made any
/// non-registry submission a lifetime hazard.)
struct LiftRequest {
  /// The kernel to lift.
  bench::Benchmark Query;

  /// The configuration this request runs under: the service-wide config
  /// with any per-request overrides (api::ConfigPatch) already applied.
  core::StaggConfig Config;

  /// Optional phase observer, called on the worker: "searching" when it
  /// picks the request up, "verified" when the pipeline finished. Cache
  /// hits skip straight to Done and fire neither.
  std::function<void(const char *Phase)> Progress;

  /// Settles the request: called exactly once, on the worker that lifts or
  /// cache-serves it (or by LiftService::submit after shutdown). Callers
  /// that own thread-confined state marshal from here to their own thread
  /// (SocketServer::post).
  std::function<void(LiftResponse &&)> Done;
};

/// Bounded blocking MPMC queue. All methods are thread-safe.
class RequestQueue {
public:
  /// \p Depth < 1 is clamped to 1.
  explicit RequestQueue(int Depth);

  /// Enqueues \p Request. When the queue is full, \p Wait blocks until
  /// there is room; without it push returns false at once. Also false when
  /// the queue is (or becomes) closed. \p Request is only moved from on
  /// success, so the caller keeps its Done on failure.
  bool push(LiftRequest &&Request, bool Wait);

  /// Blocks until a request arrives, then dequeues into \p Out. Returns
  /// false when the queue is closed *and* drained — the consumer's signal
  /// to exit.
  bool pop(LiftRequest &Out);

  /// Closes admission. Pending requests remain poppable; blocked producers
  /// fail, blocked consumers drain then exit.
  void close();

  bool closed() const;
  size_t size() const;
  int depth() const { return Depth; }

private:
  const int Depth;
  mutable std::mutex Mutex;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::deque<LiftRequest> Items;
  bool Closed = false;
};

} // namespace serve
} // namespace stagg

#endif // STAGG_SERVE_REQUESTQUEUE_H
