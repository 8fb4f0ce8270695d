//===- serve/RequestQueue.h - Bounded MPMC request queue --------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission queue of the serving layer: a bounded multi-producer
/// multi-consumer queue of lift jobs. A producer that finds the queue
/// full either waits for room (backpressure toward blocking clients) or is
/// refused at once (the socket loop, which must never block); consumers
/// block when it is empty, and close() wakes everyone so the worker pool
/// can drain and exit. The bound is what keeps a flood of requests from
/// ballooning memory: at most Depth items wait beyond the ones workers
/// already hold.
///
/// The item type is the client's: api::Endpoint queues its jobs, each
/// carrying the completion callback that is the one way it settles.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SERVE_REQUESTQUEUE_H
#define STAGG_SERVE_REQUESTQUEUE_H

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace stagg {
namespace serve {

/// Bounded blocking MPMC queue of \p T. All methods are thread-safe.
template <typename T> class RequestQueue {
public:
  /// \p Depth < 1 is clamped to 1.
  explicit RequestQueue(int Depth) : Depth(std::max(Depth, 1)) {}

  /// Enqueues \p Item. When the queue is full, \p Wait blocks until there
  /// is room; without it push returns false at once. Also false when the
  /// queue is (or becomes) closed. \p Item is only moved from on success,
  /// so the caller keeps it (and its callbacks) on failure.
  bool push(T &&Item, bool Wait) {
    std::unique_lock<std::mutex> Lock(Mutex);
    auto HasRoom = [&] { return static_cast<int>(Items.size()) < Depth; };
    if (Wait)
      NotFull.wait(Lock, [&] { return Closed || HasRoom(); });
    if (Closed || !HasRoom())
      return false;
    Items.push_back(std::move(Item));
    Lock.unlock();
    NotEmpty.notify_one();
    return true;
  }

  /// Blocks until an item arrives, then dequeues into \p Out. Returns
  /// false when the queue is closed *and* drained — the consumer's signal
  /// to exit.
  bool pop(T &Out) {
    std::unique_lock<std::mutex> Lock(Mutex);
    NotEmpty.wait(Lock, [&] { return Closed || !Items.empty(); });
    if (Items.empty())
      return false; // closed and drained
    Out = std::move(Items.front());
    Items.pop_front();
    Lock.unlock();
    NotFull.notify_one();
    return true;
  }

  /// Closes admission. Pending items remain poppable; blocked producers
  /// fail, blocked consumers drain then exit.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Closed = true;
    }
    NotFull.notify_all();
    NotEmpty.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Closed;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Items.size();
  }

  int depth() const { return Depth; }

private:
  const int Depth;
  mutable std::mutex Mutex;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::deque<T> Items;
  bool Closed = false;
};

} // namespace serve
} // namespace stagg

#endif // STAGG_SERVE_REQUESTQUEUE_H
