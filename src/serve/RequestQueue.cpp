//===- serve/RequestQueue.cpp - Bounded MPMC request queue ----------------===//

#include "serve/RequestQueue.h"

#include <algorithm>

using namespace stagg;
using namespace stagg::serve;

RequestQueue::RequestQueue(int Depth) : Depth(std::max(Depth, 1)) {}

bool RequestQueue::push(LiftRequest &&Request, bool Wait) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto HasRoom = [&] { return static_cast<int>(Items.size()) < Depth; };
  if (Wait)
    NotFull.wait(Lock, [&] { return Closed || HasRoom(); });
  if (Closed || !HasRoom())
    return false;
  Items.push_back(std::move(Request));
  Lock.unlock();
  NotEmpty.notify_one();
  return true;
}

bool RequestQueue::pop(LiftRequest &Out) {
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

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
  }
  NotFull.notify_all();
  NotEmpty.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Items.size();
}
