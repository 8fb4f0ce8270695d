//===- search/WorkerPool.h - Thread-count resolution ------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// resolveThreads, the one reading of a thread-count knob. The serving
/// layer sizes its worker pool with it. The header keeps its old name only
/// because the repository benchmark includes it (perfbench/src/
/// Reconstruct.cpp:15); the next benchmark change can move the function.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_WORKERPOOL_H
#define STAGG_SEARCH_WORKERPOOL_H

#include <thread>

namespace stagg {
namespace search {

/// Resolves a thread-count knob: N > 0 is taken literally, 0 (or negative)
/// means "one per hardware thread" (at least 1).
inline int resolveThreads(int Requested) {
  if (Requested > 0)
    return Requested;
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware > 0 ? static_cast<int>(Hardware) : 1;
}

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_WORKERPOOL_H
