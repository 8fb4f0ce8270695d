//===- perfbench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span per call into a module's public
/// function, from the benchmark's own code: name, start, end, the span that
/// caused it, and the op it belongs to. Spans stay in per-thread buffers
/// until the run ends; they are then merged, summarized into the per-layer
/// metrics, and written as Chrome trace-event JSON (opens in Perfetto).
///
/// Untraced runs never construct a span: they call the program's own entry
/// points (core::liftBenchmark, the socket server) directly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. Times are nanoseconds on the steady clock.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int64_t Op = -1;     ///< The op (request) the span belongs to.
  int Thread = 0;

  double seconds() const { return (EndNs - StartNs) * 1e-9; }
};

/// Process-wide span store with one buffer per recording thread.
class Tracer {
public:
  static Tracer &instance();

  /// Opens a span on the calling thread; returns its token for end(), or
  /// -1 (and records nothing) while recording is off.
  int64_t begin(const char *Name, int64_t Op);
  void end(int64_t Token);

  /// Turns recording on or off; the tracing-overhead baseline runs the same
  /// traced code with recording off. Only called between replays.
  void setRecording(bool On) { Recording = On; }

  /// Moves every recorded span out (parents re-indexed into the merged
  /// vector) and starts a fresh recording generation.
  std::vector<Span> take();

private:
  struct Buffer {
    int Thread = 0;
    std::vector<Span> Spans;
    std::vector<int64_t> Open; ///< Stack of open span indices.
  };
  Buffer &local();

  std::mutex Mutex;
  std::vector<std::unique_ptr<Buffer>> Buffers;
  std::atomic<uint64_t> Generation{1};
  std::atomic<bool> Recording{true};
};

/// RAII span on the calling thread.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, int64_t Op)
      : Token(Tracer::instance().begin(Name, Op)) {}
  ~ScopedSpan() { Tracer::instance().end(Token); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int64_t Token;
};

/// Summaries over a merged span vector.
struct SpanIndex {
  explicit SpanIndex(const std::vector<Span> &Spans);

  /// Sum of durations of spans named \p Name, per op (ops without such a
  /// span are absent).
  std::map<int64_t, double> perOp(const std::string &Name) const;

  /// Total seconds of spans named \p Name.
  double total(const std::string &Name) const;

  /// Total self time of spans named \p Name: duration minus the time its
  /// direct children cover.
  double selfTotal(const std::string &Name) const;

  const std::vector<Span> &Spans;
  std::vector<double> ChildSeconds; ///< Per span: direct children's time.
};

/// Writes \p Spans as Chrome trace-event JSON.
void writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
