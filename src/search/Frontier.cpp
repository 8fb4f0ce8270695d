//===- search/Frontier.cpp - Deterministic parallel frontier --------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
//
// Executor layout: workers pull. A worker takes the next ticket straight
// from the CandidateStream — one puller at a time, outside the bookkeeping
// mutex, so enumeration overlaps the other workers' probes — probes it, and
// resolves it under the mutex. Nobody pulls while a success is in hand or
// while the lookahead window past the oldest unresolved ticket is full; the
// window caps how far probing may overshoot the serial accept point. Tickets
// leave the stream in serial order and every ticket below a success is
// probed, so once the workers run out of work the lowest successful ticket
// is precisely the candidate the serial loop would accept, with the serial
// counters stamped on it at enumeration time.
//
// Wall-clock timeouts come from the stream's own per-pop check, as in the
// serial loop. Probes already in flight when the stream times out still
// finish and count: a found candidate is never thrown away.
//
// Any exception — from the probe factory, the stream or a probe — stops
// every worker, and the first one is rethrown on the caller after the join.
//
//===----------------------------------------------------------------------===//

#include "search/Frontier.h"

#include "search/WorkerPool.h"

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <set>
#include <utility>

namespace stagg {
namespace search {

CandidateStream::~CandidateStream() = default;

namespace {

constexpr uint64_t NoTicket = std::numeric_limits<uint64_t>::max();

class Frontier {
public:
  Frontier(CandidateStream &Stream, const TemplateProbeFactory &Factory,
           int Workers)
      : Stream(Stream), Factory(Factory), Workers(Workers),
        Window(Workers * 8 < 16 ? 16 : Workers * 8) {}

  SearchResult run() {
    WorkerPool Pool;
    Pool.run(Workers, [this](int W) { workerBody(W); });
    if (Error)
      std::rethrow_exception(Error);

    SearchResult R;
    R.Seconds = Stream.seconds();
    R.ProbesExecuted = Probes;
    if (BestTicket != NoTicket) {
      R.Solved = true;
      R.SolvedTemplate = std::move(Best.Program);
      R.Attempts = Best.AttemptsAtYield;
      R.Expansions = Best.ExpansionsAtYield;
      R.WinnerWorker = BestWorker;
    } else {
      // Unsolved workers only stop once the stream has ended.
      R.FailReason = Stream.failReason();
      R.Attempts = Stream.attempts();
      R.Expansions = Stream.expansions();
    }
    return R;
  }

private:
  void workerBody(int W) {
    try {
      TemplateProbe Probe = Factory(W);
      Candidate C;
      while (pull(C)) {
        bool Ok = Probe(C.Program);
        std::lock_guard<std::mutex> Lock(Mu);
        ++Probes;
        resolveLocked(C.Ticket);
        if (Ok && C.Ticket < BestTicket) {
          BestTicket = C.Ticket;
          Best = std::move(C);
          BestWorker = W;
        }
        Cv.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Error)
        Error = std::current_exception();
      Cv.notify_all();
    }
  }

  /// Waits for this worker's turn, then takes the next ticket from the
  /// stream. False once the worker has nothing left to do.
  bool pull(Candidate &C) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] {
        return doneLocked() || (!Pulling && Issued - ResolvedPrefix < Window);
      });
      if (doneLocked())
        return false;
      Pulling = true;
    }
    bool More = Stream.next(C);
    std::lock_guard<std::mutex> Lock(Mu);
    Pulling = false;
    Terminal = !More;
    if (More)
      ++Issued;
    Cv.notify_all();
    // A success or an error may have landed while this worker pulled; the
    // new ticket is then above any ticket that can still win.
    return !doneLocked();
  }

  /// No more pulls: the stream ended, a worker failed, or a success is in
  /// hand (every ticket that could beat it is already out). Caller holds Mu.
  bool doneLocked() const {
    return Terminal || Error || BestTicket != NoTicket;
  }

  /// Marks \p Ticket resolved and advances the resolved prefix, freeing
  /// window space. Caller holds Mu.
  void resolveLocked(uint64_t Ticket) {
    if (Ticket != ResolvedPrefix) {
      ResolvedAbove.insert(Ticket);
      return;
    }
    ++ResolvedPrefix;
    auto It = ResolvedAbove.begin();
    while (It != ResolvedAbove.end() && *It == ResolvedPrefix) {
      ++ResolvedPrefix;
      It = ResolvedAbove.erase(It);
    }
  }

  CandidateStream &Stream;
  const TemplateProbeFactory &Factory;
  const int Workers;
  const uint64_t Window;

  std::mutex Mu;
  std::condition_variable Cv;
  bool Pulling = false;
  bool Terminal = false;
  uint64_t Issued = 0;
  uint64_t ResolvedPrefix = 0;
  std::set<uint64_t> ResolvedAbove;
  uint64_t BestTicket = NoTicket;
  Candidate Best;
  int BestWorker = -1;
  int64_t Probes = 0;
  std::exception_ptr Error;
};

SearchResult driveSerial(CandidateStream &Stream,
                         const TemplateProbeFactory &Factory) {
  SearchResult R;
  TemplateProbe Probe = Factory(0);
  Candidate C;
  while (Stream.next(C)) {
    ++R.ProbesExecuted;
    if (Probe(C.Program)) {
      R.Solved = true;
      R.SolvedTemplate = std::move(C.Program);
      R.Attempts = C.AttemptsAtYield;
      R.Expansions = C.ExpansionsAtYield;
      R.WinnerWorker = 0;
      break;
    }
  }
  if (!R.Solved) {
    R.FailReason = Stream.failReason();
    R.Attempts = Stream.attempts();
    R.Expansions = Stream.expansions();
  }
  R.Seconds = Stream.seconds();
  return R;
}

} // namespace

SearchResult runFrontier(CandidateStream &Stream, const SearchConfig &Config,
                         const TemplateProbeFactory &Factory) {
  int Workers = resolveThreads(Config.Threads);
  if (Workers == 1)
    return driveSerial(Stream, Factory);
  Frontier F(Stream, Factory, Workers);
  return F.run();
}

} // namespace search
} // namespace stagg
