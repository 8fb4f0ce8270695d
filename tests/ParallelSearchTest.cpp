//===- tests/ParallelSearchTest.cpp - Deterministic parallel frontier -----===//
//
// The hard requirement of search/Frontier.h: for every thread count, the
// accepted candidate, the counters, and the fail reason are bit-identical
// to the serial search. Plus the shutdown guarantees — an exception from a
// probe, a probe factory, the stream or a thread spawn reaches the caller,
// and a returned search has no workers left running.
//
//===----------------------------------------------------------------------===//

#include "search/Frontier.h"

#include "core/Stagg.h"
#include "grammar/DimensionList.h"
#include "llm/SimulatedLlm.h"
#include "search/BottomUp.h"
#include "search/TopDown.h"
#include "search/WorkerPool.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

using namespace stagg;
using namespace stagg::search;

// ThreadSanitizer slows the pipeline by an order of magnitude; the registry
// sweep subsamples there (every lane still covers the frontier mechanics —
// the remaining tests run in full).
#if defined(__SANITIZE_THREAD__)
#define STAGG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STAGG_TSAN 1
#endif
#endif
#ifndef STAGG_TSAN
#define STAGG_TSAN 0
#endif

// AddressSanitizer's shadow memory does not fit under an address-space
// limit, so the thread-spawn failure case skips there (and under TSan).
#if defined(__SANITIZE_ADDRESS__)
#define STAGG_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STAGG_ASAN 1
#endif
#endif
#ifndef STAGG_ASAN
#define STAGG_ASAN 0
#endif

namespace {

grammar::TemplateGrammar makeGrammar(
    std::initializer_list<const char *> Sources, int LhsDim) {
  std::vector<grammar::Templatized> T;
  for (const char *S : Sources) {
    taco::ParseResult R = taco::parseTacoProgram(S);
    EXPECT_TRUE(R.ok()) << S;
    T.push_back(grammar::templatize(*R.Prog));
  }
  T = grammar::dedupTemplates(T);
  return grammar::buildTemplateGrammar(
      T, grammar::predictDimensionList(T, LhsDim), LhsDim,
      grammar::GrammarOptions());
}

/// Ends the test binary if the scope it guards is still running after
/// \p Limit, so a deadlocked frontier fails its case in seconds instead of
/// hanging the suite until the ctest timeout.
class Watchdog {
public:
  Watchdog(const char *What, std::chrono::seconds Limit)
      : Thread([this, What, Limit] {
          std::unique_lock<std::mutex> Lock(Mu);
          if (!Cv.wait_for(Lock, Limit, [this] { return Done; })) {
            std::fprintf(stderr, "watchdog: %s still running after %llds\n",
                         What, static_cast<long long>(Limit.count()));
            std::_Exit(124);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Done = true;
    }
    Cv.notify_all();
    Thread.join();
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread Thread; // last: starts once the members it reads exist
};

/// Yields copies of one template and throws std::bad_alloc on pull number
/// \p ThrowAt — an allocation failure in the middle of enumeration.
class ThrowingStream : public CandidateStream {
public:
  explicit ThrowingStream(int ThrowAt)
      : ThrowAt(ThrowAt),
        Prog(*taco::parseTacoProgram("a(i) = b(i,j) * c(j)").Prog) {}

  bool next(Candidate &Out) override {
    if (++Pulls == ThrowAt)
      throw std::bad_alloc();
    Out.Ticket = static_cast<uint64_t>(Pulls - 1);
    Out.Program = Prog;
    Out.AttemptsAtYield = Pulls;
    Out.ExpansionsAtYield = Pulls;
    return true;
  }
  const std::string &failReason() const override { return Reason; }
  int attempts() const override { return Pulls; }
  int64_t expansions() const override { return Pulls; }
  double seconds() const override { return 0; }

private:
  const int ThrowAt;
  const taco::Program Prog;
  int Pulls = 0;
  std::string Reason;
};

/// A probe factory whose probes share one stateless callback.
TemplateProbeFactory sharedProbe(std::function<bool(const taco::Program &)> F) {
  return [F](int) { return TemplateProbe(F); };
}

core::LiftResult lift(const bench::Benchmark &B, int Threads,
                      core::StaggConfig Config = core::StaggConfig()) {
  Config.Search.Threads = Threads;
  llm::SimulatedLlm Oracle(2024);
  return core::liftBenchmark(B, Oracle, Config);
}

void expectIdentical(const bench::Benchmark &B, const core::LiftResult &Serial,
                     const core::LiftResult &Parallel, int Threads) {
  EXPECT_EQ(Serial.Solved, Parallel.Solved) << B.Name << " t=" << Threads;
  EXPECT_EQ(taco::printProgram(Serial.Concrete),
            taco::printProgram(Parallel.Concrete))
      << B.Name << " t=" << Threads;
  EXPECT_EQ(taco::printProgram(Serial.Template),
            taco::printProgram(Parallel.Template))
      << B.Name << " t=" << Threads;
  EXPECT_EQ(Serial.FailReason, Parallel.FailReason)
      << B.Name << " t=" << Threads;
  EXPECT_EQ(Serial.Attempts, Parallel.Attempts) << B.Name << " t=" << Threads;
  EXPECT_EQ(Serial.Expansions, Parallel.Expansions)
      << B.Name << " t=" << Threads;
  EXPECT_EQ(Serial.Verified, Parallel.Verified) << B.Name << " t=" << Threads;
}

} // namespace

// The headline acceptance criterion: every registry kernel, solved or not,
// produces the same lift at 1 and 4 search threads, top-down and
// bottom-up — expression, fail reason, attempt and expansion counters.
TEST(ParallelSearch, RegistryBitIdentitySweep) {
  const std::vector<bench::Benchmark> &All = bench::allBenchmarks();
  const size_t Stride = STAGG_TSAN ? 5 : 1;
  for (core::SearchKind Kind :
       {core::SearchKind::TopDown, core::SearchKind::BottomUp}) {
    core::StaggConfig Config;
    Config.Kind = Kind;
    for (size_t I = 0; I < All.size(); I += Stride) {
      const bench::Benchmark &B = All[I];
      core::LiftResult Serial = lift(B, 1, Config);
      core::LiftResult Parallel = lift(B, 4, Config);
      expectIdentical(B, Serial, Parallel, 4);
    }
  }
}

// The bottom-up search shares the frontier; spot-check it registry-style.
TEST(ParallelSearch, BottomUpBitIdentity) {
  core::StaggConfig Config;
  Config.Kind = core::SearchKind::BottomUp;
  for (const char *Name :
       {"blas_gemv_ptr", "art_dot", "blas_axpy", "misc_trace", "art_matmul"}) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    core::LiftResult Serial = lift(*B, 1, Config);
    core::LiftResult Parallel = lift(*B, 3, Config);
    expectIdentical(*B, Serial, Parallel, 3);
  }
}

// A worker that finds a solution with a later ticket must keep the frontier
// alive until every earlier ticket resolves — even when the earlier winner
// is the slowest probe in flight.
TEST(ParallelSearch, EarlierTicketWinsDespiteSlowerProbe) {
  grammar::TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"}, 1);
  // Templatization canonicalizes tensor names (LHS "a", RHS "b", "c", ...).
  const std::string A = "a(i) = b(i,j) * c(j)";
  const std::string B = "a(i) = b(j,i) * c(j)";

  SearchConfig Config;
  Config.MaxAttempts = 200;

  // Serial run accepting either template tells us which ticket is earlier.
  SearchResult Serial = runTopDown(G, Config, [&](const taco::Program &P) {
    std::string S = taco::printProgram(P);
    return S == A || S == B;
  });
  ASSERT_TRUE(Serial.Solved);
  const std::string Early = taco::printProgram(Serial.SolvedTemplate);
  EXPECT_EQ(Serial.WinnerWorker, 0);

  // Parallel run where the early winner's probe is the slow one: a later
  // accepting candidate will resolve first and must not be accepted.
  Config.Threads = 4;
  SearchResult Parallel =
      runTopDown(G, Config, sharedProbe([&](const taco::Program &P) {
                   std::string S = taco::printProgram(P);
                   if (S == Early)
                     std::this_thread::sleep_for(std::chrono::milliseconds(80));
                   return S == A || S == B;
                 }));
  ASSERT_TRUE(Parallel.Solved);
  EXPECT_EQ(taco::printProgram(Parallel.SolvedTemplate), Early);
  EXPECT_EQ(Parallel.Attempts, Serial.Attempts);
  EXPECT_EQ(Parallel.Expansions, Serial.Expansions);
  EXPECT_GE(Parallel.ProbesExecuted, Parallel.Attempts);
  EXPECT_GE(Parallel.WinnerWorker, 0);
  EXPECT_LT(Parallel.WinnerWorker, 4);
}

// Skewed probe durations: some workers sit in slow probes while the others
// race ahead through the window — and the result must still be the serial
// one.
TEST(ParallelSearch, SkewedProbesKeepBitIdentity) {
  grammar::TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)",
                   "r(i) = m(i,j) + v(i)", "r(i) = m(i,j) * v(i)"},
                  1);
  SearchConfig Config;
  Config.MaxAttempts = 128;

  SearchResult Serial =
      runTopDown(G, Config, [](const taco::Program &) { return false; });
  EXPECT_EQ(Serial.FailReason, "budget exhausted");

  Config.Threads = 4;
  SearchResult Parallel =
      runTopDown(G, Config, sharedProbe([](const taco::Program &P) {
                   if (std::hash<std::string>()(taco::printProgram(P)) % 3 == 0)
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                   return false;
                 }));
  EXPECT_EQ(Parallel.FailReason, Serial.FailReason);
  EXPECT_EQ(Parallel.Attempts, Serial.Attempts);
  EXPECT_EQ(Parallel.Expansions, Serial.Expansions);
  EXPECT_EQ(Parallel.ProbesExecuted, Serial.Attempts);
}

// A probe exception anywhere in the fleet surfaces to the caller with its
// type intact, after all workers have joined.
TEST(ParallelSearch, ProbeExceptionPropagates) {
  grammar::TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 100;
  Config.Threads = 4;

  auto Probes = std::make_shared<std::atomic<int>>(0);
  EXPECT_THROW(
      runTopDown(G, Config, sharedProbe([Probes](const taco::Program &) -> bool {
                   if (Probes->fetch_add(1) == 4)
                     throw std::runtime_error("validator blew up");
                   return false;
                 })),
      std::runtime_error);

  // The pool is per-search; an immediate rerun must work normally.
  SearchResult R =
      runTopDown(G, Config, sharedProbe([](const taco::Program &) {
                   return false;
                 }));
  EXPECT_EQ(R.FailReason, "budget exhausted");
}

// A stream that throws mid-enumeration stops every worker — including the
// ones parked waiting for a ticket — and the exception keeps its type.
TEST(ParallelSearch, StreamExceptionStopsEveryWorker) {
  Watchdog Guard("StreamExceptionStopsEveryWorker", std::chrono::seconds(10));
  ThrowingStream Stream(51);
  SearchConfig Config;
  Config.Threads = 4;
  EXPECT_THROW(runFrontier(Stream, Config,
                           sharedProbe([](const taco::Program &) {
                             return false;
                           })),
               std::bad_alloc);
}

// A probe factory that throws on worker 0 (the calling thread) stops the
// workers already probing, and the exception keeps its type.
TEST(ParallelSearch, FactoryExceptionStopsEveryWorker) {
  Watchdog Guard("FactoryExceptionStopsEveryWorker", std::chrono::seconds(10));
  grammar::TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"}, 1);
  SearchConfig Config;
  Config.MaxAttempts = 100;
  Config.Threads = 4;
  EXPECT_THROW(runTopDown(G, Config,
                          TemplateProbeFactory([](int W) -> TemplateProbe {
                            if (W == 0)
                              throw std::invalid_argument("no probe");
                            return [](const taco::Program &) { return false; };
                          })),
               std::invalid_argument);
}

// Cancellation (here: a mid-search wall-clock timeout) must leave no
// detached workers: once the search returns, nothing probes anymore.
TEST(ParallelSearch, TimeoutLeavesNoRunningWorkers) {
  grammar::TemplateGrammar G =
      makeGrammar({"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)",
                   "r(i) = m(i,j) + v(i)"},
                  1);
  SearchConfig Config;
  Config.MaxAttempts = 10'000;
  Config.TimeoutSeconds = 0.05;
  Config.Threads = 4;

  auto Probes = std::make_shared<std::atomic<int64_t>>(0);
  SearchResult R =
      runTopDown(G, Config, sharedProbe([Probes](const taco::Program &) {
                   Probes->fetch_add(1);
                   std::this_thread::sleep_for(std::chrono::milliseconds(5));
                   return false;
                 }));
  EXPECT_FALSE(R.Solved);
  EXPECT_EQ(R.FailReason, "timeout");

  int64_t Settled = Probes->load();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(Probes->load(), Settled)
      << "a worker was still probing after the search returned";
}

// WorkerPool itself: every participant runs exactly once, worker 0 on the
// calling thread, and the first exception is rethrown after the join.
TEST(WorkerPool, RunsAllParticipantsAndRethrows) {
  WorkerPool Pool;
  std::vector<std::atomic<int>> Ran(8);
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<bool> ZeroOnCaller{false};
  Pool.run(8, [&](int W) {
    Ran[static_cast<size_t>(W)].fetch_add(1);
    if (W == 0)
      ZeroOnCaller = std::this_thread::get_id() == Caller;
  });
  for (auto &R : Ran)
    EXPECT_EQ(R.load(), 1);
  EXPECT_TRUE(ZeroOnCaller.load());

  EXPECT_THROW(Pool.run(4,
                        [](int W) {
                          if (W == 2)
                            throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

// A thread that cannot be spawned reaches the caller as the spawn error,
// after the threads that did start have been joined — never as
// std::terminate. The child process runs under an address-space limit far
// below 2000 thread stacks.
TEST(WorkerPoolDeathTest, SpawnFailureIsRethrownAfterJoin) {
  if (STAGG_ASAN || STAGG_TSAN)
    GTEST_SKIP() << "sanitizers need more address space than the limit";
  EXPECT_EXIT(
      {
        rlimit Limit;
        Limit.rlim_cur = Limit.rlim_max = rlim_t(2'000'000) * 1024;
        if (setrlimit(RLIMIT_AS, &Limit) != 0)
          std::_Exit(2);
        try {
          WorkerPool().run(2000, [](int) {});
        } catch (const std::system_error &E) {
          std::fprintf(stderr, "spawn error: %s\n", E.what());
          std::_Exit(0);
        }
        std::_Exit(1);
      },
      ::testing::ExitedWithCode(0), "spawn error");
}

TEST(WorkerPool, ResolveThreads) {
  EXPECT_EQ(resolveThreads(3), 3);
  EXPECT_GE(resolveThreads(0), 1);
  EXPECT_GE(resolveThreads(-2), 1);
}
