//===- tests/ServeTest.cpp - Serving-layer behavior -----------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Pins down the serving layer's contracts: the bounded queue's blocking and
// backpressure semantics, LRU eviction and counters in the sharded result
// cache, and, through api::Endpoint, cache-hit determinism (a second lift
// of identical kernel text never reaches the oracle), schedule independence
// under concurrent clients, the journaled key layout, and queued kernels
// that outlive the ingest memo.
//
//===----------------------------------------------------------------------===//

#include "api/Endpoint.h"

#include "llm/SimulatedLlm.h"
#include "serve/RequestQueue.h"
#include "serve/ResultCache.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

using namespace stagg;
using namespace stagg::serve;

namespace {

//===----------------------------------------------------------------------===//
// RequestQueue
//===----------------------------------------------------------------------===//

TEST(RequestQueue, FifoAndSize) {
  RequestQueue<std::string> Q(4);
  EXPECT_EQ(Q.depth(), 4);
  EXPECT_EQ(Q.size(), 0u);

  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(Q.push("item" + std::to_string(I), true));
  EXPECT_EQ(Q.size(), 3u);

  std::string Out;
  for (int I = 0; I < 3; ++I) {
    ASSERT_TRUE(Q.pop(Out));
    EXPECT_EQ(Out, "item" + std::to_string(I));
  }
  EXPECT_EQ(Q.size(), 0u);
}

TEST(RequestQueue, BackpressureNonWaitingPushFailsWhenFull) {
  RequestQueue<std::string> Q(2);
  std::string A = "a";
  std::string C = "c";
  std::string D = "d";
  EXPECT_TRUE(Q.push(std::move(A), false));
  EXPECT_TRUE(Q.push(std::move(C), false));
  // Full: the client feels backpressure, and D is not moved from.
  EXPECT_FALSE(Q.push(std::move(D), false));
  EXPECT_EQ(D, "d");
  EXPECT_EQ(Q.size(), 2u);

  std::string Out;
  ASSERT_TRUE(Q.pop(Out));
  // One slot drained, admission resumes.
  EXPECT_TRUE(Q.push(std::move(D), false));
}

TEST(RequestQueue, PushBlocksUntilDrained) {
  RequestQueue<std::string> Q(1);
  ASSERT_TRUE(Q.push("first", true));

  std::atomic<bool> Admitted{false};
  std::thread Producer([&] {
    Q.push("second", true); // must block: depth 1, queue full
    Admitted = true;
  });

  // The producer cannot finish before a consumer makes room.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Admitted.load());

  std::string Out;
  ASSERT_TRUE(Q.pop(Out));
  Producer.join();
  EXPECT_TRUE(Admitted.load());
  EXPECT_EQ(Q.size(), 1u);
}

TEST(RequestQueue, CloseDrainsThenStops) {
  RequestQueue<std::string> Q(4);
  ASSERT_TRUE(Q.push("pending", true));
  Q.close();
  EXPECT_TRUE(Q.closed());

  std::string Rejected = "rejected";
  EXPECT_FALSE(Q.push(std::move(Rejected), true));

  std::string Out;
  EXPECT_TRUE(Q.pop(Out)); // pending work survives close
  EXPECT_FALSE(Q.pop(Out)); // drained: consumers exit
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

core::LiftResult resultTagged(int Attempts) {
  core::LiftResult R;
  R.Solved = true;
  R.Attempts = Attempts;
  return R;
}

TEST(ResultCache, KeyNormalizesWhitespaceAndComments) {
  std::string A = "void f(int n) { /* copy */\n  y[i] = x[i]; // elementwise\n}";
  std::string B = "void f(int n)   {\n\n y[i]\t= x[i];\n }";
  EXPECT_EQ(ResultCache::keyFor(A), ResultCache::keyFor(B));
  EXPECT_NE(ResultCache::keyFor(A),
            ResultCache::keyFor("void f(int n) { y[i] = z[i]; }"));
  // Normalization must not glue tokens together.
  EXPECT_EQ(normalizeKernelText("int a; /*x*/ int b;"), "int a; int b;");
  // Comment-like sequences and whitespace inside string/char literals are
  // content, not comments: stripping them would alias distinct kernels.
  EXPECT_EQ(normalizeKernelText("f(\"a//b  c\");"), "f(\"a//b  c\");");
  EXPECT_EQ(normalizeKernelText("g(\"/*\", '\\'');"), "g(\"/*\", '\\'');");
  EXPECT_NE(normalizeKernelText("f(\"a//b\"); x = 1;"),
            normalizeKernelText("f(\"a//c\"); x = 1;"));
}

TEST(ResultCache, HitMissAndCounters) {
  ResultCache Cache(8, 2);
  core::LiftResult Out;
  EXPECT_FALSE(Cache.lookup("k1", Out));
  Cache.insert("k1", resultTagged(7));
  ASSERT_TRUE(Cache.lookup("k1", Out));
  EXPECT_EQ(Out.Attempts, 7);

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Insertions, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_DOUBLE_EQ(Stats.hitRate(), 0.5);

  std::string Line = formatCacheStats(Stats);
  EXPECT_NE(Line.find("hits 1"), std::string::npos);
  EXPECT_NE(Line.find("misses 1"), std::string::npos);
}

TEST(ResultCache, LruEvictionPerShard) {
  // One shard makes the LRU order fully observable.
  ResultCache Cache(2, 1);
  Cache.insert("a", resultTagged(1));
  Cache.insert("b", resultTagged(2));

  core::LiftResult Out;
  ASSERT_TRUE(Cache.lookup("a", Out)); // refreshes "a"; "b" is now LRU
  Cache.insert("c", resultTagged(3));  // evicts "b"

  EXPECT_TRUE(Cache.lookup("a", Out));
  EXPECT_FALSE(Cache.lookup("b", Out));
  EXPECT_TRUE(Cache.lookup("c", Out));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache Cache(0, 4);
  Cache.insert("k", resultTagged(1));
  core::LiftResult Out;
  EXPECT_FALSE(Cache.lookup("k", Out));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, ShardsNeverExceedCapacity) {
  // 5 entries over 4 shards: capacity splits 2/1/1/1.
  ResultCache Cache(5, 4);
  EXPECT_EQ(Cache.shardCount(), 4);
  for (int I = 0; I < 64; ++I)
    Cache.insert("key" + std::to_string(I), resultTagged(I));
  EXPECT_LE(Cache.stats().Entries, 5u);
}

//===----------------------------------------------------------------------===//
// ResultCache persistence
//===----------------------------------------------------------------------===//

/// A fresh journal path under the test temp dir; any leftover from a
/// previous run is removed so every test starts cold.
std::string freshJournal(const std::string &Name) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / ("stagg-" + Name + ".jsonl");
  std::filesystem::remove(P);
  return P.string();
}

/// A solved result whose programs genuinely re-parse: journal records for
/// solved lifts carry printed TACO text, and an unparseable program would
/// read back as corruption (truncating the journal on load).
core::LiftResult solvedResult(int Attempts) {
  core::LiftResult R;
  R.Solved = true;
  R.Verified = true;
  taco::ParseResult T = taco::parseTacoProgram("a(i) = b(i,j) * c(j)");
  taco::ParseResult C = taco::parseTacoProgram("a(i) = b(i,j) * c(j)");
  R.Template = std::move(*T.Prog);
  R.Concrete = std::move(*C.Prog);
  R.Attempts = Attempts;
  R.Expansions = 17;
  R.Seconds = 0.25;
  R.SearchSeconds = 0.125;
  R.CheckerSafe = true;
  R.DimList = {8, 8};
  return R;
}

core::LiftResult failedResult(const std::string &Reason) {
  core::LiftResult R;
  R.Solved = false;
  R.FailReason = Reason;
  R.Attempts = 3;
  return R;
}

TEST(ResultCachePersist, LiftResultJsonRoundTrip) {
  core::LiftResult In = solvedResult(9);
  support::Json Encoded = liftResultToJson(In);
  core::LiftResult Out;
  ASSERT_TRUE(liftResultFromJson(Encoded, Out));
  EXPECT_TRUE(Out.Solved);
  EXPECT_TRUE(Out.Verified);
  EXPECT_EQ(taco::printProgram(Out.Template), taco::printProgram(In.Template));
  EXPECT_EQ(taco::printProgram(Out.Concrete), taco::printProgram(In.Concrete));
  EXPECT_EQ(Out.Attempts, 9);
  EXPECT_EQ(Out.Expansions, 17);
  EXPECT_DOUBLE_EQ(Out.Seconds, 0.25);
  EXPECT_DOUBLE_EQ(Out.SearchSeconds, 0.125);
  EXPECT_TRUE(Out.CheckerSafe);
  ASSERT_EQ(Out.DimList.size(), 2u);
  EXPECT_EQ(Out.DimList[0], 8);

  // Failed results round-trip too (no programs on the wire).
  core::LiftResult Fail = failedResult("timeout");
  core::LiftResult FailOut;
  ASSERT_TRUE(liftResultFromJson(liftResultToJson(Fail), FailOut));
  EXPECT_FALSE(FailOut.Solved);
  EXPECT_EQ(FailOut.FailReason, "timeout");
  EXPECT_EQ(FailOut.Attempts, 3);

  // Structurally wrong records are rejected, not misread.
  EXPECT_FALSE(liftResultFromJson(support::Json::str("nope"), Out));
  support::Json Solved = support::Json::object();
  Solved.set("solved", support::Json::boolean(true));
  EXPECT_FALSE(liftResultFromJson(Solved, Out)); // solved but no programs
}

TEST(ResultCachePersist, JournalWarmStartServesPreviousWorkload) {
  std::string Path = freshJournal("warm-start");
  {
    ResultCache Cache(8, 2, Path);
    EXPECT_EQ(Cache.stats().Loaded, 0u); // cold start: nothing persisted yet
    Cache.insert("solved-kernel", solvedResult(5));
    Cache.insert("failed-kernel", failedResult("no candidate"));
  } // destructor closes the journal

  ResultCache Warm(8, 2, Path);
  CacheStats Stats = Warm.stats();
  EXPECT_EQ(Stats.Loaded, 2u);
  EXPECT_EQ(Stats.Entries, 2u);
  // Replayed history is not runtime insertion traffic.
  EXPECT_EQ(Stats.Insertions, 0u);

  core::LiftResult Out;
  ASSERT_TRUE(Warm.lookup("solved-kernel", Out));
  EXPECT_TRUE(Out.Solved);
  EXPECT_EQ(Out.Attempts, 5);
  EXPECT_EQ(taco::printProgram(Out.Concrete),
            taco::printProgram(solvedResult(5).Concrete));
  ASSERT_TRUE(Warm.lookup("failed-kernel", Out));
  EXPECT_FALSE(Out.Solved);
  EXPECT_EQ(Out.FailReason, "no candidate");

  std::string StatsLine = formatCacheStats(Warm.stats());
  EXPECT_NE(StatsLine.find("loaded 2"), std::string::npos);
  std::filesystem::remove(Path);
}

TEST(ResultCachePersist, CorruptJournalTailTruncatesToValidPrefix) {
  std::string Path = freshJournal("corrupt-tail");
  {
    ResultCache Cache(8, 1, Path);
    Cache.insert("good-one", failedResult("a"));
    Cache.insert("good-two", failedResult("b"));
  }
  uintmax_t ValidBytes = std::filesystem::file_size(Path);
  {
    // Simulate a torn write plus trailing garbage after the valid prefix.
    std::ofstream Append(Path, std::ios::app | std::ios::binary);
    Append << "{\"key\":\"half\",\"result\":{\"solved\":tru";
  }
  ASSERT_GT(std::filesystem::file_size(Path), ValidBytes);

  ResultCache Recovered(8, 1, Path);
  EXPECT_EQ(Recovered.stats().Loaded, 2u);
  core::LiftResult Out;
  EXPECT_TRUE(Recovered.lookup("good-one", Out));
  EXPECT_TRUE(Recovered.lookup("good-two", Out));
  EXPECT_FALSE(Recovered.lookup("half", Out));
  // The corrupt tail is gone from disk: the journal is its valid prefix.
  EXPECT_EQ(std::filesystem::file_size(Path), ValidBytes);

  // And the recovered cache keeps accepting write-through inserts.
  Recovered.insert("post-recovery", failedResult("c"));
  ResultCache Again(8, 1, Path);
  EXPECT_EQ(Again.stats().Loaded, 3u);
  std::filesystem::remove(Path);
}

TEST(ResultCachePersist, CompactionDropsDeadHistory) {
  std::string Path = freshJournal("compaction");
  {
    // Tiny cache, many distinct keys: most journal records are dead
    // (evicted) history, so the 2x-live compaction threshold trips.
    ResultCache Cache(4, 1, Path);
    for (int I = 0; I < 80; ++I)
      Cache.insert("key" + std::to_string(I), failedResult("r"));
    EXPECT_GE(Cache.stats().Compactions, 1u);
  }

  // Compaction cut the journal to the live set (4) at the trigger point;
  // only post-compaction appends follow it. 80 records went in, far fewer
  // survive, and replaying them rebuilds exactly the final LRU state.
  ResultCache Warm(4, 1, Path);
  EXPECT_LE(Warm.stats().Loaded, 20u);
  EXPECT_EQ(Warm.stats().Entries, 4u);
  core::LiftResult Out;
  EXPECT_TRUE(Warm.lookup("key79", Out)); // the most recent entry survived
  EXPECT_FALSE(Warm.lookup("key0", Out)); // dead history stayed dead
  std::filesystem::remove(Path);
}

TEST(ResultCachePersist, RefreshDoesNotRejournal) {
  std::string Path = freshJournal("refresh");
  {
    ResultCache Cache(8, 1, Path);
    Cache.insert("dup", failedResult("first"));
    Cache.insert("dup", failedResult("second")); // refresh, not insert
    Cache.insert("dup", failedResult("third"));
  }
  std::ifstream In(Path);
  std::string Line;
  int Records = 0;
  while (std::getline(In, Line))
    ++Records;
  EXPECT_EQ(Records, 1);

  // The journaled (first) result is what a restart serves: refreshes do not
  // write through, by design — the first result is authoritative because
  // identical kernel text always lifts identically.
  ResultCache Warm(8, 1, Path);
  core::LiftResult Out;
  ASSERT_TRUE(Warm.lookup("dup", Out));
  EXPECT_EQ(Out.FailReason, "first");
  std::filesystem::remove(Path);
}

TEST(ResultCachePersist, EmptyJournalPathStaysInMemory) {
  ResultCache Cache(8, 2); // no path: the default in-memory configuration
  Cache.insert("k", failedResult("x"));
  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Loaded, 0u);
  EXPECT_EQ(Stats.Compactions, 0u);
  // The stats line omits persistence counters entirely for memory caches.
  EXPECT_EQ(formatCacheStats(Stats).find("loaded"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// api::Endpoint — queue, workers and result cache
//===----------------------------------------------------------------------===//

/// Counts propose() calls through to a SimulatedLlm.
class CountingOracle : public llm::CandidateOracle {
public:
  CountingOracle(uint64_t Seed, std::shared_ptr<std::atomic<uint64_t>> Calls)
      : Inner(Seed), Calls(std::move(Calls)) {}

  std::vector<std::string> propose(const llm::OracleTask &Task) override {
    Calls->fetch_add(1);
    return Inner.propose(Task);
  }

private:
  llm::SimulatedLlm Inner;
  std::shared_ptr<std::atomic<uint64_t>> Calls;
};

ServiceConfig miniService(int Threads) {
  ServiceConfig Config;
  Config.Threads = Threads;
  Config.OracleSeed = 20250411;
  // Artificial kernels lift in milliseconds; the budget is generous so no
  // lift ever times out even on a loaded or sanitized CI machine — timeout
  // results are deliberately uncacheable, which would break the cache-hit
  // assertions below.
  Config.Config.Search.TimeoutSeconds = 30;
  return Config;
}

/// A factory whose oracles share one propose() counter.
OracleFactory countingFactory(std::shared_ptr<std::atomic<uint64_t>> Calls) {
  return [Calls](uint64_t Seed) -> std::unique_ptr<llm::CandidateOracle> {
    return std::make_unique<CountingOracle>(Seed, Calls);
  };
}

api::LiftRequest byName(const std::string &Name) {
  api::LiftRequest Request;
  Request.RegistryName = Name;
  return Request;
}

/// Lifts registry kernel \p B through the endpoint's one admission
/// function, waiting for queue room, then for its Done.
api::LiftResponse liftAndWait(api::Endpoint &Service,
                              const bench::Benchmark &B) {
  api::LiftResponse Response = Service.lift(byName(B.Name));
  EXPECT_TRUE(Response.ok()) << Response.Error;
  return Response;
}

TEST(Endpoint, CacheHitSkipsTheOracle) {
  const bench::Benchmark &B = bench::allBenchmarks().front();
  auto Calls = std::make_shared<std::atomic<uint64_t>>(0);
  api::Endpoint Service(miniService(2), countingFactory(Calls));

  api::LiftResponse First = liftAndWait(Service, B);
  EXPECT_FALSE(First.CacheHit);
  // Precondition for everything below: a timed-out result would not have
  // been cached.
  ASSERT_NE(First.Result.FailReason, "timeout");
  uint64_t AfterFirst = Calls->load();
  EXPECT_GE(AfterFirst, 1u);

  // Identical kernel text: answered from the cache, no oracle traffic.
  api::LiftResponse Second = liftAndWait(Service, B);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Calls->load(), AfterFirst);

  EXPECT_EQ(First.Result.Solved, Second.Result.Solved);
  EXPECT_EQ(First.Result.Attempts, Second.Result.Attempts);
  EXPECT_EQ(taco::printProgram(First.Result.Concrete),
            taco::printProgram(Second.Result.Concrete));

  CacheStats Stats = Service.cacheStats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(Endpoint, DisabledCacheAlwaysRunsThePipeline) {
  const bench::Benchmark &B = bench::allBenchmarks().front();
  auto Calls = std::make_shared<std::atomic<uint64_t>>(0);
  ServiceConfig Config = miniService(1);
  Config.Config.Serve.CacheCapacity = 0;
  api::Endpoint Service(Config, countingFactory(Calls));

  liftAndWait(Service, B);
  uint64_t AfterFirst = Calls->load();
  api::LiftResponse Second = liftAndWait(Service, B);
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_GT(Calls->load(), AfterFirst);
}

TEST(Endpoint, ConcurrentClientsScheduleIndependence) {
  // Three client threads hammer one endpoint with interleaved, repeating
  // requests over a deliberately tiny queue; every response must equal the
  // sequential reference regardless of worker/queue scheduling.
  std::vector<const bench::Benchmark *> Suite;
  for (const bench::Benchmark &B : bench::allBenchmarks())
    if (B.Category == "artificial")
      Suite.push_back(&B);
  size_t Take = 4;
  ASSERT_GE(Suite.size(), Take);
  Suite.resize(Take);

  std::vector<api::LiftResponse> Reference;
  {
    api::Endpoint Sequential(miniService(1));
    for (const bench::Benchmark *B : Suite)
      Reference.push_back(liftAndWait(Sequential, *B));
  }

  ServiceConfig Config = miniService(3);
  Config.Config.Serve.QueueDepth = 2; // force backpressure on the clients
  api::Endpoint Service(Config);

  const int Clients = 3;
  const int Rounds = 3;
  std::vector<std::vector<api::LiftResponse>> PerClient(Clients);
  std::vector<std::thread> Pool;
  for (int C = 0; C < Clients; ++C)
    Pool.emplace_back([&, C] {
      for (int R = 0; R < Rounds; ++R)
        for (size_t I = 0; I < Suite.size(); ++I) {
          // Stagger the order per client so schedules genuinely differ.
          size_t Pick = (I + static_cast<size_t>(C + R)) % Suite.size();
          PerClient[static_cast<size_t>(C)].push_back(
              liftAndWait(Service, *Suite[Pick]));
        }
    });
  for (std::thread &T : Pool)
    T.join();

  for (int C = 0; C < Clients; ++C)
    for (const api::LiftResponse &Got : PerClient[static_cast<size_t>(C)]) {
      size_t Index = 0;
      while (Index < Suite.size() && Suite[Index]->Name != Got.Name)
        ++Index;
      ASSERT_LT(Index, Suite.size()) << Got.Name;
      const api::LiftResponse &Want = Reference[Index];
      EXPECT_EQ(Got.Result.Solved, Want.Result.Solved) << Got.Name;
      EXPECT_EQ(Got.Result.Attempts, Want.Result.Attempts) << Got.Name;
      EXPECT_EQ(taco::printProgram(Got.Result.Concrete),
                taco::printProgram(Want.Result.Concrete))
          << Got.Name;
    }

  // 3 clients x 3 rounds x 4 kernels = 36 requests over 4 distinct kernels.
  CacheStats Stats = Service.cacheStats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, 36u);
  // Worst case every kernel misses once per in-flight worker (3), so at
  // least 36 - 4*3 hits; typically it is 32 of 36.
  EXPECT_GE(Stats.Hits, 24u);
}

/// Throws std::bad_alloc from propose() for one kernel — a stand-in for an
/// allocation that fails mid-lift — and counts every call.
class ThrowingOracle : public llm::CandidateOracle {
public:
  ThrowingOracle(uint64_t Seed, std::string Victim,
                 std::shared_ptr<std::atomic<uint64_t>> Calls)
      : Inner(Seed), Victim(std::move(Victim)), Calls(std::move(Calls)) {}

  std::vector<std::string> propose(const llm::OracleTask &Task) override {
    Calls->fetch_add(1);
    if (Task.Query->Name == Victim)
      throw std::bad_alloc();
    return Inner.propose(Task);
  }

private:
  llm::SimulatedLlm Inner;
  std::string Victim;
  std::shared_ptr<std::atomic<uint64_t>> Calls;
};

TEST(Endpoint, ThrowingLiftIsAnsweredAndNeverCached) {
  const bench::Benchmark *Victim = bench::findBenchmark("art_copy");
  const bench::Benchmark *Next = bench::findBenchmark("art_add");
  ASSERT_NE(Victim, nullptr);
  ASSERT_NE(Next, nullptr);
  auto Calls = std::make_shared<std::atomic<uint64_t>>(0);
  api::Endpoint Service(
      miniService(1),
      [Calls](uint64_t Seed) -> std::unique_ptr<llm::CandidateOracle> {
        return std::make_unique<ThrowingOracle>(Seed, "art_copy", Calls);
      });

  // The throwing request is answered, unsolved, and still settles.
  std::atomic<bool> Settled{false};
  std::promise<api::LiftResponse> Reply;
  std::future<api::LiftResponse> Answer = Reply.get_future();
  ASSERT_EQ(Service.trySubmit(
                byName(Victim->Name), {},
                [&](api::LiftResponse &&R) {
                  Reply.set_value(std::move(R));
                  Settled = true;
                },
                /*Wait=*/false),
            api::Admission::Queued);
  api::LiftResponse Failed = Answer.get();
  EXPECT_FALSE(Failed.Result.Solved);
  EXPECT_FALSE(Failed.CacheHit);
  EXPECT_EQ(Failed.Result.FailReason.find("internal error: "), 0u)
      << Failed.Result.FailReason;

  // The worker survives and lifts the next kernel normally. One worker
  // runs requests in order, so the first one has settled by now.
  api::LiftResponse Ok = liftAndWait(Service, *Next);
  EXPECT_TRUE(Ok.Result.Solved) << Ok.Result.FailReason;
  EXPECT_TRUE(Settled.load());

  // The failure was not cached: resubmitting re-runs the pipeline.
  uint64_t Before = Calls->load();
  api::LiftResponse Again = liftAndWait(Service, *Victim);
  EXPECT_FALSE(Again.CacheHit);
  EXPECT_GT(Calls->load(), Before);
  EXPECT_EQ(Service.cacheStats().Insertions, 1u);
}

TEST(Endpoint, SubmitAfterShutdownFailsFast) {
  const bench::Benchmark &B = bench::allBenchmarks().front();
  api::Endpoint Service(miniService(1));
  Service.shutdown();
  api::LiftResponse Response = liftAndWait(Service, B);
  EXPECT_FALSE(Response.Result.Solved);
  EXPECT_NE(Response.Result.FailReason.find("shut down"), std::string::npos);
}

TEST(Endpoint, JournalKeyLayoutIsPinned) {
  // The result-cache key, read back from the journal a lift writes
  // through: name, normalized kernel text, ground truth and configuration
  // fingerprint, joined by 0x1f. A journal only warm-starts a build that
  // spells its keys the same way.
  const bench::Benchmark *B = bench::findBenchmark("art_copy");
  ASSERT_NE(B, nullptr);
  std::string Path = freshJournal("endpoint-key");
  ServiceConfig Config = miniService(1);
  Config.Config.Serve.CachePath = Path;
  std::string Want;
  {
    api::Endpoint Service(Config);
    Want = B->Name + '\x1f' + ResultCache::keyFor(B->CSource) + '\x1f' +
           B->GroundTruth + '\x1f' +
           core::configFingerprint(Service.baseConfig());
    ASSERT_FALSE(liftAndWait(Service, *B).CacheHit);
  }
  std::ifstream In(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  support::JsonParseResult Record = support::parseJson(Line);
  ASSERT_TRUE(Record.ok()) << Line;
  const support::Json *Key = Record.Value.find("key");
  ASSERT_NE(Key, nullptr) << Line;
  EXPECT_EQ(Key->asString(), Want);
  EXPECT_FALSE(std::getline(In, Line)); // one lift, one record
  std::filesystem::remove(Path);
}

/// Blocks propose() for one kernel until the gate opens: a lift pinned on
/// its worker for as long as the test wants.
class GatedOracle : public llm::CandidateOracle {
public:
  GatedOracle(uint64_t Seed, std::shared_future<void> Gate, std::string Only)
      : Inner(Seed), Gate(std::move(Gate)), Only(std::move(Only)) {}

  std::vector<std::string> propose(const llm::OracleTask &Task) override {
    if (Task.Query->Name == Only)
      Gate.wait();
    return Inner.propose(Task);
  }

private:
  llm::SimulatedLlm Inner;
  std::shared_future<void> Gate;
  std::string Only;
};

TEST(Endpoint, QueuedInlineKernelSurvivesIngestMemoClear) {
  // A queued lift holds its ingested kernel by shared pointer into the
  // ingest memo; the memo's wholesale clear on overflow must not free it.
  std::promise<void> Open;
  std::shared_future<void> Gate = Open.get_future().share();
  ServiceConfig Config = miniService(1);
  Config.Config.Serve.QueueDepth = 1;
  api::Endpoint Service(
      Config, [Gate](uint64_t Seed) -> std::unique_ptr<llm::CandidateOracle> {
        return std::make_unique<GatedOracle>(Seed, Gate, "art_copy");
      });
  // Opens the gate on every exit path: the destructor joins the worker.
  std::shared_ptr<void> OpenOnExit(nullptr, [&](void *) { Open.set_value(); });

  // The single worker takes art_copy and blocks in the oracle. The inline
  // kernel waits for, then takes, the one queue slot.
  std::future<api::LiftResponse> Held = Service.submit(byName("art_copy"));
  api::LiftRequest Inline;
  Inline.KernelSource =
      "void kernel(int N, float* a, float* b, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    out[i] = a[i] * b[i] + a[i];"
      "}";
  Inline.Name = "queued_kernel";
  std::future<api::LiftResponse> Queued = Service.submit(Inline);
  ASSERT_EQ(Service.queueLength(), 1u);

  // 256 more distinct inline kernels overflow the 256-entry memo, which
  // clears wholesale. Each is ingested, then refused: the queue is full.
  for (int I = 0; I < 256; ++I) {
    api::LiftRequest Other = Inline;
    Other.Name = "overflow_" + std::to_string(I);
    ASSERT_EQ(Service.trySubmit(
                  Other, {},
                  [](api::LiftResponse &&) { ADD_FAILURE() << "settled"; },
                  /*Wait=*/false),
              api::Admission::QueueFull);
  }

  OpenOnExit.reset();
  EXPECT_TRUE(Held.get().Result.Solved);
  api::LiftResponse Response = Queued.get();
  ASSERT_TRUE(Response.ok()) << Response.Error;
  EXPECT_EQ(Response.Name, "queued_kernel");
  EXPECT_EQ(Response.Category, "inline");
  EXPECT_TRUE(Response.Result.Solved) << Response.Result.FailReason;
  EXPECT_TRUE(Response.Result.Verified);
}

} // namespace
