//===- serve/LiftService.cpp - Persistent lifting service -----------------===//

#include "serve/LiftService.h"

#include "llm/SimulatedLlm.h"
#include "search/WorkerPool.h"

#include <algorithm>
#include <exception>

using namespace stagg;
using namespace stagg::serve;
using search::resolveThreads;

namespace {

OracleFactory defaultFactory() {
  return [](uint64_t Seed) -> std::unique_ptr<llm::CandidateOracle> {
    return std::make_unique<llm::SimulatedLlm>(Seed);
  };
}

} // namespace

LiftService::LiftService(ServiceConfig Config, OracleFactory Factory)
    : Config(std::move(Config)),
      Factory(Factory ? std::move(Factory) : defaultFactory()),
      Queue(this->Config.Config.Serve.QueueDepth),
      Cache(this->Config.Config.Serve.CacheCapacity,
            this->Config.Config.Serve.CacheShards,
            this->Config.Config.Serve.CachePath) {
  int Threads = resolveThreads(this->Config.Threads);
  Pool.reserve(static_cast<size_t>(Threads));
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([this] { workerLoop(); });
}

LiftService::~LiftService() { shutdown(); }

void LiftService::shutdown() {
  if (Stopped.exchange(true))
    return;
  Queue.close();
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
}

std::future<LiftResponse> LiftService::submit(const bench::Benchmark &B) {
  return submit(B, Config.Config);
}

std::future<LiftResponse> LiftService::submit(
    bench::Benchmark B, const core::StaggConfig &Override) {
  LiftRequest Request;
  Request.Query = std::move(B);
  Request.Config = Override;
  Request.Ticket = NextTicket.fetch_add(1);
  std::future<LiftResponse> Reply = Request.Reply.get_future();
  if (!Queue.push(std::move(Request))) {
    // Closed: the request was not moved from, so answer its own promise
    // immediately rather than leaving a dangling future.
    LiftResponse Response;
    Response.Benchmark = Request.Query.Name;
    Response.Category = Request.Query.Category;
    Response.Ticket = Request.Ticket;
    Response.Result.FailReason = "service is shut down";
    Request.Reply.set_value(std::move(Response));
  }
  return Reply;
}

bool LiftService::trySubmit(bench::Benchmark B,
                            const core::StaggConfig &Override,
                            SubmitHooks Hooks,
                            std::future<LiftResponse> &Out) {
  LiftRequest Request;
  Request.Query = std::move(B);
  Request.Config = Override;
  Request.Ticket = NextTicket.fetch_add(1);
  Request.Hooks = std::move(Hooks);
  std::future<LiftResponse> Reply = Request.Reply.get_future();
  if (!Queue.tryPush(std::move(Request)))
    return false;
  Out = std::move(Reply);
  return true;
}

LiftResponse LiftService::lift(const bench::Benchmark &B) {
  return submit(B).get();
}

void LiftService::workerLoop() {
  // The worker's private oracle persists across every request it serves.
  std::unique_ptr<llm::CandidateOracle> Oracle = Factory(Config.OracleSeed);
  LiftRequest Request;
  while (Queue.pop(Request))
    execute(Request, *Oracle);
}

void LiftService::execute(LiftRequest &Request, llm::CandidateOracle &Oracle) {
  const bench::Benchmark &B = Request.Query;
  LiftResponse Response;
  Response.Benchmark = B.Name;
  Response.Category = B.Category;
  Response.Ticket = Request.Ticket;

  // Cap search parallelism: W pool workers each running an S-thread
  // frontier would put W*S threads on the host, so each request gets an
  // equal share of the hardware (at least one). The clamp never changes a
  // result — thread counts are bit-identical by contract, which is also why
  // the cache key ignores them.
  int ThreadBudget =
      std::max(1, resolveThreads(0) / static_cast<int>(Pool.size()));
  Request.Config.Search.Threads =
      std::min(resolveThreads(Request.Config.Search.Threads), ThreadBudget);

  // The key is the normalized kernel text, salted with everything else the
  // result depends on beyond the source text: the benchmark name (the
  // simulated oracle seeds its candidate stream per name), the ground truth
  // (an ingested kernel resubmitted with a different oracle hint must not
  // alias), and the fingerprint of the request's effective configuration
  // (per-request overrides change results). A backend conditioned on the
  // prompt alone could drop the name/truth salts, never the fingerprint.
  std::string Key = B.Name + '\x1f' + ResultCache::keyFor(B.CSource) +
                    '\x1f' + B.GroundTruth + '\x1f' +
                    core::configFingerprint(Request.Config);
  if (Cache.lookup(Key, Response.Result)) {
    Response.CacheHit = true;
    Request.Reply.set_value(std::move(Response));
    if (Request.Hooks.OnSettled)
      Request.Hooks.OnSettled();
    return;
  }

  if (Request.Hooks.Progress)
    Request.Hooks.Progress("searching");
  // A lift that throws (std::bad_alloc under a client-sized budget, say)
  // answers its own request unsolved; it must not take the worker, and
  // with it the whole process, down.
  bool Threw = false;
  try {
    Response.Result = core::liftBenchmark(B, Oracle, Request.Config);
  } catch (const std::exception &E) {
    Response.Result = core::LiftResult();
    Response.Result.FailReason = std::string("internal error: ") + E.what();
    Threw = true;
  }
  if (Request.Hooks.Progress)
    Request.Hooks.Progress("verified");
  // Deterministic failures (parse errors, exhausted search spaces, spent
  // expansion budgets) are cached too — re-lifting identical text can only
  // reproduce them. Wall-clock timeouts and internal errors are NOT: they
  // depend on machine load and memory, and caching one would pin a
  // transient failure for the whole session.
  if (!Threw &&
      (Response.Result.Solved || Response.Result.FailReason != "timeout"))
    Cache.insert(Key, Response.Result);
  Request.Reply.set_value(std::move(Response));
  if (Request.Hooks.OnSettled)
    Request.Hooks.OnSettled();
}
