//===- perfbench/src/ServeWorkloads.cpp - serve-ingest and serve-execute --===//
//
// Both workloads drive a live `stagg serve --listen` over two closed-loop
// TCP connections for a fixed number of ops. Their traced replays rerun the
// same request stream in-process: once against an api::Endpoint configured
// like the server (the transport-free baseline), and once rebuilt from the
// public calls the service makes, under spans.
//
//===----------------------------------------------------------------------===//

#include "Kernels.h"
#include "Reconstruct.h"
#include "ServeClient.h"
#include "Trace.h"
#include "Workloads.h"

#include "api/Endpoint.h"
#include "api/KernelIngest.h"
#include "api/Protocol.h"
#include "llm/SimulatedLlm.h"
#include "serve/ResultCache.h"
#include "support/Json.h"
#include "taco/Printer.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include <cstdio>
#include <iostream>
#include <memory>

using namespace stagg;
using namespace perfbench;
using support::Json;

namespace {

/// Timed ops per second of --seconds, per workload. The count is fixed per
/// run (calibrated so the timed loop takes about 80% of --seconds on a
/// 4-core 2.1 GHz Xeon VM) and rounded up to whole cycles over the
/// workload's request set, so every seed sends each kernel (or execute
/// case) equally often.
constexpr double IngestOpsPerSecond = 330;
constexpr double ExecuteOpsPerSecond = 260;

/// Ops of each serve replay in a traced run. The ingest count exceeds the
/// result cache's 1024 entries, so eviction shows in its counters.
constexpr size_t TracedIngestOps = 1200;
constexpr size_t TracedExecuteOps = 600;

/// Server spawns per run; setup_s is their median.
constexpr int SetupRepeats = 5;

size_t wholeCycles(size_t Ops, size_t Cycle) {
  return (Ops + Cycle - 1) / Cycle * Cycle;
}

size_t timedOps(double PerSecond, const Options &Opts) {
  return std::max<size_t>(1000,
                          static_cast<size_t>(PerSecond * Opts.Seconds));
}

std::vector<std::string> serverArgs(const std::string &CacheFile) {
  return {"serve",        "--listen", "127.0.0.1:0", "--cache-file",
          CacheFile,      "--threads", std::to_string(ServeClients)};
}

std::string serverFlags() {
  std::string Flags;
  for (const std::string &A : serverArgs("<fresh file>"))
    Flags += (Flags.empty() ? "" : " ") + A;
  return Flags;
}

/// The in-process twin of the server: same pipeline config, worker count,
/// oracle seed and cache shape, with its own journal.
serve::ServiceConfig serviceConfig(const std::string &CacheFile) {
  serve::ServiceConfig S;
  S.Config = benchConfig();
  S.Config.Serve.CachePath = CacheFile;
  S.Threads = ServeClients;
  S.OracleSeed = OracleSeed;
  return S;
}

std::string freshFile(const Options &Opts, const std::string &Name) {
  std::string Path = Opts.WorkDir + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// A live server plus one connection per client.
struct LiveServer {
  std::unique_ptr<ServerProcess> Server;
  std::vector<std::unique_ptr<Connection>> Conns;

  LiveServer(const Options &Opts, const std::string &CacheFile) {
    Server = std::make_unique<ServerProcess>(Opts.StaggBin,
                                             serverArgs(CacheFile));
    for (int C = 0; C < ServeClients; ++C)
      Conns.push_back(std::make_unique<Connection>(Server->port()));
  }

  void stop() {
    Conns.clear();
    Server->stop();
  }
};

/// The end-of-run `stats` frame.
Json statsFrame(Connection &Conn) {
  Conn.send("{\"v\":2,\"stats\":true}");
  support::JsonParseResult P = support::parseJson(Conn.readLine());
  if (!P.Ok)
    throw FatalError{"unparseable stats frame"};
  return P.Value;
}

double member(const Json &Obj, const char *Section, const char *Key) {
  const Json *S = Obj.find(Section);
  const Json *V = S ? S->find(Key) : nullptr;
  if (!V || !V->isNumber())
    throw FatalError{std::string("stats frame lacks ") + Section + "." + Key};
  return V->asNumber();
}

void reportErrors(const char *Phase, const LoopResult &L) {
  for (const std::string &E : L.Errors)
    std::cerr << "perfbench: " << Phase << ": " << E << "\n";
}

/// Throws when a setup-phase loop had any failure: a run whose priming
/// failed measures nothing.
void requireClean(const char *Phase, const LoopResult &L) {
  reportErrors(Phase, L);
  if (L.Failed)
    throw FatalError{std::string(Phase) + " had " +
                     std::to_string(L.Failed) + " failed ops"};
}

double spanMedian(const SpanIndex &Index, const char *Name, double Scale) {
  std::vector<double> V;
  for (const auto &[Op, Sec] : Index.perOp(Name))
    V.push_back(Sec * Scale);
  return median(V);
}

//===----------------------------------------------------------------------===//
// serve-ingest
//===----------------------------------------------------------------------===//

/// Compares a lift response object with the kernel's expected sweep row.
std::string checkLiftJson(const Json &Resp, const ExpectedRow &Want) {
  const Json *Status = Resp.find("status");
  if (!Status || Status->asString() != "ok")
    return "status " + (Status ? Status->asString() : "missing") + ": " +
           Resp.dump().substr(0, 300);
  const Json *Solved = Resp.find("solved");
  const Json *Attempts = Resp.find("attempts");
  const Json *Expansions = Resp.find("expansions");
  const Json *Detail = Resp.find(Want.Solved ? "expr" : "fail_reason");
  if (!Solved || !Attempts || !Expansions || !Detail)
    return "incomplete response: " + Resp.dump().substr(0, 300);
  if (Solved->asBool() != Want.Solved ||
      Attempts->asInteger() != Want.Attempts ||
      Expansions->asInteger() != Want.Expansions ||
      Detail->asString() != Want.Detail)
    return "got (" + std::to_string(Solved->asBool()) + ", " +
           std::to_string(Attempts->asInteger()) + ", " +
           std::to_string(Expansions->asInteger()) + ", " +
           Detail->asString() + "), expected (" + std::to_string(Want.Solved) +
           ", " + std::to_string(Want.Attempts) + ", " +
           std::to_string(Want.Expansions) + ", " + Want.Detail + ")";
  return "";
}

std::string checkIngestEvents(const std::vector<std::string> &Lines,
                              const ExpectedRow &Want) {
  for (const std::string &L : Lines) {
    if (L.find("\"event\":\"response\"") == std::string::npos)
      continue;
    support::JsonParseResult P = support::parseJson(L);
    const Json *Resp = P.Ok ? P.Value.find("response") : nullptr;
    if (!Resp)
      return "unparseable response event";
    return checkLiftJson(*Resp, Want);
  }
  return "no response event";
}

struct IngestInputs {
  std::map<std::string, ExpectedRow> Expected;
  std::vector<const bench::Benchmark *> Pool;
  /// One warm-up stream per setup (every pool kernel once).
  std::vector<std::vector<IngestRequest>> Warm;
  std::vector<std::vector<std::string>> WarmFrames;
  std::vector<IngestRequest> Timed;
  std::vector<std::string> TimedFrames;
};

IngestInputs ingestInputs(const Options &Opts, size_t TimedCount) {
  IngestInputs In;
  In.Expected = loadExpectedSweep(Opts.RepoRoot + "/tests/expected_sweep.csv");
  In.Pool = ingestPool(In.Expected);
  auto Frames = [](const std::vector<IngestRequest> &Requests) {
    std::vector<std::string> Out;
    for (size_t I = 0; I < Requests.size(); ++I)
      Out.push_back(ingestFrame(Requests[I], static_cast<int64_t>(I)));
    return Out;
  };
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    In.Warm.push_back(ingestStream(In.Pool, In.Pool.size(), Opts.Seed + Rep,
                                   "w" + std::to_string(Rep) + "x"));
    In.WarmFrames.push_back(Frames(In.Warm.back()));
  }
  In.Timed = ingestStream(In.Pool, wholeCycles(TimedCount, In.Pool.size()),
                          Opts.Seed * 7919 + 1, "t");
  In.TimedFrames = Frames(In.Timed);
  return In;
}

/// Runs \p Frames over the live server's connections; checks every answer
/// against the expected row of its request's kernel.
LoopResult ingestLoop(LiveServer &Live, const IngestInputs &In,
                      const std::vector<IngestRequest> &Requests,
                      const std::vector<std::string> &Frames) {
  return runClosedLoop(
      ServeClients, Frames.size(), [&](int C, size_t Op) {
        OpOutcome Out;
        Connection &Conn = *Live.Conns[static_cast<size_t>(C)];
        Clock::time_point T0 = Clock::now();
        Conn.send(Frames[Op]);
        std::vector<std::string> Lines = readFrameEvents(Conn, false);
        Out.Seconds = secondsSince(T0);
        Out.Error = checkIngestEvents(
            Lines, In.Expected.at(Requests[Op].Kernel->Name));
        return Out;
      });
}

/// Spawns the server and warms every pool kernel once; returns the server
/// ready for timed ops and the median setup time.
std::unique_ptr<LiveServer> setUpIngestServer(const Options &Opts,
                                              const IngestInputs &In,
                                              double &SetupS) {
  std::vector<double> Setups;
  std::unique_ptr<LiveServer> Live;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Live)
      Live->stop();
    std::string Cache = freshFile(Opts, "ingest-cache.jsonl");
    Clock::time_point Start = Clock::now();
    Live = std::make_unique<LiveServer>(Opts, Cache);
    LoopResult Warm =
        ingestLoop(*Live, In, In.Warm[Rep], In.WarmFrames[Rep]);
    requireClean("serve-ingest warm-up", Warm);
    Setups.push_back(secondsSince(Start));
  }
  SetupS = median(Setups);
  return Live;
}

//===----------------------------------------------------------------------===//
// serve-execute
//===----------------------------------------------------------------------===//

struct ExecuteInputs {
  std::vector<ExecuteCase> Cases;
  std::vector<size_t> Timed; ///< Case index of each timed op.
  std::vector<std::string> TimedFrames;
  std::vector<std::string> PrimeFrames; ///< Every case once.
};

ExecuteInputs executeInputs(const Options &Opts, size_t TimedCount) {
  ExecuteInputs In;
  In.Cases = executeCases(Opts.Seed);
  const size_t N = In.Cases.size();
  for (size_t I = 0; I < N; ++I)
    In.PrimeFrames.push_back(executeFrame(In.Cases[I], static_cast<int64_t>(I)));
  std::vector<size_t> Order;
  for (size_t I = 0; I < wholeCycles(TimedCount, N); ++I) {
    if (I % N == 0)
      Order = seededPermutation(N, Opts.Seed * 31 + I);
    In.Timed.push_back(Order[I % N]);
    In.TimedFrames.push_back(
        executeFrame(In.Cases[In.Timed.back()], static_cast<int64_t>(I)));
  }
  return In;
}

LoopResult executeLoop(LiveServer &Live, const std::vector<ExecuteCase> &Cases,
                       const std::vector<std::string> &Frames,
                       const std::vector<size_t> *CaseOf,
                       std::vector<int64_t> *Bytes = nullptr) {
  return runClosedLoop(
      ServeClients, Frames.size(), [&](int C, size_t Op) {
        OpOutcome Out;
        Connection &Conn = *Live.Conns[static_cast<size_t>(C)];
        Clock::time_point T0 = Clock::now();
        Conn.send(Frames[Op]);
        std::vector<std::string> Lines = readFrameEvents(Conn, true);
        Out.Seconds = secondsSince(T0);
        const ExecuteCase &Case = Cases[CaseOf ? (*CaseOf)[Op] : Op];
        Out.Error = checkExecuteResult(Lines.back(), Case);
        if (Bytes)
          (*Bytes)[Op] = static_cast<int64_t>(Frames[Op].size() +
                                              Lines.back().size() + 2);
        return Out;
      });
}

std::unique_ptr<LiveServer> setUpExecuteServer(const Options &Opts,
                                               const ExecuteInputs &In,
                                               double &SetupS) {
  std::vector<double> Setups;
  std::unique_ptr<LiveServer> Live;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Live)
      Live->stop();
    std::string Cache = freshFile(Opts, "execute-cache.jsonl");
    Clock::time_point Start = Clock::now();
    Live = std::make_unique<LiveServer>(Opts, Cache);
    LoopResult Prime = executeLoop(*Live, In.Cases, In.PrimeFrames, nullptr);
    requireClean("serve-execute priming", Prime);
    Setups.push_back(secondsSince(Start));
  }
  SetupS = median(Setups);
  return Live;
}

/// Timed phase shared by both serve workloads.
template <typename LoopFn>
Report timedServeRun(LiveServer &Live, double SetupS, LoopFn Loop) {
  Report R;
  pid_t Pid = Live.Server->pid();
  double Cpu0 = cpuSecondsOf(Pid);
  LoopResult L = Loop();
  double Cpu = cpuSecondsOf(Pid) - Cpu0;
  reportErrors("timed", L);
  double Rss = peakRssMb(Pid);
  Live.stop();
  R.Attempted = L.Attempted;
  R.Failed = L.Failed;
  setEndToEnd(R, SetupS, Rss, L.WallSeconds, Cpu, L.LatencyMs);
  R.Notes["server_flags"] = serverFlags();
  R.Notes["clients"] = std::to_string(ServeClients) + " closed-loop TCP";
  return R;
}

double meanBytes(const std::vector<int64_t> &Bytes) {
  double Sum = 0;
  for (int64_t B : Bytes)
    Sum += static_cast<double>(B);
  return Bytes.empty() ? 0 : Sum / static_cast<double>(Bytes.size());
}

} // namespace

Report perfbench::runServeIngest(const Options &Opts) {
  IngestInputs In = ingestInputs(Opts, timedOps(IngestOpsPerSecond, Opts));
  double SetupS = 0;
  std::unique_ptr<LiveServer> Live = setUpIngestServer(Opts, In, SetupS);
  Report R = timedServeRun(*Live, SetupS, [&] {
    return ingestLoop(*Live, In, In.Timed, In.TimedFrames);
  });
  R.Notes["pool_kernels"] = std::to_string(In.Pool.size());
  return R;
}

Report perfbench::runServeExecute(const Options &Opts) {
  ExecuteInputs In = executeInputs(Opts, timedOps(ExecuteOpsPerSecond, Opts));
  double SetupS = 0;
  std::unique_ptr<LiveServer> Live = setUpExecuteServer(Opts, In, SetupS);
  Report R = timedServeRun(*Live, SetupS, [&] {
    return executeLoop(*Live, In.Cases, In.TimedFrames, &In.Timed);
  });
  R.Notes["execute_cases"] = std::to_string(In.Cases.size());
  return R;
}

void perfbench::traceServeIngest(const Options &Opts, Report &R) {
  IngestInputs In = ingestInputs(Opts, TracedIngestOps);
  const size_t Ops = In.TimedFrames.size();

  // 1. The live server on the stream: socket latency, bytes, stats frame.
  double SetupS = 0;
  std::unique_ptr<LiveServer> Live = setUpIngestServer(Opts, In, SetupS);
  LoopResult Socket = ingestLoop(*Live, In, In.Timed, In.TimedFrames);
  requireClean("traced serve-ingest socket run", Socket);
  Json Stats = statsFrame(*Live->Conns[0]);
  Live->stop();

  // 2. The same stream against an in-process Endpoint.
  std::vector<core::LiftResult> Served(Ops);
  LoopResult Plain;
  {
    api::Endpoint Lifter(
        serviceConfig(freshFile(Opts, "ingest-endpoint.jsonl")));
    Plain = runClosedLoop(ServeClients, Ops, [&](int, size_t Op) {
      OpOutcome Out;
      Clock::time_point T0 = Clock::now();
      api::SocketFrame Frame = api::parseSocketFrame(In.TimedFrames[Op]);
      api::LiftResponse Resp = Lifter.lift(Frame.Items.at(0).Request);
      std::string Line = api::renderResponseEvent(Frame.IdJson, 0, Resp);
      Out.Seconds = secondsSince(T0);
      Served[Op] = Resp.Result;
      if (!Resp.ok() || Line.empty())
        Out.Error = "in-process lift failed: " + Resp.Error;
      return Out;
    });
    Lifter.shutdown();
  }
  requireClean("in-process serve-ingest replay", Plain);

  // 3. The stream rebuilt from the service's public calls, under spans:
  // once with recording off (the tracing-overhead baseline), then traced.
  core::StaggConfig Config = benchConfig();
  std::string Fingerprint = core::configFingerprint(Config);
  std::vector<std::string> Divergence(Ops);
  auto Rebuild = [&](bool Record) {
    serve::ResultCache Cache(Config.Serve.CacheCapacity,
                             Config.Serve.CacheShards,
                             freshFile(Opts, "ingest-rebuild.jsonl"));
    std::vector<std::unique_ptr<llm::SimulatedLlm>> Oracles;
    for (int C = 0; C < ServeClients; ++C)
      Oracles.push_back(std::make_unique<llm::SimulatedLlm>(OracleSeed));
    Tracer::instance().setRecording(Record);
    return runClosedLoop(ServeClients, Ops, [&](int C, size_t Op) {
      OpOutcome Out;
      Clock::time_point T0 = Clock::now();
      int64_t Id = static_cast<int64_t>(Op);
      core::LiftResult Lifted;
      {
        ScopedSpan OpSpan(spans::Op, Id);
        api::SocketFrame Frame;
        {
          ScopedSpan S("api.frame_decode", Id);
          Frame = api::parseSocketFrame(In.TimedFrames[Op]);
        }
        const api::LiftRequest &Req = Frame.Items.at(0).Request;
        api::IngestResult Ingested;
        {
          ScopedSpan S("api.ingest_kernel", Id);
          Ingested =
              api::ingestKernel(Req.KernelSource, Req.Name, Req.OracleHint);
        }
        if (!Ingested.ok())
          throw std::runtime_error("ingest failed: " + Ingested.Error);
        const bench::Benchmark &B = Ingested.Kernel;
        Lifted = tracedLift(B, *Oracles[static_cast<size_t>(C)], Config, Id)
                     .Result;
        {
          ScopedSpan S("serve.cache_insert", Id);
          Cache.insert(B.Name + '\x1f' + serve::ResultCache::keyFor(B.CSource) +
                           '\x1f' + B.GroundTruth + '\x1f' + Fingerprint,
                       Lifted);
        }
        api::LiftResponse Resp;
        Resp.Name = B.Name;
        Resp.Category = B.Category;
        Resp.Result = Lifted;
        {
          ScopedSpan S("api.result_encode", Id);
          api::renderResponseEvent(Frame.IdJson, 0, Resp);
        }
      }
      Out.Seconds = secondsSince(T0);
      Divergence[Op] = compareLifts(Lifted, Served[Op]);
      return Out;
    });
  };
  LoopResult Untraced = Rebuild(false);
  requireClean("untraced serve-ingest rebuild", Untraced);
  LoopResult Traced = Rebuild(true);
  requireClean("traced serve-ingest rebuild", Traced);
  for (size_t Op = 0; Op < Ops; ++Op)
    if (!Divergence[Op].empty())
      throw FatalError{"traced rebuild of ingest op " + std::to_string(Op) +
                       " (" + In.Timed[Op].Kernel->Name +
                       ") diverges from the service: " + Divergence[Op]};

  std::vector<Span> Spans = Tracer::instance().take();
  writeChromeTrace(Opts.WorkDir + "/trace-serve-ingest.json", Spans);
  SpanIndex Index(Spans);
  R.set("api.ingest_ms", spanMedian(Index, "api.ingest_kernel", 1e3), "ms");
  R.set("serve.journal_append_us",
        spanMedian(Index, "serve.cache_insert", 1e6), "us");
  R.set("serve.ingest_rtt_overhead_ms",
        median(Socket.LatencyMs) - median(Plain.LatencyMs), "ms");
  R.set("serve.cache_evictions", member(Stats, "cache", "evictions"),
        "count");
  R.set("trace.ingest_unattributed_share",
        Index.selfTotal(spans::Op) / Index.total(spans::Op), "ratio");
  R.set("trace.ingest_overhead_ms",
        median(Traced.LatencyMs) - median(Untraced.LatencyMs), "ms");
  R.Attempted += static_cast<int64_t>(4 * Ops);
}

void perfbench::traceServeExecute(const Options &Opts, Report &R) {
  ExecuteInputs In = executeInputs(Opts, TracedExecuteOps);
  const size_t Ops = In.TimedFrames.size();

  // 1. The live server on the stream.
  double SetupS = 0;
  std::unique_ptr<LiveServer> Live = setUpExecuteServer(Opts, In, SetupS);
  std::vector<int64_t> Bytes(Ops, 0);
  LoopResult Socket =
      executeLoop(*Live, In.Cases, In.TimedFrames, &In.Timed, &Bytes);
  requireClean("traced serve-execute socket run", Socket);
  Json Stats = statsFrame(*Live->Conns[0]);
  Live->stop();

  api::Endpoint Lifter(
      serviceConfig(freshFile(Opts, "execute-endpoint.jsonl")));

  // Priming: lift and execute every case once; compile each distinct lifted
  // program the way the execute path's bytecode cache does.
  struct Compiled {
    taco::Program Program;
    vm::Code Code;
  };
  std::map<std::string, std::unique_ptr<Compiled>> Programs;
  std::vector<double> CompileUs;
  for (const std::string &Frame : In.PrimeFrames) {
    api::SocketFrame F = api::parseSocketFrame(Frame);
    api::LiftResponse Resp = Lifter.lift(F.Exec);
    if (!Resp.ok() || !Resp.Result.Solved)
      throw FatalError{"priming lift failed for " + F.Exec.RegistryName};
    Lifter.executeLifted(F.Exec, F.Io, Resp);
    std::string Key = taco::printProgram(Resp.Result.Concrete);
    if (Programs.count(Key))
      continue;
    auto K = std::make_unique<Compiled>();
    K->Program = Resp.Result.Concrete;
    Clock::time_point T0 = Clock::now();
    vm::OptimizeOptions OptOpts;
    OptOpts.FreezeConstants = true;
    K->Code = vm::optimize(vm::compileProgram(K->Program), OptOpts);
    CompileUs.push_back(secondsSince(T0) * 1e6);
    Programs.emplace(Key, std::move(K));
  }

  // 2. The stream in-process through the endpoint.
  LoopResult Plain = runClosedLoop(ServeClients, Ops, [&](int, size_t Op) {
    OpOutcome Out;
    Clock::time_point T0 = Clock::now();
    api::SocketFrame F = api::parseSocketFrame(In.TimedFrames[Op]);
    api::LiftResponse Resp = Lifter.lift(F.Exec);
    std::string Line = api::renderResultEvent(
        F.IdJson, F.Exec.RegistryName, Lifter.executeLifted(F.Exec, F.Io, Resp));
    Out.Seconds = secondsSince(T0);
    Out.Error = checkExecuteResult(Line, In.Cases[In.Timed[Op]]);
    return Out;
  });
  requireClean("in-process serve-execute replay", Plain);

  // 3. The stream rebuilt from public calls under spans: once with
  // recording off (the tracing-overhead baseline), then traced.
  auto RebuildOp = [&](int, size_t Op) {
    OpOutcome Out;
    Clock::time_point T0 = Clock::now();
    int64_t Id = static_cast<int64_t>(Op);
    std::string Line;
    {
      ScopedSpan OpSpan(spans::Op, Id);
      api::SocketFrame F;
      {
        ScopedSpan S("api.frame_decode", Id);
        F = api::parseSocketFrame(In.TimedFrames[Op]);
      }
      api::LiftResponse Resp;
      {
        ScopedSpan S("serve.cache_hit", Id);
        Resp = Lifter.lift(F.Exec);
      }
      if (!Resp.CacheHit)
        throw std::runtime_error("execute lift missed the primed cache");
      const bench::Benchmark &B = *bench::findBenchmark(F.Exec.RegistryName);
      const Compiled &K =
          *Programs.at(taco::printProgram(Resp.Result.Concrete));
      std::map<std::string, taco::Tensor<double>> Operands;
      std::vector<int64_t> OutShape;
      {
        ScopedSpan S("api.operands", Id);
        for (const bench::ArgSpec &Arg : B.Args) {
          if (Arg.K == bench::ArgSpec::Kind::Array) {
            std::vector<int64_t> Shape =
                validate::resolveShape(Arg, F.Io.Sizes);
            taco::Tensor<double> T(Shape);
            auto It = F.Io.Arrays.find(Arg.Name);
            if (It != F.Io.Arrays.end())
              T.flat() = It->second;
            if (Arg.IsOutput)
              OutShape = Shape;
            Operands.emplace(Arg.Name, std::move(T));
          } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
            Operands.emplace(Arg.Name, taco::Tensor<double>::scalar(
                                           static_cast<double>(
                                               F.Io.Sizes.at(Arg.Name))));
          } else {
            Operands.emplace(Arg.Name, taco::Tensor<double>::scalar(
                                           F.Io.Scalars.at(Arg.Name)));
          }
        }
      }
      api::ExecuteOutcome Outcome;
      {
        ScopedSpan S("vm.evaluate", Id);
        vm::Interpreter<double> Interp(K.Code);
        if (!Interp.bindMap(Operands, OutShape))
          throw std::runtime_error("bind failed: " + Interp.error());
        taco::EinsumResult<double> Result = Interp.evaluate();
        Outcome.Ok = Result.Ok;
        Outcome.Shape = Result.Value.shape();
        Outcome.Data = std::move(Result.Value.flat());
      }
      Outcome.Cached = true;
      Outcome.Expr = taco::printProgram(Resp.Result.Concrete);
      {
        ScopedSpan S("api.result_encode", Id);
        Line = api::renderResultEvent(F.IdJson, B.Name, Outcome);
      }
    }
    Out.Seconds = secondsSince(T0);
    Out.Error = checkExecuteResult(Line, In.Cases[In.Timed[Op]]);
    return Out;
  };
  Tracer::instance().setRecording(false);
  LoopResult Untraced = runClosedLoop(ServeClients, Ops, RebuildOp);
  requireClean("untraced serve-execute rebuild", Untraced);
  Tracer::instance().setRecording(true);
  LoopResult Traced = runClosedLoop(ServeClients, Ops, RebuildOp);
  requireClean("traced serve-execute rebuild", Traced);
  Lifter.shutdown();

  std::vector<Span> Spans = Tracer::instance().take();
  writeChromeTrace(Opts.WorkDir + "/trace-serve-execute.json", Spans);
  SpanIndex Index(Spans);
  double TotalMacs = 0;
  for (size_t Case : In.Timed)
    TotalMacs += static_cast<double>(In.Cases[Case].Macs);
  R.set("api.frame_decode_ms", spanMedian(Index, "api.frame_decode", 1e3),
        "ms");
  R.set("api.result_encode_ms", spanMedian(Index, "api.result_encode", 1e3),
        "ms");
  R.set("vm.evaluate_ms", spanMedian(Index, "vm.evaluate", 1e3), "ms");
  R.set("vm.mac_per_s", TotalMacs / Index.total("vm.evaluate"), "1/s");
  R.set("vm.compile_us", median(CompileUs), "us");
  R.set("serve.cache_hit_us", spanMedian(Index, "serve.cache_hit", 1e6), "us");
  R.set("serve.bytes_per_op", meanBytes(Bytes), "bytes");
  R.set("serve.execute_rtt_overhead_ms",
        median(Socket.LatencyMs) - median(Plain.LatencyMs), "ms");
  R.set("serve.cache_hit_ratio", member(Stats, "cache", "hit_rate"), "ratio");
  double VmHits = member(Stats, "vm_cache", "hits");
  R.set("vm.cache_hit_ratio",
        VmHits / (VmHits + member(Stats, "vm_cache", "misses")), "ratio");
  R.set("trace.execute_unattributed_share",
        Index.selfTotal(spans::Op) / Index.total(spans::Op), "ratio");
  R.set("trace.execute_overhead_ms",
        median(Traced.LatencyMs) - median(Untraced.LatencyMs), "ms");
  R.Attempted += static_cast<int64_t>(4 * Ops);
}
