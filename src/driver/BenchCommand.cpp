//===- driver/BenchCommand.cpp - stagg bench subcommand -------------------===//

#include "driver/BenchCommand.h"

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "api/KernelIngest.h"
#include "api/Protocol.h"
#include "cfront/Interp.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "driver/SuiteRunner.h"
#include "grammar/DimensionList.h"
#include "grammar/Pcfg.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "search/TopDown.h"
#include "serve/ResultCache.h"
#include "serve/SocketServer.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "taco/Einsum.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"
#include "verify/BoundedVerifier.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace stagg;
using namespace stagg::driver;

namespace {

/// One registered micro benchmark: a name and a single-iteration body.
struct Micro {
  std::string Name;
  std::function<void()> Body;
};

/// Runs \p M adaptively: one warm-up iteration, then batches until the
/// measured wall time reaches \p MinSeconds. With \p Repeat > 1 the whole
/// measurement repeats and the median sample (by per-iteration time) is
/// reported — `stagg bench --repeat N` — so the perf gates compare a
/// noise-resistant statistic instead of one timing sample.
BenchEntry runMicro(const Micro &M, double MinSeconds, int Repeat) {
  M.Body();
  std::vector<BenchEntry> Samples;
  for (int R = 0; R < std::max(1, Repeat); ++R) {
    BenchEntry Entry;
    Entry.Name = M.Name;
    Timer Clock;
    int64_t Batch = 1;
    for (;;) {
      for (int64_t I = 0; I < Batch; ++I)
        M.Body();
      Entry.Iterations += Batch;
      Entry.WallSeconds = Clock.seconds();
      if (Entry.WallSeconds >= MinSeconds)
        break;
      // Grow the batch toward the remaining budget to keep clock reads
      // rare.
      Batch = std::min<int64_t>(Entry.Iterations * 4, int64_t(1) << 24);
    }
    Samples.push_back(std::move(Entry));
  }
  std::sort(Samples.begin(), Samples.end(),
            [](const BenchEntry &A, const BenchEntry &B) {
              return A.perIterSeconds() < B.perIterSeconds();
            });
  // Lower middle for even N: biasing toward the faster sample is the
  // conventional choice for timing medians (slow outliers, not fast ones,
  // are the noise being rejected).
  return Samples[(Samples.size() - 1) / 2];
}

/// Shared fixture state for the pipeline micros, built once.
struct MicroFixtures {
  // blas_axpy: enumeration-heavy validation (2 scalar-rank options x two
  // rank-1 symbols over three rank-1 arguments).
  const bench::Benchmark *Axpy = bench::findBenchmark("blas_axpy");
  std::unique_ptr<cfront::CFunction> AxpyFn;
  std::vector<validate::IoExample> AxpyExamples;
  taco::Program AxpyTemplate;

  // blas_gemv_ptr: the paper's Fig. 2 kernel; validator + verifier target.
  const bench::Benchmark *Gemv = bench::findBenchmark("blas_gemv_ptr");
  std::unique_ptr<cfront::CFunction> GemvFn;
  std::vector<validate::IoExample> GemvExamples;
  taco::Program GemvTemplate;
  taco::Program GemvTruth;

  // misc_mm3_chain: four rank-2 arguments, so a three-symbol chain template
  // has 64 bindings to check.
  const bench::Benchmark *Mm3 = bench::findBenchmark("misc_mm3_chain");
  std::unique_ptr<cfront::CFunction> Mm3Fn;
  std::vector<validate::IoExample> Mm3Examples;

  MicroFixtures() {
    {
      cfront::CParseResult R = cfront::parseCFunction(Axpy->CSource);
      AxpyFn = std::move(R.Function);
      Rng Rand(42);
      AxpyExamples = validate::generateExamples(*Axpy, *AxpyFn, 3, Rand);
      AxpyTemplate = grammar::templatize(
                         *taco::parseTacoProgram(Axpy->GroundTruth).Prog)
                         .Template;
    }
    {
      cfront::CParseResult R = cfront::parseCFunction(Gemv->CSource);
      GemvFn = std::move(R.Function);
      Rng Rand(42);
      GemvExamples = validate::generateExamples(*Gemv, *GemvFn, 3, Rand);
      GemvTemplate = grammar::templatize(
                         *taco::parseTacoProgram(Gemv->GroundTruth).Prog)
                         .Template;
      GemvTruth = *taco::parseTacoProgram(Gemv->GroundTruth).Prog;
    }
    {
      cfront::CParseResult R = cfront::parseCFunction(Mm3->CSource);
      Mm3Fn = std::move(R.Function);
      Rng Rand(42);
      Mm3Examples = validate::generateExamples(*Mm3, *Mm3Fn, 3, Rand);
    }
  }
};

/// The micro suite: the pipeline's hot primitives plus the
/// validator/verifier hot paths this repo's perf work targets.
std::vector<Micro> buildMicros(const MicroFixtures &F) {
  std::vector<Micro> Micros;

  Micros.push_back({"micro/taco_parse", [] {
                      auto R = taco::parseTacoProgram(
                          "C(i,j) = A(i,k) * B(k,j) + D(i,j)");
                      if (!R.ok())
                        std::abort();
                    }});

  // Structure compilation alone (slots, nodes, reduction placement) for a
  // three-tensor chain with two reductions: the front half of every
  // vm::compileProgram call the validator makes.
  {
    auto P = std::make_shared<taco::Program>(
        *taco::parseTacoProgram("a(i,j) = b(i,k) * c(k,l) * d(l,j)").Prog);
    Micros.push_back({"micro/einsum_structure", [P] {
                        taco::EinsumProgram S(*P);
                        if (S.nodes().size() != 5)
                          std::abort();
                      }});
  }

  {
    auto Fn = std::make_shared<cfront::CParseResult>(
        cfront::parseCFunction(F.Gemv->CSource));
    Micros.push_back({"micro/cinterp_gemv32", [Fn] {
                        cfront::ExecEnv<double> Env;
                        Env.IntScalars["N"] = 32;
                        Env.Arrays["Mat1"].assign(32 * 32, 2.0);
                        Env.Arrays["Mat2"].assign(32, 3.0);
                        Env.Arrays["Result"].assign(32, 0.0);
                        auto S = cfront::runCFunction(*Fn->Function, Env);
                        if (!S.Ok)
                          std::abort();
                      }});
  }

  {
    const bench::Benchmark *B = bench::findBenchmark("dsp_matmul_ptr");
    auto Fn = std::make_shared<cfront::CParseResult>(
        cfront::parseCFunction(B->CSource));
    Micros.push_back({"micro/static_analysis", [Fn] {
                        analysis::KernelSummary S =
                            analysis::analyzeKernel(*Fn->Function);
                        if (S.LhsDim < 0)
                          std::abort();
                      }});
    Micros.push_back({"micro/kernel_model", [Fn] {
                        analysis::KernelModel M =
                            analysis::buildKernelModel(*Fn->Function);
                        if (M.Loops.empty())
                          std::abort();
                      }});
    // The safety pass alone (no model rebuild): bounds proofs, dependence
    // and aliasing analysis, under the declared shapes — what the
    // ingestion gate and `stagg check` add on top of the model.
    auto Model = std::make_shared<analysis::KernelModel>(
        analysis::buildKernelModel(*Fn->Function));
    auto Opts =
        std::make_shared<analysis::CheckOptions>(core::checkOptionsFor(*B));
    Micros.push_back({"micro/checker", [Model, Opts] {
                        analysis::CheckReport R =
                            analysis::checkKernel(*Model, *Opts);
                        if (R.hardCount() != 0)
                          std::abort();
                      }});
  }

  // Model-based ingestion end to end (parse + model + shapes + reference
  // translation + smoke example): the serve admission path for inline
  // kernels, one entry per ingestion class.
  {
    auto AddIngest = [&Micros](const char *Name, const char *Registry) {
      auto Src = std::make_shared<std::string>(
          bench::findBenchmark(Registry)->CSource);
      Micros.push_back({Name, [Src] {
                          api::IngestResult R = api::ingestKernel(*Src, "b");
                          if (!R.ok())
                            std::abort();
                        }});
    };
    AddIngest("micro/ingest_subscript", "blas_axpy");
    AddIngest("micro/ingest_pointer", "ptr_mv_rowwalk");
    AddIngest("micro/ingest_conditional", "relu_forward");
    AddIngest("micro/ingest_fused", "fused_scale_shift");
  }

  {
    auto T = std::make_shared<std::vector<grammar::Templatized>>();
    for (const char *S : {"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)",
                          "r(i) = m(i,j) * v(i)", "r(i) = m(i,j) + v(j)"})
      T->push_back(grammar::templatize(*taco::parseTacoProgram(S).Prog));
    *T = grammar::dedupTemplates(*T);
    Micros.push_back(
        {"micro/grammar_construction", [T] {
           grammar::TemplateGrammar G = grammar::buildTemplateGrammar(
               *T, grammar::predictDimensionList(*T, 1), 1,
               grammar::GrammarOptions());
           if (G.TensorRules.empty())
             std::abort();
         }});
  }

  {
    auto T = std::make_shared<std::vector<grammar::Templatized>>();
    for (const char *S : {"r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(j)"})
      T->push_back(grammar::templatize(*taco::parseTacoProgram(S).Prog));
    *T = grammar::dedupTemplates(*T);
    auto G = std::make_shared<grammar::TemplateGrammar>(
        grammar::buildTemplateGrammar(*T, grammar::predictDimensionList(*T, 1),
                                      1, grammar::GrammarOptions()));
    Micros.push_back({"micro/topdown_enumeration100", [G] {
                        search::SearchConfig Config;
                        Config.MaxAttempts = 100;
                        search::SearchResult R = search::runTopDown(
                            *G, Config,
                            [](const taco::Program &) { return false; });
                        if (R.Attempts <= 0)
                          std::abort();
                      }});
  }

  // Three-tensor chain templates, the shape of misc_mm3_chain: 36 leaf
  // rules and 3,215 expansions by the 2000th candidate. A queue of every
  // child would hold 17,115 entries by then (the two-template toy above:
  // 113); the queue of expanded states peaks at 614 (toy: 41), and most
  // leaf children are never scored, so this one measures the search on a
  // wide grammar.
  {
    auto T = std::make_shared<std::vector<grammar::Templatized>>();
    for (const char *S : {"r(i,j) = x(i,k) * y(k,l) * z(l,j)",
                          "r(i,j) = x(i,k) * (y(k,l) * z(l,j))",
                          "r(i,j) = x(k,i) * y(k,l) * z(l,j)"})
      T->push_back(grammar::templatize(*taco::parseTacoProgram(S).Prog));
    *T = grammar::dedupTemplates(*T);
    auto G = std::make_shared<grammar::TemplateGrammar>(
        grammar::buildTemplateGrammar(*T, grammar::predictDimensionList(*T, 2),
                                      2, grammar::GrammarOptions()));
    Micros.push_back({"micro/topdown_enumeration_deep", [G] {
                        search::SearchConfig Config;
                        Config.MaxAttempts = 2000;
                        search::SearchResult R = search::runTopDown(
                            *G, Config,
                            [](const taco::Program &) { return false; });
                        if (R.Attempts <= 0)
                          std::abort();
                      }});
  }

  // Validator substitution enumeration (the §6 hot path).
  {
    auto V = std::make_shared<validate::Validator>(
        *F.Axpy, F.AxpyExamples, std::vector<int64_t>{1, 2});
    auto T = std::make_shared<taco::Program>(F.AxpyTemplate);
    Micros.push_back({"micro/validator_axpy", [V, T] {
                        if (V->validate(*T).empty() || V->memoHits() != 0)
                          std::abort();
                      }});
  }
  {
    auto V = std::make_shared<validate::Validator>(
        *F.Gemv, F.GemvExamples, std::vector<int64_t>{1, 2});
    auto T = std::make_shared<taco::Program>(F.GemvTemplate);
    Micros.push_back({"micro/validator_gemv", [V, T] {
                        if (V->validate(*T).empty() || V->memoHits() != 0)
                          std::abort();
                      }});
  }
  // The validator's two extremes on misc_mm3_chain: a template whose
  // rank-4 symbol no argument can bind (rejected by the rank pre-check
  // before any per-template state is built), and the three-symbol chain,
  // which pays setup, compile and 64 binding evaluations.
  {
    auto V = std::make_shared<validate::Validator>(
        *F.Mm3, F.Mm3Examples, std::vector<int64_t>{1});
    auto Reject = std::make_shared<taco::Program>(
        *taco::parseTacoProgram("a(i,j) = b(i,j,k,l) * c(k,l)").Prog);
    Micros.push_back({"micro/validator_reject_rank", [V, Reject] {
                        if (!V->validate(*Reject).empty() ||
                            V->memoHits() != 0)
                          std::abort();
                      }});
    auto Chain = std::make_shared<taco::Program>(
        *taco::parseTacoProgram("a(i,j) = b(i,k) * c(k,l) * d(l,j)").Prog);
    Micros.push_back({"micro/validator_chain3", [V, Chain] {
                        if (V->validate(*Chain).empty() || V->memoHits() != 0)
                          std::abort();
                      }});
  }

  // The validator over the template stream of blas_axpby's default lift:
  // the 4,654 templates it rejects before the first one that validates,
  // of which the rejection memo answers 3,211 (each equal up to `+`/`*`
  // reordering and renaming to an earlier one). Each iteration replays
  // them through a fresh validator, so the memo starts empty as in a lift.
  // The four micros above measure evaluation, not the memo: each validates
  // one accepted or rank-rejected template, which the memo never records,
  // and aborts on a memo hit.
  {
    const bench::Benchmark &B = *bench::findBenchmark("blas_axpby");
    cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
    const analysis::KernelModel Model =
        analysis::buildKernelModel(*Parsed.Function);
    core::StaggConfig Config;
    Rng ExampleRng(Config.ExampleSeed);
    auto Examples = std::make_shared<std::vector<validate::IoExample>>(
        validate::generateExamples(B, *Parsed.Function, Config.NumIoExamples,
                                   ExampleRng));
    auto Constants =
        std::make_shared<std::vector<int64_t>>(Model.Summary.Constants);
    llm::SimulatedLlm Oracle(CliOptions().OracleSeed);
    llm::OracleTask Task;
    Task.Query = &B;
    Task.Prompt = llm::buildPrompt(B.CSource, Config.NumCandidates);
    Task.NumCandidates = Config.NumCandidates;
    std::vector<grammar::Templatized> T;
    for (const taco::Program &P :
         llm::parseResponses(Oracle.propose(Task)).Programs)
      if (taco::checkWellFormed(P).empty())
        T.push_back(grammar::templatize(P));
    const int LhsDim = Model.Summary.LhsDim;
    grammar::TemplateGrammar G = grammar::buildTemplateGrammar(
        T, grammar::predictDimensionList(T, LhsDim), LhsDim, Config.Grammar);
    auto Stream = std::make_shared<std::vector<taco::Program>>();
    validate::Validator Recorder(B, *Examples, *Constants);
    search::runTopDown(
        G, Config.Search,
        [&](const taco::Program &P) {
          if (!Recorder.validate(P).empty())
            return true;
          Stream->push_back(P);
          return false;
        },
        validate::bindableRanks(B));
    Micros.push_back({"micro/validator_axpby_stream",
                      [&B, Examples, Constants, Stream] {
                        validate::Validator V(B, *Examples, *Constants);
                        for (const taco::Program &P : *Stream)
                          if (!V.validate(P).empty())
                            std::abort();
                      }});
  }

  // Bounded verifier (§7): one cold candidate, and the Fig. 1 fallback loop
  // of eight candidates sharing one reference cache.
  {
    auto Fn = std::make_shared<cfront::CParseResult>(
        cfront::parseCFunction(F.Gemv->CSource));
    auto P = std::make_shared<taco::Program>(F.GemvTruth);
    const bench::Benchmark *B = F.Gemv;
    Micros.push_back({"micro/verifier_gemv", [Fn, P, B] {
                        verify::VerifyResult VR = verify::verifyEquivalence(
                            *B, *Fn->Function, *P);
                        if (!VR.Equivalent)
                          std::abort();
                      }});
    Micros.push_back({"micro/verifier_fallback8", [Fn, P, B] {
                        verify::ReferenceCache Cache;
                        for (int I = 0; I < 8; ++I) {
                          verify::VerifyResult VR = verify::verifyEquivalence(
                              *B, *Fn->Function, *P, verify::VerifyOptions(),
                              &Cache);
                          if (!VR.Equivalent)
                            std::abort();
                        }
                      }});
  }

  // The heaviest registry verify: blas_gemm's ground truth, 153 tests.
  {
    const bench::Benchmark *B = bench::findBenchmark("blas_gemm");
    auto Fn = std::make_shared<cfront::CParseResult>(
        cfront::parseCFunction(B->CSource));
    auto P = std::make_shared<taco::Program>(
        *taco::parseTacoProgram(B->GroundTruth).Prog);
    Micros.push_back({"micro/verifier_gemm", [Fn, P, B] {
                        verify::VerifyResult VR = verify::verifyEquivalence(
                            *B, *Fn->Function, *P);
                        if (!VR.Equivalent || VR.TestsRun != 153)
                          std::abort();
                      }});
  }

  // Bytecode VM: the compile cost a candidate pays once per validator /
  // verifier entry, and the pure execute cost of a 16x16 matmul after
  // binding.
  {
    auto P = std::make_shared<taco::Program>(F.GemvTruth);
    Micros.push_back({"micro/vm_compile", [P] {
                        vm::Code Code = vm::compileProgram(*P);
                        if (!Code.ok())
                          std::abort();
                      }});
  }
  {
    auto P = std::make_shared<taco::Program>(
        *taco::parseTacoProgram("a(i,j) = b(i,k) * c(k,j)").Prog);
    auto Code = std::make_shared<vm::Code>(vm::compileProgram(*P));
    auto Ops =
        std::make_shared<std::map<std::string, taco::Tensor<double>>>();
    taco::Tensor<double> Bm({16, 16}), Cm({16, 16});
    for (size_t I = 0; I < Bm.flat().size(); ++I) {
      Bm.flat()[I] = static_cast<double>(I % 7);
      Cm.flat()[I] = static_cast<double>(I % 5);
    }
    Ops->emplace("b", std::move(Bm));
    Ops->emplace("c", std::move(Cm));
    auto Interp = std::make_shared<vm::Interpreter<double>>(*Code);
    if (!Interp->bindMap(*Ops, {16, 16}))
      std::abort();
    auto Out = std::make_shared<taco::Tensor<double>>(
        std::vector<int64_t>{16, 16});
    Micros.push_back({"micro/vm_execute", [Interp, Out, Code, Ops] {
                        Interp->evaluateInto(*Out);
                        if (Out->flat().empty())
                          std::abort();
                      }});

    // The same matmul through vm::optimize: a DotSpan superinstruction
    // replaces the interpreted k-loop. CI holds this to a 1.5x win over
    // micro/vm_execute within the same run (bench_compare --min-speedup).
    auto Fused = std::make_shared<vm::Code>(vm::optimize(*Code));
    auto FusedInterp = std::make_shared<vm::Interpreter<double>>(*Fused);
    if (!FusedInterp->bindMap(*Ops, {16, 16}))
      std::abort();
    Micros.push_back({"micro/vm_execute_fused",
                      [FusedInterp, Out, Fused, Ops] {
                        FusedInterp->evaluateInto(*Out);
                        if (Out->flat().empty())
                          std::abort();
                      }});
  }

  // Socket transport round trip: one frame through the live epoll loop and
  // back over loopback TCP — the per-request floor of `stagg serve --listen`
  // before any lifting happens.
  {
    /// A self-contained echo server: loop thread plus one blocking client.
    struct EchoRig : serve::SocketProtocol {
      serve::SocketServer Server;
      std::thread Loop;
      int Fd = -1;

      EchoRig()
          : Server(*this, [] {
              serve::SocketServerOptions O;
              O.Host = "127.0.0.1";
              O.Port = 0;
              return O;
            }()) {}

      void onFrame(serve::SocketClient &Client,
                   const std::string &Line) override {
        Client.send("ok:" + Line);
      }
      void onDisconnect(serve::SocketClient &) override {}
      std::string rejectLine(serve::TransportReject) override {
        return "reject";
      }

      bool up() {
        std::string Error;
        if (!Server.start(Error))
          return false;
        Loop = std::thread([this] { Server.run(); });
        Fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in Addr = {};
        Addr.sin_family = AF_INET;
        Addr.sin_port = htons(static_cast<uint16_t>(Server.port()));
        Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)) == 0;
      }

      void roundTrip() {
        const char Ping[] = "ping\n";
        if (::send(Fd, Ping, sizeof(Ping) - 1, 0) < 0)
          std::abort();
        char Buf[64];
        size_t Got = 0;
        while (Got == 0 || Buf[Got - 1] != '\n') {
          ssize_t N = ::recv(Fd, Buf + Got, sizeof(Buf) - Got, 0);
          if (N <= 0)
            std::abort();
          Got += static_cast<size_t>(N);
        }
      }

      ~EchoRig() override {
        if (Fd >= 0)
          ::close(Fd);
        Server.requestShutdown();
        if (Loop.joinable())
          Loop.join();
      }
    };
    auto Rig = std::make_shared<EchoRig>();
    if (Rig->up())
      Micros.push_back({"micro/socket_echo", [Rig] { Rig->roundTrip(); }});
  }

  // Persistent-cache record encode/decode: what every write-through insert
  // pays on the way out and every journal record pays at warm start.
  {
    auto Result = std::make_shared<core::LiftResult>();
    Result->Solved = true;
    Result->Verified = true;
    Result->Template = F.GemvTemplate;
    Result->Concrete = F.GemvTruth;
    Result->Attempts = 12;
    Result->Expansions = 3456;
    Micros.push_back({"micro/cache_persist", [Result] {
                        core::LiftResult Back;
                        if (!serve::liftResultFromJson(
                                serve::liftResultToJson(*Result), Back) ||
                            !Back.Solved)
                          std::abort();
                      }});
  }

  // Execute-frame tensor I/O: decode an execute frame posting 2,048 cells
  // (two 1,024-cell inputs) and render a 2,048-cell result event — the
  // JSON half of every `execute` request, without the socket or the VM.
  {
    std::string A, B;
    auto Outcome = std::make_shared<api::ExecuteOutcome>();
    Outcome->Ok = true;
    Outcome->Expr = "out(i) = a(i) + b(i)";
    Outcome->Shape = {2048};
    for (int I = 0; I < 1024; ++I) {
      double X = static_cast<double>(I % 97) * 0.25 - 3;
      double Y = static_cast<double>(I % 13) - 6;
      A += I ? ',' : '[';
      support::appendJsonNumber(A, X);
      B += I ? ',' : '[';
      support::appendJsonNumber(B, Y);
      Outcome->Data.push_back(X + Y);
      Outcome->Data.push_back(X * Y / 7);
    }
    auto Frame = std::make_shared<std::string>(
        "{\"v\":2,\"id\":7,\"execute\":{\"name\":\"art_add\","
        "\"sizes\":{\"N\":1024},\"inputs\":{\"a\":" +
        A + "],\"b\":" + B + "]}}}");
    Micros.push_back({"micro/execute_frame_2k", [Frame, Outcome] {
                        api::SocketFrame F = api::parseSocketFrame(*Frame);
                        if (F.K != api::SocketFrame::Kind::Execute ||
                            F.Io.Arrays.size() != 2 ||
                            api::renderResultEvent(F.IdJson,
                                                   F.Exec.RegistryName,
                                                   *Outcome)
                                .empty())
                          std::abort();
                      }});
  }

  // The same JSON half at the serve-execute workload's cell shape: a
  // 16,384-cell frame of integers in [-4, 4] (two 8,192-cell inputs) and a
  // 16,384-cell integral result, a ninth of it zeros — the short-integer
  // paths of the decoder and the renderer.
  {
    std::string A, B;
    auto Outcome = std::make_shared<api::ExecuteOutcome>();
    Outcome->Ok = true;
    Outcome->Expr = "out(i) = a(i) + b(i)";
    Outcome->Shape = {16384};
    for (int I = 0; I < 8192; ++I) {
      double X = static_cast<double>(I * 7 % 9) - 4;
      double Y = static_cast<double>(I * 5 % 9) - 4;
      A += I ? ',' : '[';
      support::appendJsonNumber(A, X);
      B += I ? ',' : '[';
      support::appendJsonNumber(B, Y);
      Outcome->Data.push_back(X + Y);
      Outcome->Data.push_back(X * Y);
    }
    auto Frame = std::make_shared<std::string>(
        "{\"v\":2,\"id\":7,\"execute\":{\"name\":\"art_add\","
        "\"sizes\":{\"N\":8192},\"inputs\":{\"a\":" +
        A + "],\"b\":" + B + "]}}}");
    Micros.push_back({"micro/execute_frame_int16k", [Frame, Outcome] {
                        api::SocketFrame F = api::parseSocketFrame(*Frame);
                        if (F.K != api::SocketFrame::Kind::Execute ||
                            F.Io.Arrays.size() != 2 ||
                            api::renderResultEvent(F.IdJson,
                                                   F.Exec.RegistryName,
                                                   *Outcome)
                                .empty())
                          std::abort();
                      }});
  }

  return Micros;
}

} // namespace

BenchReport driver::runBench(const CliOptions &Options,
                             std::ostream *Progress) {
  BenchReport Report;
  Report.ConfigFingerprint = core::configFingerprint(Options.Config);
  Report.Suite = Options.Suite;

  MicroFixtures Fixtures;
  std::vector<Micro> Micros = buildMicros(Fixtures);
  for (const Micro &M : Micros) {
    if (Progress)
      *Progress << "bench: " << M.Name << "\n";
    Report.Entries.push_back(
        runMicro(M, Options.BenchMinTime, Options.BenchRepeat));
  }

  // End-to-end lift latency over the selected suite.
  std::string SuiteError;
  std::vector<const bench::Benchmark *> Suite =
      selectSuite(Options.Suite, Options.Limit, SuiteError);
  if (Progress)
    *Progress << "bench: lift sweep over " << Suite.size() << " benchmarks ("
              << Options.Suite << ")\n";
  SuiteReport Sweep = runSuite(Suite, Options, nullptr);
  Report.Threads = Sweep.Threads;
  for (const RunRow &Row : Sweep.Rows) {
    BenchEntry Entry;
    Entry.Name = "lift/" + Row.Benchmark;
    Entry.WallSeconds = Row.Result.Seconds;
    Entry.Iterations = 1;
    Entry.Solved = Row.Result.Solved ? 1 : 0;
    Report.Entries.push_back(std::move(Entry));
  }
  BenchEntry Total;
  Total.Name = "lift/_total";
  Total.WallSeconds = Sweep.WallSeconds;
  Total.Iterations = 1;
  Total.Solved = Sweep.solvedCount() == static_cast<int>(Sweep.Rows.size());
  Report.Entries.push_back(std::move(Total));
  return Report;
}

void driver::printBenchTable(std::ostream &Os, const BenchReport &Report) {
  size_t NameWidth = 4;
  for (const BenchEntry &E : Report.Entries)
    NameWidth = std::max(NameWidth, E.Name.size());

  Os << std::left << std::setw(static_cast<int>(NameWidth)) << "name"
     << std::right << std::setw(14) << "per-iter" << std::setw(12) << "iters"
     << std::setw(12) << "wall" << "\n";
  for (const BenchEntry &E : Report.Entries) {
    std::ostringstream PerIter;
    PerIter << std::fixed << std::setprecision(1)
            << E.perIterSeconds() * 1e6 << " us";
    std::ostringstream Wall;
    Wall << std::fixed << std::setprecision(3) << E.WallSeconds << " s";
    Os << std::left << std::setw(static_cast<int>(NameWidth)) << E.Name
       << std::right << std::setw(14) << PerIter.str() << std::setw(12)
       << E.Iterations << std::setw(12) << Wall.str();
    if (E.Solved == 0)
      Os << "  UNSOLVED";
    Os << "\n";
  }
}

namespace {

/// The machine and build a report was measured on: two reports from
/// different hosts compare machine speed as much as code.
support::Json hostJson() {
  support::Json Host = support::Json::object();
  Host.set("hardware_concurrency",
           support::Json::integer(std::thread::hardware_concurrency()));
#if defined(__clang__)
  Host.set("compiler_id", support::Json::str("Clang"));
  Host.set("compiler_version",
           support::Json::str(std::to_string(__clang_major__) + "." +
                              std::to_string(__clang_minor__) + "." +
                              std::to_string(__clang_patchlevel__)));
#elif defined(__GNUC__)
  Host.set("compiler_id", support::Json::str("GNU"));
  Host.set("compiler_version",
           support::Json::str(std::to_string(__GNUC__) + "." +
                              std::to_string(__GNUC_MINOR__) + "." +
                              std::to_string(__GNUC_PATCHLEVEL__)));
#else
  Host.set("compiler_id", support::Json::str("unknown"));
  Host.set("compiler_version", support::Json::str("unknown"));
#endif
  // Empty for a single-config build configured without a build type.
  Host.set("build_type", support::Json::str(STAGG_BUILD_TYPE));
  return Host;
}

} // namespace

std::string driver::benchReportJson(const BenchReport &Report) {
  support::Json Root = support::Json::object();
  Root.set("schema", support::Json::str("stagg-bench"));
  Root.set("version", support::Json::integer(1));
  Root.set("config_fingerprint",
           support::Json::str(Report.ConfigFingerprint));
  Root.set("suite", support::Json::str(Report.Suite));
  Root.set("threads", support::Json::integer(Report.Threads));
  Root.set("host", hostJson());
  support::Json Benchmarks = support::Json::array();
  for (const BenchEntry &E : Report.Entries) {
    support::Json Entry = support::Json::object();
    Entry.set("name", support::Json::str(E.Name));
    Entry.set("wall_seconds", support::Json::number(E.WallSeconds));
    Entry.set("iterations", support::Json::integer(E.Iterations));
    Entry.set("per_iter_seconds", support::Json::number(E.perIterSeconds()));
    if (E.Solved >= 0)
      Entry.set("solved", support::Json::boolean(E.Solved == 1));
    Benchmarks.push(std::move(Entry));
  }
  Root.set("benchmarks", std::move(Benchmarks));
  return Root.dump();
}

int driver::runBenchCommand(const CliOptions &Options) {
  BenchReport Report =
      runBench(Options, Options.Verbose ? &std::cerr : nullptr);
  printBenchTable(std::cout, Report);
  if (!Options.JsonPath.empty()) {
    std::ofstream Out(Options.JsonPath);
    if (!Out) {
      std::cerr << "stagg: cannot write '" << Options.JsonPath << "'\n";
      return 1;
    }
    Out << benchReportJson(Report) << "\n";
  }
  return 0;
}
