//===- perfbench/src/Reconstruct.cpp - Traced rebuild of the pipeline -----===//

#include "Reconstruct.h"

#include "Trace.h"

#include "analysis/Checker.h"
#include "analysis/KernelModel.h"
#include "cfront/Parser.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "search/TopDown.h"
#include "search/WorkerPool.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"

using namespace stagg;
using namespace perfbench;

TracedLift perfbench::tracedLift(const bench::Benchmark &B,
                                 llm::CandidateOracle &Oracle,
                                 const core::StaggConfig &Config,
                                 int64_t Op) {
  TracedLift Out;
  core::LiftResult &Result = Out.Result;
  Timer Clock;

  cfront::CParseResult Parsed;
  {
    ScopedSpan S(spans::Parse, Op);
    Parsed = cfront::parseCFunction(B.CSource);
  }
  if (!Parsed.ok()) {
    Result.FailReason = "C parse error: " + Parsed.Error;
    Result.Seconds = Clock.seconds();
    return Out;
  }
  const cfront::CFunction &Fn = *Parsed.Function;

  analysis::KernelModel Model;
  analysis::CheckReport Check;
  {
    ScopedSpan S(spans::ModelCheck, Op);
    Model = analysis::buildKernelModel(Fn);
    analysis::CheckOptions CheckOpts;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.K != bench::ArgSpec::Kind::Array)
        continue;
      std::vector<analysis::Poly> Extents;
      for (const std::string &Dim : Arg.Shape)
        Extents.push_back(analysis::shapeExtentPoly(Dim));
      CheckOpts.Shapes.emplace(Arg.Name, std::move(Extents));
      if (Arg.IsOutput)
        CheckOpts.OutputParams.insert(Arg.Name);
    }
    Check = analysis::checkKernel(Model, CheckOpts);
  }
  const analysis::KernelSummary &Summary = Model.Summary;
  Result.CheckerSafe = Check.BoundsProvenSafe;
  Result.CheckerFindings = static_cast<int>(Check.Findings.size());

  std::vector<std::string> Lines;
  {
    ScopedSpan S(spans::Oracle, Op);
    llm::OracleTask Task;
    Task.Query = &B;
    Task.Prompt = llm::buildPrompt(B.CSource, Config.NumCandidates);
    Task.NumCandidates = Config.NumCandidates;
    Lines = Oracle.propose(Task);
  }

  std::vector<grammar::Templatized> Templates;
  grammar::TemplateGrammar Grammar;
  {
    ScopedSpan S(spans::Grammar, Op);
    llm::ParsedResponses Responses = llm::parseResponses(Lines);
    Result.CandidatesParsed = static_cast<int>(Responses.Programs.size());
    Result.CandidatesDiscarded = Responses.Discarded;
    for (const taco::Program &P : Responses.Programs) {
      if (!taco::checkWellFormed(P).empty())
        continue;
      Templates.push_back(grammar::templatize(P));
    }
    if (!Templates.empty()) {
      Result.DimList =
          grammar::predictDimensionList(Templates, Summary.LhsDim);
      Grammar = grammar::buildTemplateGrammar(Templates, Result.DimList,
                                              Summary.LhsDim, Config.Grammar);
    }
  }
  if (Templates.empty()) {
    Result.FailReason = "no syntactically valid LLM candidates";
    Result.Seconds = Clock.seconds();
    return Out;
  }

  std::vector<validate::IoExample> Examples;
  {
    ScopedSpan S(spans::Examples, Op);
    Rng ExampleRng(Config.ExampleSeed);
    Examples =
        validate::generateExamples(B, Fn, Config.NumIoExamples, ExampleRng);
  }
  if (Examples.empty()) {
    Result.FailReason = "failed to execute the legacy kernel";
    Result.Seconds = Clock.seconds();
    return Out;
  }

  verify::VerifyOptions Verify = Config.Verify;
  Verify.TrustStaticBounds = Check.BoundsProvenSafe;
  Verify.UseVm = Config.UseVm;
  Verify.UseVmOpt = Config.UseVmOpt;

  struct ProbeState {
    std::unique_ptr<validate::Validator> V;
    verify::ReferenceCache VerifyCache;
    taco::Program Concrete;
  };
  std::vector<ProbeState> States(
      static_cast<size_t>(search::resolveThreads(Config.Search.Threads)));
  search::TemplateProbeFactory Factory = [&](int Worker) {
    ProbeState *State = &States[static_cast<size_t>(Worker)];
    {
      ScopedSpan S(spans::ValidatorInit, Op);
      State->V = std::make_unique<validate::Validator>(
          B, Examples, Summary.Constants, Config.UseVm, Config.UseVmOpt);
    }
    return search::TemplateProbe([State, &B, &Fn, &Verify, &Config, &Out,
                                  Op](const taco::Program &Template) {
      std::vector<validate::Instantiation> Valid;
      {
        ScopedSpan S(spans::Validate, Op);
        Valid = State->V->validate(Template);
      }
      ++Out.ValidateCalls;
      Out.Instantiations += static_cast<int64_t>(Valid.size());
      for (validate::Instantiation &Inst : Valid) {
        if (!Config.SkipVerification) {
          verify::VerifyResult VR;
          {
            ScopedSpan S(spans::Verify, Op);
            VR = verify::verifyEquivalence(B, Fn, Inst.Concrete, Verify,
                                           &State->VerifyCache);
          }
          ++Out.VerifyCalls;
          Out.Equivalent += VR.Equivalent;
          if (!VR.Equivalent)
            continue;
        }
        State->Concrete = std::move(Inst.Concrete);
        return true;
      }
      return false;
    });
  };

  search::SearchResult SR;
  {
    ScopedSpan S(spans::Search, Op);
    SR = search::runTopDown(Grammar, Config.Search, Factory);
  }
  Result.Solved = SR.Solved;
  Result.Verified = SR.Solved && !Config.SkipVerification;
  Result.Template = std::move(SR.SolvedTemplate);
  if (SR.Solved)
    Result.Concrete =
        std::move(States[static_cast<size_t>(SR.WinnerWorker)].Concrete);
  Result.Attempts = SR.Attempts;
  Result.Expansions = SR.Expansions;
  Result.FailReason = SR.Solved ? "" : SR.FailReason;
  Result.Seconds = Clock.seconds();
  return Out;
}

std::string perfbench::compareLifts(const core::LiftResult &A,
                                    const core::LiftResult &B) {
  if (A.Solved != B.Solved)
    return "solved differs";
  if (A.Attempts != B.Attempts)
    return "attempts " + std::to_string(A.Attempts) + " vs " +
           std::to_string(B.Attempts);
  if (A.Expansions != B.Expansions)
    return "expansions " + std::to_string(A.Expansions) + " vs " +
           std::to_string(B.Expansions);
  std::string PA = A.Solved ? taco::printProgram(A.Concrete) : A.FailReason;
  std::string PB = B.Solved ? taco::printProgram(B.Concrete) : B.FailReason;
  if (PA != PB)
    return "'" + PA + "' vs '" + PB + "'";
  return "";
}
