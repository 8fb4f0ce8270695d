//===- core/Stagg.cpp - The STAGG lifting pipeline ------------------------===//

#include "core/Stagg.h"

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "cfront/Parser.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "search/BottomUp.h"
#include "search/TopDown.h"
#include "support/Timer.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"

using namespace stagg;
using namespace stagg::core;

analysis::CheckOptions core::checkOptionsFor(const bench::Benchmark &B) {
  analysis::CheckOptions Opts;
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K != bench::ArgSpec::Kind::Array)
      continue;
    std::vector<analysis::Poly> Extents;
    for (const std::string &Dim : Arg.Shape)
      Extents.push_back(analysis::shapeExtentPoly(Dim));
    Opts.Shapes.emplace(Arg.Name, std::move(Extents));
    if (Arg.IsOutput)
      Opts.OutputParams.insert(Arg.Name);
  }
  return Opts;
}

LiftResult core::liftBenchmark(const bench::Benchmark &B,
                               llm::CandidateOracle &Oracle,
                               const StaggConfig &Config) {
  LiftResult Result;
  Timer Clock;

  // 1. Ingest the legacy kernel.
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  if (!Parsed.ok()) {
    Result.FailReason = "C parse error: " + Parsed.Error;
    Result.Seconds = Result.ParseSeconds = Clock.seconds();
    return Result;
  }
  const cfront::CFunction &Fn = *Parsed.Function;

  // 2. Static analysis: LHS dimensionality, the constant pool, and the
  // safety checker's verdict over the normalized model. A full bounds proof
  // against the declared argument shapes licenses the verifier to drop its
  // per-access dynamic probes below.
  analysis::KernelModel Model = analysis::buildKernelModel(Fn);
  const analysis::KernelSummary &Summary = Model.Summary;
  analysis::CheckReport Check =
      analysis::checkKernel(Model, checkOptionsFor(B));
  Result.CheckerSafe = Check.BoundsProvenSafe;
  Result.CheckerFindings = static_cast<int>(Check.Findings.size());
  Result.ParseSeconds = Clock.seconds();

  // 3. Ask the oracle for candidate translations.
  llm::OracleTask Task;
  Task.Query = &B;
  Task.Prompt = llm::buildPrompt(B.CSource, Config.NumCandidates);
  Task.NumCandidates = Config.NumCandidates;
  std::vector<std::string> Lines = Oracle.propose(Task);
  Result.OracleSeconds = Clock.seconds() - Result.ParseSeconds;

  // 4. Parse, templatize, deduplicate.
  llm::ParsedResponses Responses = llm::parseResponses(Lines);
  Result.CandidatesParsed = static_cast<int>(Responses.Programs.size());
  Result.CandidatesDiscarded = Responses.Discarded;
  // NOTE: templates are *not* deduplicated here — the dimension-list vote
  // (§4.2.3) and the rule weights (§4.3) both count frequency across all
  // candidate solutions, so repeated guesses are evidence, not noise.
  std::vector<grammar::Templatized> Templates;
  for (const taco::Program &P : Responses.Programs) {
    if (!taco::checkWellFormed(P).empty())
      continue;
    Templates.push_back(grammar::templatize(P));
  }
  if (Templates.empty()) {
    Result.FailReason = "no syntactically valid LLM candidates";
    Result.Seconds = Clock.seconds();
    Result.GrammarSeconds =
        Result.Seconds - Result.ParseSeconds - Result.OracleSeconds;
    return Result;
  }

  // 5. Predict the dimension list (LLM vote for the RHS, static analysis
  // for the LHS) and build the probabilistic template grammar.
  std::vector<int> DimList =
      grammar::predictDimensionList(Templates, Summary.LhsDim);
  Result.DimList = DimList;
  grammar::TemplateGrammar Grammar = grammar::buildTemplateGrammar(
      Templates, DimList, Summary.LhsDim, Config.Grammar);

  // 6. I/O examples and the validator.
  Rng ExampleRng(Config.ExampleSeed);
  std::vector<validate::IoExample> Examples =
      validate::generateExamples(B, Fn, Config.NumIoExamples, ExampleRng);
  if (Examples.empty()) {
    Result.FailReason = "failed to execute the legacy kernel";
    Result.Seconds = Clock.seconds();
    Result.GrammarSeconds =
        Result.Seconds - Result.ParseSeconds - Result.OracleSeconds;
    return Result;
  }
  Result.GrammarSeconds =
      Clock.seconds() - Result.ParseSeconds - Result.OracleSeconds;

  // 7. Search with validate-then-verify as the goal test (Fig. 1's loop:
  // a verification failure falls back to the next substitution, then to
  // enumeration). The reference cache memoizes the C kernel's outputs per
  // (shape, input) across that loop — they are candidate-independent, so
  // re-verifying fallback candidates only re-evaluates the TACO side.
  //
  // Kernel-derived, not a config knob: the static bounds proof (when it
  // exists) lets every reference run skip its dynamic range checks. See
  // the configFingerprint note below.
  verify::VerifyOptions Verify = Config.Verify;
  Verify.TrustStaticBounds = Check.BoundsProvenSafe;

  // The probe owns the validator, the reference cache, and the slot holding
  // the instantiation that made it return true.
  validate::Validator V(B, Examples, Summary.Constants);
  verify::ReferenceCache VerifyCache;
  taco::Program Concrete;
  search::TemplateProbe Probe = [&](const taco::Program &Template) {
    std::vector<validate::Instantiation> Valid = V.validate(Template);
    for (validate::Instantiation &Inst : Valid) {
      if (!Config.SkipVerification) {
        verify::VerifyResult VR = verify::verifyEquivalence(
            B, Fn, Inst.Concrete, Verify, &VerifyCache);
        if (!VR.Equivalent)
          continue;
      }
      Concrete = std::move(Inst.Concrete);
      return true;
    }
    return false;
  };

  // Templates the validator would reject on rank alone are settled on the
  // search state and never reach the probe; every counter is unchanged.
  const uint64_t Ranks = validate::bindableRanks(B);
  search::SearchResult SR =
      Config.Kind == SearchKind::TopDown
          ? search::runTopDown(Grammar, Config.Search, Probe, Ranks)
          : search::runBottomUp(Grammar, Config.Search, Probe, Ranks);

  Result.Solved = SR.Solved;
  Result.Verified = SR.Solved && !Config.SkipVerification;
  Result.Template = std::move(SR.SolvedTemplate);
  if (SR.Solved)
    Result.Concrete = std::move(Concrete);
  Result.Attempts = SR.Attempts;
  Result.Expansions = SR.Expansions;
  Result.FailReason = SR.Solved ? "" : SR.FailReason;
  Result.Seconds = Clock.seconds();
  Result.SearchSeconds = Result.Seconds - Result.ParseSeconds -
                         Result.OracleSeconds - Result.GrammarSeconds;
  return Result;
}

std::string core::describeResult(const bench::Benchmark &B,
                                 const LiftResult &R) {
  std::string Line = B.Name + ": ";
  if (R.Solved) {
    Line += "OK  " + taco::printProgram(R.Concrete);
  } else {
    Line += "FAIL (" + R.FailReason + ")";
  }
  Line += "  [" + std::to_string(R.Seconds * 1e3) + " ms, " +
          std::to_string(R.Attempts) + " attempts]";
  return Line;
}

std::string core::configFingerprint(const StaggConfig &Config) {
  // Every field that can change what liftBenchmark returns appears here.
  // Knobs that only change how fast it gets there do not: the serving knobs
  // in Config.Serve (queue depth, cache shape, transport limits), and the
  // ignored fields UseVm, UseVmOpt and Search.Threads, so configurations
  // that differ only in them share cache entries. Adding a result-affecting
  // knob without extending this list is a cache-correctness bug, which
  // ConfigPatch.FingerprintCoversResultAffectingKnobs guards against for
  // the knobs reachable from the wire protocol. The version prefix changes
  // whenever the token set does, so journal entries keyed under an older
  // layout can never alias a new key.
  std::string F = "v2";
  auto Add = [&F](const std::string &Token) {
    F += '|';
    F += Token;
  };
  Add(Config.Kind == SearchKind::TopDown ? "td" : "bu");
  Add(std::to_string(Config.NumCandidates));
  Add(std::to_string(Config.NumIoExamples));
  Add(std::to_string(Config.ExampleSeed));
  Add(Config.SkipVerification ? "noverify" : "verify");
  const grammar::GrammarOptions &G = Config.Grammar;
  Add(std::string(G.FullGrammar ? "fg" : "-") +
      (G.EqualProbability ? "ep" : "-"));
  Add(std::to_string(G.FullGrammarTensors));
  Add(std::to_string(G.FullGrammarMaxDim));
  const search::SearchConfig &S = Config.Search;
  std::string Penalties;
  for (bool P : {S.PenaltyA1, S.PenaltyA2, S.PenaltyA3, S.PenaltyA4,
                 S.PenaltyA5, S.PenaltyB1, S.PenaltyB2})
    Penalties += P ? '1' : '0';
  Add(Penalties);
  Add(std::to_string(S.MaxDepth));
  Add(std::to_string(S.TimeoutSeconds));
  Add(std::to_string(S.MaxExpansions));
  Add(std::to_string(S.MaxAttempts));
  const verify::VerifyOptions &V = Config.Verify;
  Add(std::to_string(V.MaxSize));
  Add(std::to_string(V.RandomTrials));
  Add(std::to_string(V.MaxOneHot));
  Add(V.OneHotOnlyMultiplied ? "ohm" : "ohx");
  Add(std::to_string(V.Seed));
  // V.TrustStaticBounds is deliberately absent: liftBenchmark derives it
  // from the kernel itself (the checker's bounds proof), so for a given
  // (kernel, config) cache key it is a constant, not a knob.
  return F;
}
