//===- tests/LiftGrammar.h - The grammar a registry lift searches -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steps 1-5 of core::liftBenchmark with the CLI's default oracle seed, so
/// the tests that drive a search directly run over the grammars the sweep
/// goldens run over.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TESTS_LIFTGRAMMAR_H
#define STAGG_TESTS_LIFTGRAMMAR_H

#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "taco/Semantics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace stagg {

/// The CLI's default oracle seed.
constexpr uint64_t LiftOracleSeed = 20250411;

/// The grammar the search for \p B runs over, built with \p Options.
inline grammar::TemplateGrammar
liftGrammar(const bench::Benchmark &B,
            const grammar::GrammarOptions &Options = core::StaggConfig().Grammar) {
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  EXPECT_TRUE(Parsed.ok()) << B.Name;
  analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
  core::StaggConfig Config;
  llm::SimulatedLlm Oracle(LiftOracleSeed);
  llm::OracleTask Task;
  Task.Query = &B;
  Task.Prompt = llm::buildPrompt(B.CSource, Config.NumCandidates);
  Task.NumCandidates = Config.NumCandidates;
  llm::ParsedResponses Responses = llm::parseResponses(Oracle.propose(Task));
  std::vector<grammar::Templatized> Templates;
  for (const taco::Program &P : Responses.Programs)
    if (taco::checkWellFormed(P).empty())
      Templates.push_back(grammar::templatize(P));
  int LhsDim = Model.Summary.LhsDim;
  return grammar::buildTemplateGrammar(
      Templates, grammar::predictDimensionList(Templates, LhsDim), LhsDim,
      Options);
}

} // namespace stagg

#endif // STAGG_TESTS_LIFTGRAMMAR_H
