//===- tests/CandidateOrderTest.cpp - Candidate order and the rank mask ---===//
//
// The enumeration contract below the sweep goldens. The sweeps pin only the
// candidate each lift accepts; these tests pin every candidate the top-down
// and bottom-up streams yield (ticket, attempts and printed program), and
// check that the rank mask handed to the searches drops exactly the
// candidates the validator rejects on rank, and changes nothing else.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "search/BottomUp.h"
#include "search/Frontier.h"
#include "search/TopDown.h"
#include "support/Rng.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace stagg;

namespace {

/// The CLI's default oracle seed, so the grammars are the ones the sweep
/// goldens run over.
constexpr uint64_t OracleSeed = 20250411;

/// Steps 1-5 of core::liftBenchmark: the grammar the search for \p B runs
/// over.
grammar::TemplateGrammar liftGrammar(const bench::Benchmark &B) {
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  EXPECT_TRUE(Parsed.ok()) << B.Name;
  analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
  core::StaggConfig Config;
  llm::SimulatedLlm Oracle(OracleSeed);
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
      Config.Grammar);
}

/// The grammar of `stagg bench`'s micro/topdown_enumeration_deep.
grammar::TemplateGrammar deepGrammar() {
  std::vector<grammar::Templatized> T;
  for (const char *S : {"r(i,j) = x(i,k) * y(k,l) * z(l,j)",
                        "r(i,j) = x(i,k) * (y(k,l) * z(l,j))",
                        "r(i,j) = x(k,i) * y(k,l) * z(l,j)"})
    T.push_back(grammar::templatize(*taco::parseTacoProgram(S).Prog));
  T = grammar::dedupTemplates(T);
  return grammar::buildTemplateGrammar(T, grammar::predictDimensionList(T, 2),
                                       2, grammar::GrammarOptions());
}

std::unique_ptr<search::CandidateStream>
makeStream(bool BottomUp, const grammar::TemplateGrammar &G,
           const search::SearchConfig &Config, uint64_t Ranks) {
  return BottomUp ? search::makeBottomUpStream(G, Config, Ranks)
                  : search::makeTopDownStream(G, Config, Ranks);
}

/// A yielded candidate, printed.
struct Pulled {
  uint64_t Ticket;
  int Attempts;
  int64_t Expansions;
  std::string Program;
};

/// Pulls up to \p Max candidates; Ended says whether the stream ran out.
struct Pulls {
  std::vector<Pulled> Candidates;
  bool Ended = false;
};

Pulls pull(search::CandidateStream &S, size_t Max) {
  Pulls Out;
  search::Candidate C;
  while (Out.Candidates.size() < Max) {
    if (!S.next(C)) {
      Out.Ended = true;
      break;
    }
    Out.Candidates.push_back({C.Ticket, C.AttemptsAtYield, C.ExpansionsAtYield,
                              taco::printProgram(C.Program)});
  }
  return Out;
}

/// FNV-1a over the candidates' tickets, attempts and programs, then where
/// the pull stopped. Matches what a recording probe sees at the commit the
/// expected values were captured from, where every attempt was probed.
uint64_t orderHash(const Pulls &P, const search::CandidateStream &S) {
  uint64_t H = 1469598103934665603ull;
  auto Add = [&H](const std::string &Text) {
    for (unsigned char C : Text) {
      H ^= C;
      H *= 1099511628211ull;
    }
  };
  for (const Pulled &C : P.Candidates)
    Add(std::to_string(C.Ticket) + " " + std::to_string(C.Attempts) + " " +
        C.Program + "\n");
  if (P.Ended)
    Add("end " + S.failReason() + " " + std::to_string(S.attempts()) + " " +
        std::to_string(S.expansions()) + "\n");
  else
    Add("stop " + std::to_string(P.Candidates.back().Expansions) + "\n");
  return H;
}

search::SearchConfig untimedConfig() {
  search::SearchConfig Config;
  Config.TimeoutSeconds = 1e9; // Orders must not depend on the host.
  return Config;
}

/// The candidates of the all-ranks sequence \p All the validator does not
/// reject on rank, which the masked stream must yield, renumbered.
std::vector<Pulled> rankFeasible(const std::vector<Pulled> &All,
                                 const validate::Validator &V) {
  std::vector<Pulled> Kept;
  for (const Pulled &C : All) {
    taco::ParseResult R = taco::parseTacoProgram(C.Program);
    EXPECT_TRUE(R.ok()) << C.Program;
    if (!V.rejectsOnRank(*R.Prog))
      Kept.push_back({Kept.size(), C.Attempts, C.Expansions, C.Program});
  }
  return Kept;
}

void expectSame(const std::vector<Pulled> &Want, const std::vector<Pulled> &Got,
                const std::string &Where) {
  ASSERT_EQ(Want.size(), Got.size()) << Where;
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Want[I].Ticket, Got[I].Ticket) << Where << " #" << I;
    EXPECT_EQ(Want[I].Attempts, Got[I].Attempts) << Where << " #" << I;
    EXPECT_EQ(Want[I].Expansions, Got[I].Expansions) << Where << " #" << I;
    ASSERT_EQ(Want[I].Program, Got[I].Program) << Where << " #" << I;
  }
}

/// The masked stream against the all-ranks one over the all-ranks stream's
/// first \p Max candidates: the same candidates minus exactly those the
/// validator rejects on rank, with the same counters, and (when the
/// all-ranks stream ran out) the same terminal state.
void expectMaskDropsExactlyRankRejections(const bench::Benchmark &B,
                                          const grammar::TemplateGrammar &G,
                                          bool BottomUp, size_t Max) {
  const std::string Where = B.Name + (BottomUp ? " bu" : " td");
  search::SearchConfig Config = untimedConfig();
  validate::Validator V(B, {}, {});
  auto All = makeStream(BottomUp, G, Config, search::AllRanksBindable);
  Pulls Every = pull(*All, Max);
  for (size_t I = 0; I < Every.Candidates.size(); ++I)
    ASSERT_EQ(Every.Candidates[I].Attempts, static_cast<int>(I) + 1)
        << Where << ": the all-ranks stream must yield every attempt";

  auto Masked =
      makeStream(BottomUp, G, Config, validate::bindableRanks(B));
  const int Covered =
      Every.Candidates.empty() ? 0 : Every.Candidates.back().Attempts;
  std::vector<Pulled> Got;
  search::Candidate C;
  bool MaskedEnded = false;
  for (;;) {
    if (!Masked->next(C)) {
      MaskedEnded = true;
      break;
    }
    if (!Every.Ended && C.AttemptsAtYield > Covered)
      break;
    Got.push_back({C.Ticket, C.AttemptsAtYield, C.ExpansionsAtYield,
                   taco::printProgram(C.Program)});
  }
  expectSame(rankFeasible(Every.Candidates, V), Got, Where);
  if (Every.Ended) {
    EXPECT_TRUE(MaskedEnded) << Where;
    EXPECT_EQ(All->failReason(), Masked->failReason()) << Where;
    EXPECT_EQ(All->attempts(), Masked->attempts()) << Where;
    EXPECT_EQ(All->expansions(), Masked->expansions()) << Where;
  }
}

struct OrderCase {
  const char *Name; ///< Registry kernel or `stagg bench` micro.
  bool BottomUp;
  size_t Yielded;
  uint64_t Hash;
};

/// Captured with the all-ranks mask at the commit before nodes were built
/// on pop and rank verdicts settled on the step; both must keep every
/// candidate and its position.
const OrderCase OrderGolden[] = {
    {"misc_mm3_chain", false, 3000, 0xbc1b389e148729f2ull},
    {"misc_mm3_chain", true, 3000, 0x7b84c64ebe896e44ull},
    {"blas_axpby", false, 3000, 0x90b40349bdde101aull},
    {"blas_axpby", true, 3000, 0x8cc03b74b15bb29dull},
    {"fused_scale_shift", false, 3000, 0xd2da45d8020c4aefull},
    {"fused_scale_shift", true, 3000, 0xc7fefd50bfa00e87ull},
    {"misc_gemv_pair", false, 3000, 0x57b9bdeb223badc1ull},
    {"misc_gemv_pair", true, 3000, 0x24bb2480b1de117aull},
    {"micro/topdown_enumeration_deep", false, 3000, 0xf86c5896300d8031ull},
    {"micro/topdown_enumeration_deep", true, 3000, 0xcc355ccb2d6ebcc1ull},
};

} // namespace

TEST(CandidateOrder, StreamsYieldTheGoldenSequence) {
  for (const OrderCase &Case : OrderGolden) {
    const bench::Benchmark *B = bench::findBenchmark(Case.Name);
    grammar::TemplateGrammar G = B ? liftGrammar(*B) : deepGrammar();
    search::SearchConfig Config = untimedConfig();
    auto S = makeStream(Case.BottomUp, G, Config, search::AllRanksBindable);
    Pulls P = pull(*S, 3000);
    const std::string Where =
        std::string(Case.Name) + (Case.BottomUp ? " bu" : " td");
    EXPECT_EQ(P.Candidates.size(), Case.Yielded) << Where;
    EXPECT_EQ(orderHash(P, *S), Case.Hash) << Where;
  }
}

// The step's rank verdict against the validator's own, for every complete
// candidate of every registry kernel's first 1000 attempts, both searches:
// the masked stream yields the all-ranks sequence (pinned above for the
// golden kernels) minus exactly the candidates the validator rejects on
// rank.
TEST(RankMask, StepVerdictMatchesValidatorAcrossRegistry) {
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    grammar::TemplateGrammar G = liftGrammar(B);
    for (bool BottomUp : {false, true})
      expectMaskDropsExactlyRankRejections(B, G, BottomUp, 1000);
  }
}

// End to end through the searches with a real validator as the probe (I/O
// acceptance, as with skip_verify): with the mask, no probe sees a template
// the validator rejects on rank, and the outcome and counters are those of
// the all-ranks search.
TEST(RankMask, NoProbeSeesARankInfeasibleTemplate) {
  core::StaggConfig Config;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
    ASSERT_TRUE(Parsed.ok()) << B.Name;
    analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
    Rng ExampleRng(Config.ExampleSeed);
    validate::Validator V(B,
                          validate::generateExamples(B, *Parsed.Function,
                                                     Config.NumIoExamples,
                                                     ExampleRng),
                          Model.Summary.Constants);
    grammar::TemplateGrammar G = liftGrammar(B);
    search::SearchConfig Search = untimedConfig();
    for (bool BottomUp : {false, true}) {
      const std::string Where = B.Name + (BottomUp ? " bu" : " td");
      auto Run = [&](uint64_t Ranks, int &RankRejected) {
        search::TemplateProbe Probe = [&](const taco::Program &P) {
          RankRejected += V.rejectsOnRank(P);
          return !V.validate(P, 1).empty();
        };
        return BottomUp ? search::runBottomUp(G, Search, Probe, Ranks)
                        : search::runTopDown(G, Search, Probe, Ranks);
      };
      int AllRejected = 0, MaskedRejected = 0;
      search::SearchResult All = Run(search::AllRanksBindable, AllRejected);
      search::SearchResult Masked =
          Run(validate::bindableRanks(B), MaskedRejected);
      EXPECT_EQ(MaskedRejected, 0) << Where;
      EXPECT_EQ(All.ProbesExecuted - AllRejected, Masked.ProbesExecuted)
          << Where;
      EXPECT_EQ(All.Solved, Masked.Solved) << Where;
      EXPECT_EQ(taco::printProgram(All.SolvedTemplate),
                taco::printProgram(Masked.SolvedTemplate))
          << Where;
      EXPECT_EQ(All.Attempts, Masked.Attempts) << Where;
      EXPECT_EQ(All.Expansions, Masked.Expansions) << Where;
      EXPECT_EQ(All.FailReason, Masked.FailReason) << Where;
    }
  }
}
