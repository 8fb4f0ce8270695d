//===- tests/CandidateOrderTest.cpp - Candidate order and the rank mask ---===//
//
// The enumeration contract below the sweep goldens. The sweeps pin only the
// candidate each lift accepts; these tests pin every candidate the top-down
// and bottom-up streams yield (ticket, attempts and printed program), and
// check that the rank mask handed to the searches drops exactly the
// candidates the validator rejects on rank, and changes nothing else.
//
//===----------------------------------------------------------------------===//

#include "LiftGrammar.h"
#include "TopDownReference.h"

#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "grammar/DimensionList.h"
#include "grammar/Template.h"
#include "search/BottomUp.h"
#include "search/CostModel.h"
#include "search/Frontier.h"
#include "search/TopDown.h"
#include "support/Rng.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "validate/Validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace stagg;

namespace {

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

namespace {

/// Drives the search's top-down stream and the eager reference
/// (tests/TopDownReference.h) side by side until both end: every candidate
/// (program, ticket, attempts, expansions) and the terminal reason and
/// counters must agree.
void expectReferenceOrder(const grammar::TemplateGrammar &G,
                          const search::SearchConfig &Config,
                          const std::string &Where) {
  auto Want = search::reference::makeTopDownStream(G, Config);
  auto Got = search::makeTopDownStream(G, Config);
  search::Candidate W, C;
  for (uint64_t I = 0;; ++I) {
    const bool WantMore = Want->next(W);
    ASSERT_EQ(WantMore, Got->next(C)) << Where << " #" << I;
    if (!WantMore)
      break;
    ASSERT_EQ(W.Ticket, C.Ticket) << Where << " #" << I;
    ASSERT_EQ(W.AttemptsAtYield, C.AttemptsAtYield) << Where << " #" << I;
    ASSERT_EQ(W.ExpansionsAtYield, C.ExpansionsAtYield) << Where << " #" << I;
    ASSERT_TRUE(taco::programEquals(W.Program, C.Program))
        << Where << " #" << I << ": " << taco::printProgram(W.Program)
        << " vs " << taco::printProgram(C.Program);
  }
  EXPECT_EQ(Want->failReason(), Got->failReason()) << Where;
  EXPECT_EQ(Want->attempts(), Got->attempts()) << Where;
  EXPECT_EQ(Want->expansions(), Got->expansions()) << Where;
}

struct ReferenceCase {
  std::string Name;
  grammar::GrammarOptions Grammar;
  search::SearchConfig Search;
};

/// The sweep's configurations: the default, the grammar and depth
/// ablations, each top-down penalty dropped, and the full grammar under a
/// smaller attempt cap. The eager reference holds every scored child, so
/// each case also caps expansions to keep its queue small: about 14 entries
/// per expansion over the refined grammars, and about 141 over the full
/// one, where misc_gemv_pair's queue reaches 39M entries (about 2 GB) by
/// its 2,000th attempt.
std::vector<ReferenceCase> referenceCases() {
  search::SearchConfig Capped = untimedConfig();
  Capped.MaxExpansions = 20'000;
  std::vector<ReferenceCase> Cases;
  const grammar::GrammarOptions Refined = core::StaggConfig().Grammar;
  Cases.push_back({"default", Refined, Capped});
  Cases.push_back({"equal-probability", Refined, Capped});
  Cases.back().Grammar.EqualProbability = true;
  Cases.push_back({"max-depth 4", Refined, Capped});
  Cases.back().Search.MaxDepth = 4;
  bool search::SearchConfig::*Penalties[] = {
      &search::SearchConfig::PenaltyA1, &search::SearchConfig::PenaltyA2,
      &search::SearchConfig::PenaltyA3, &search::SearchConfig::PenaltyA4,
      &search::SearchConfig::PenaltyA5};
  for (int A = 0; A < 5; ++A) {
    Cases.push_back({"drop a" + std::to_string(A + 1), Refined, Capped});
    Cases.back().Search.*Penalties[A] = false;
  }
  Cases.push_back({"full-grammar", Refined, Capped});
  Cases.back().Grammar.FullGrammar = true;
  Cases.back().Search.MaxAttempts = 2000;
  Cases.back().Search.MaxExpansions = 5'000;
  return Cases;
}

/// A one-symbol grammar over b(i), b(j), ... with the given rule costs,
/// learned + and -, and round probabilities: tensor leaf 1 + rule cost, bin
/// 4, hole charge 2, operator 1.
grammar::TemplateGrammar handGrammar(std::vector<int> DimList,
                                     std::vector<double> RuleCosts) {
  grammar::TemplateGrammar G;
  G.Lhs = taco::AccessExpr("a", {"i"});
  G.DimList = std::move(DimList);
  G.NumIndexVars = static_cast<int>(RuleCosts.size());
  for (size_t I = 0; I < RuleCosts.size(); ++I) {
    grammar::TensorRule R;
    R.Symbol = "b";
    R.Indices = {std::string(1, static_cast<char>('i' + I))};
    R.Prob = 0.5;
    R.Cost = RuleCosts[I];
    G.TensorRules.push_back(R);
  }
  G.PExprTensor = 0.5;
  G.PExprBin = 1.0 / 16;
  G.POp[static_cast<int>(taco::BinOpKind::Add)] = 0.5;
  G.POp[static_cast<int>(taco::BinOpKind::Sub)] = 0.5;
  G.LearnedOps = {taco::BinOpKind::Add};
  return G;
}

} // namespace

// The partial-expansion queue against the eager one over every registry
// grammar: the same candidates in the same order with the same counters,
// and the same end. The (case, kernel) pairs are independent, so a few
// threads share them.
TEST(CandidateOrder, TopDownMatchesEagerReferenceAcrossRegistry) {
  const std::vector<ReferenceCase> Cases = referenceCases();
  const std::vector<bench::Benchmark> &Kernels = bench::allBenchmarks();
  const size_t Jobs = Cases.size() * Kernels.size();
  std::atomic<size_t> NextJob{0};
  auto Work = [&] {
    for (size_t J = NextJob++; J < Jobs; J = NextJob++) {
      const ReferenceCase &Case = Cases[J / Kernels.size()];
      const bench::Benchmark &B = Kernels[J % Kernels.size()];
      expectReferenceOrder(liftGrammar(B, Case.Grammar), Case.Search,
                           B.Name + " " + Case.Name);
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned T = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
       T > 0; --T)
    Workers.emplace_back(Work);
  for (std::thread &T : Workers)
    T.join();
}

// Two leaves whose static costs differ, in the opposite order of their rule
// indices, reach the same bound (c + cost) + g once c is large enough for
// the difference to round away. They tie on F there, so the eager queue
// takes the lower index first; the partial expansion must score both
// before it emits either.
TEST(CandidateOrder, LeavesSharingABoundAreScoredTogether) {
  grammar::TemplateGrammar G = handGrammar({1, 1, 1}, {1 + 0x1p-51, 1});

  // Under the first bin, the left operand's two leaves share a bound.
  search::CostModel Costs(G);
  const double Leaf0 = Costs.costExprTensor() + G.TensorRules[0].Cost;
  const double Leaf1 = Costs.costExprTensor() + G.TensorRules[1].Cost;
  const double C = Costs.costExprBin();
  const double LeafG = Costs.holeCharge() + Costs.opHoleCharge();
  ASSERT_GT(Leaf0, Leaf1);
  ASSERT_EQ(C + Leaf0 + LeafG, C + Leaf1 + LeafG);

  search::SearchConfig Config = untimedConfig();
  Config.MaxExpansions = 20'000;
  expectReferenceOrder(G, Config, "two leaves on one bound");
}

// The root's bin child scores exactly the bound of its one leaf, which
// completes the template with no penalty: they tie on F, and the leaf's
// lower production position goes first. A scored child equal to the bound
// must wait until the leaves on that bound are scored.
TEST(CandidateOrder, AChildOnALeafBoundWaitsForTheLeaf) {
  grammar::TemplateGrammar G = handGrammar({1, 1}, {108});

  // bin: c 4, g = 2 holes * 2 + 1 operator, a2's 100 (three tensors can no
  // longer make the length of two).
  search::CostModel Costs(G);
  const double Bin = Costs.costExprBin() + 2 * Costs.holeCharge() +
                     Costs.opHoleCharge() + 100;
  ASSERT_EQ(Costs.costExprTensor() + G.TensorRules[0].Cost, Bin);

  search::SearchConfig Config = untimedConfig();
  Config.MaxExpansions = 20'000;
  expectReferenceOrder(G, Config, "bin on the leaf's bound");
}
