//===- tests/VerifierTest.cpp - Bounded equivalence checking (§7) ---------===//

#include "verify/BoundedVerifier.h"

#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "grammar/Template.h"
#include "llm/Prompt.h"
#include "llm/ResponseParser.h"
#include "llm/SimulatedLlm.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"

#include <cstdio>
#include <optional>
#include <gtest/gtest.h>

using namespace stagg;
using namespace stagg::verify;

namespace {

struct Fixture {
  const bench::Benchmark *B;
  std::unique_ptr<cfront::CFunction> Fn;

  explicit Fixture(const std::string &Name) {
    B = bench::findBenchmark(Name);
    EXPECT_NE(B, nullptr) << Name;
    cfront::CParseResult R = cfront::parseCFunction(B->CSource);
    EXPECT_TRUE(R.ok()) << R.Error;
    Fn = std::move(R.Function);
  }

  VerifyResult verify(const std::string &Candidate) {
    taco::ParseResult P = taco::parseTacoProgram(Candidate);
    EXPECT_TRUE(P.ok()) << Candidate;
    return verifyEquivalence(*B, *Fn, *P.Prog);
  }
};

/// FNV-1a over \p Text, continuing from \p H.
uint64_t fnv1a(uint64_t H, const std::string &Text) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// One verdict as the golden hashes it.
std::string verdictLine(const VerifyResult &R) {
  return std::string(R.Equivalent ? "equivalent" : "rejected") + " " +
         std::to_string(R.TestsRun) + " " + R.Counterexample;
}

/// Rank of every tensor access in \p E (the first access of a name wins).
void accessRanks(const taco::Expr &E, std::map<std::string, int> &Ranks) {
  switch (E.kind()) {
  case taco::Expr::Kind::Access: {
    const auto &A = taco::exprCast<taco::AccessExpr>(E);
    Ranks.emplace(A.name(), static_cast<int>(A.order()));
    return;
  }
  case taco::Expr::Kind::Binary: {
    const auto &B = taco::exprCast<taco::BinaryExpr>(E);
    accessRanks(B.lhs(), Ranks);
    accessRanks(B.rhs(), Ranks);
    return;
  }
  case taco::Expr::Kind::Negate:
    accessRanks(taco::exprCast<taco::NegateExpr>(E).operand(), Ranks);
    return;
  case taco::Expr::Kind::Max: {
    const auto &M = taco::exprCast<taco::MaxExpr>(E);
    accessRanks(M.lhs(), Ranks);
    accessRanks(M.rhs(), Ranks);
    return;
  }
  case taco::Expr::Kind::Constant:
    return;
  }
}

/// A simulated-LLM guess for \p B that differs from its ground truth \p
/// Truth once its tensor symbols are bound: the LHS symbol to the output,
/// each other symbol to the next non-output data argument of its rank
/// (round robin; positionally when no argument has that rank). The first
/// guess whose every rank fits wins, else the first that differs at all.
/// Such a guess is usually wrong — an operator swap, a transposed or
/// missing access, a wrong rank — which is what the verifier has to reject.
std::optional<taco::Program> mutatedCandidate(const bench::Benchmark &B,
                                              const std::string &Truth) {
  llm::SimulatedLlm Oracle(2024);
  llm::OracleTask Task;
  Task.Query = &B;
  Task.Prompt = llm::buildPrompt(B.CSource, 10);
  llm::ParsedResponses Guesses = llm::parseResponses(Oracle.propose(Task));
  const bench::ArgSpec &Out = *B.outputArg();
  std::vector<const bench::ArgSpec *> Pool;
  for (const bench::ArgSpec &Arg : B.Args)
    if (!Arg.IsOutput && Arg.K != bench::ArgSpec::Kind::SizeScalar)
      Pool.push_back(&Arg);
  std::optional<taco::Program> Fallback;
  for (const taco::Program &Guess : Guesses.Programs) {
    if (!taco::checkWellFormed(Guess).empty())
      continue;
    grammar::Templatized T = grammar::templatize(Guess);
    std::map<std::string, int> Ranks;
    if (T.Template.Rhs)
      accessRanks(*T.Template.Rhs, Ranks);
    const std::string &LhsSymbol = T.Template.Lhs.name();
    bool Fits = static_cast<int>(T.Template.Lhs.order()) == Out.rank();
    std::map<std::string, std::string> Binding{{LhsSymbol, Out.Name}};
    std::map<int, size_t> NextOfRank;
    size_t NextAny = 0;
    for (const auto &[Symbol, Rank] : Ranks) {
      if (Symbol == LhsSymbol)
        continue;
      if (Pool.empty()) {
        Binding[Symbol] = Out.Name;
        Fits = false;
        continue;
      }
      std::vector<const bench::ArgSpec *> OfRank;
      for (const bench::ArgSpec *Arg : Pool)
        if (Arg->rank() == Rank)
          OfRank.push_back(Arg);
      Fits = Fits && !OfRank.empty();
      Binding[Symbol] =
          OfRank.empty() ? Pool[NextAny++ % Pool.size()]->Name
                         : OfRank[NextOfRank[Rank]++ % OfRank.size()]->Name;
    }
    taco::Program P = validate::instantiateTemplate(T.Template, Binding,
                                                    T.ReplacedConstants);
    if (taco::printProgram(P) == Truth)
      continue;
    if (Fits)
      return P;
    if (!Fallback)
      Fallback = std::move(P);
  }
  return Fallback;
}

} // namespace

TEST(Verifier, AcceptsGroundTruths) {
  // Every registry kernel's own ground truth, statement lists included.
  int Swept = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    Fixture F(B.Name);
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    ASSERT_TRUE(GT.ok()) << B.Name << ": " << GT.Error;
    VerifyResult R = GT.Programs.size() == 1
                         ? verifyEquivalence(B, *F.Fn, GT.Programs[0])
                         : verifyEquivalence(B, *F.Fn, GT.Programs);
    EXPECT_TRUE(R.Equivalent) << B.Name << ": " << R.Counterexample;
    EXPECT_GT(R.TestsRun, 0) << B.Name;
    ++Swept;
  }
  EXPECT_GE(Swept, 80); // the full registry, not a subset
}

TEST(Verifier, RejectsWrongOperator) {
  Fixture F("art_add");
  VerifyResult R = F.verify("out(i) = a(i) - b(i)");
  EXPECT_FALSE(R.Equivalent);
  EXPECT_FALSE(R.Counterexample.empty());
}

TEST(Verifier, RejectsTransposedAccess) {
  Fixture F("art_matmul");
  VerifyResult R = F.verify("out(i,j) = A(i,k) * B(j,k)");
  EXPECT_FALSE(R.Equivalent);
}

TEST(Verifier, RejectsIoCoincidences) {
  // x + x agrees with 2*x; x * x does not, and one-hot probing sees it.
  Fixture F("art_scal_const");
  EXPECT_TRUE(F.verify("out(i) = x(i) + x(i)").Equivalent);
  EXPECT_FALSE(F.verify("out(i) = x(i) * x(i)").Equivalent);
}

TEST(Verifier, RationalDivisionExactness) {
  Fixture F("art_div_const");
  EXPECT_TRUE(F.verify("out(i) = x(i) / 4").Equivalent);
  EXPECT_FALSE(F.verify("out(i) = x(i) / 3").Equivalent);
}

TEST(Verifier, AcceptsAlgebraicallyEquivalentForm) {
  // (a + b) / 2 == a/2 + b/2 over rationals; both must verify.
  Fixture F("dk_avg_pair");
  EXPECT_TRUE(F.verify("out(i) = (a(i) + b(i)) / 2").Equivalent);
  EXPECT_TRUE(F.verify("out(i) = a(i) / 2 + b(i) / 2").Equivalent);
}

TEST(Verifier, CatchesScaleFactorErrors) {
  Fixture F("dk_mean_array");
  EXPECT_TRUE(F.verify("out = x(i) / N").Equivalent);
  EXPECT_FALSE(F.verify("out = x(i)").Equivalent);
}

TEST(Verifier, CountsTests) {
  Fixture F("art_copy");
  VerifyOptions Options;
  Options.MaxSize = 3;
  taco::ParseResult P = taco::parseTacoProgram(F.B->GroundTruth);
  VerifyResult R = verifyEquivalence(*F.B, *F.Fn, *P.Prog, Options);
  EXPECT_TRUE(R.Equivalent);
  EXPECT_GT(R.TestsRun, 20);
}

TEST(Verifier, ReportsReadableCounterexample) {
  Fixture F("art_add");
  VerifyResult R = F.verify("out(i) = a(i) + a(i)");
  ASSERT_FALSE(R.Equivalent);
  EXPECT_NE(R.Counterexample.find("C="), std::string::npos);
  EXPECT_NE(R.Counterexample.find("TACO="), std::string::npos);
}

TEST(Verifier, PinsCounterexampleText) {
  // The first failing test and its witness, byte for byte: the sweep order
  // and the witness format are part of the verifier's contract.
  Fixture F("blas_gemv_ptr");
  VerifyResult R = F.verify("Result(i) = Mat1(j,i) * Mat2(j)");
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 15);
  EXPECT_EQ(R.Counterexample, "output[0]: C=2 vs TACO=0 for candidate "
                              "Result(i) = Mat1(j,i) * Mat2(j)");
}

TEST(Verifier, UncompilableCandidateFailsWithDiagnostic) {
  // A candidate whose structure does not compile (no RHS) fails its first
  // test with the compiler's diagnostic, in both entry points.
  Fixture F("art_add");
  taco::Program NoRhs(taco::AccessExpr("out", {"i"}), nullptr);
  const std::string Witness =
      "candidate failed to evaluate: program has no RHS";
  VerifyResult R = verifyEquivalence(*F.B, *F.Fn, NoRhs);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 1);
  EXPECT_EQ(R.Counterexample, Witness);

  R = verifyEquivalence(*F.B, *F.Fn, std::vector<taco::Program>{NoRhs});
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 1);
  EXPECT_EQ(R.Counterexample, Witness);
}

TEST(Verifier, HandlesScalarOutputs) {
  Fixture F("blas_dot");
  EXPECT_TRUE(F.verify("out = x(i) * y(i)").Equivalent);
  EXPECT_FALSE(F.verify("out = x(i) + y(i)").Equivalent);
}

TEST(Verifier, MaxCandidatesVerifyAgainstGuardedKernels) {
  Fixture F("relu_forward");
  EXPECT_TRUE(F.verify("out(i) = max(x(i), 0)").Equivalent);
  EXPECT_TRUE(F.verify("out(i) = max(0, x(i))").Equivalent);
  // A plain copy disagrees on negative inputs.
  EXPECT_FALSE(F.verify("out(i) = x(i)").Equivalent);
}

TEST(Verifier, StatementListsExecuteAsOneProgram) {
  Fixture F("fused_sq_add");
  taco::ParseStatementsResult Seq = taco::parseTacoStatements(
      "out(i) = x(i) * x(i); out(i) = out(i) + y(i)");
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  VerifyResult R = verifyEquivalence(*F.B, *F.Fn, Seq.Programs);
  EXPECT_TRUE(R.Equivalent) << R.Counterexample;

  // Statement order matters: reversing the list reads y into the square.
  taco::ParseStatementsResult Wrong = taco::parseTacoStatements(
      "out(i) = out(i) + y(i); out(i) = x(i) * x(i)");
  ASSERT_TRUE(Wrong.ok());
  VerifyResult W = verifyEquivalence(*F.B, *F.Fn, Wrong.Programs);
  EXPECT_FALSE(W.Equivalent);
  EXPECT_NE(W.Counterexample.find("; "), std::string::npos)
      << "statement-list witnesses print the whole list: "
      << W.Counterexample;
}

TEST(Verifier, RegistryVerdictGolden) {
  // Verdict, test count and witness of every registry ground truth and of
  // one simulated-LLM mutant per kernel, through one reference cache per
  // kernel as in a lift, hashed into one value. The value was recorded
  // before the C reference was slot-resolved and the sweep moved onto
  // per-shape buffers; both changes must leave every verdict byte-identical.
  uint64_t H = 0xcbf29ce484222325ULL;
  int Kernels = 0, Mutants = 0, Rejected = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    Fixture F(B.Name);
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    ASSERT_TRUE(GT.ok()) << B.Name;
    ReferenceCache Cache;
    VerifyResult Truth =
        GT.Programs.size() == 1
            ? verifyEquivalence(B, *F.Fn, GT.Programs[0], VerifyOptions(),
                                &Cache)
            : verifyEquivalence(B, *F.Fn, GT.Programs, VerifyOptions(),
                                &Cache);
    H = fnv1a(H, B.Name + "|" + verdictLine(Truth) + "\n");
    std::optional<taco::Program> Mutant =
        mutatedCandidate(B, taco::printProgram(GT.Programs[0]));
    if (Mutant) {
      VerifyResult R =
          verifyEquivalence(B, *F.Fn, *Mutant, VerifyOptions(), &Cache);
      H = fnv1a(H, taco::printProgram(*Mutant) + "|" + verdictLine(R) + "\n");
      ++Mutants;
      Rejected += R.Equivalent ? 0 : 1;
    }
    ++Kernels;
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  EXPECT_EQ(Kernels, 87);
  EXPECT_EQ(Mutants, 87);
  EXPECT_EQ(Rejected, 87);
  EXPECT_EQ(std::string(Hex), "ce277adea7f79d30");
}

TEST(Verifier, RationalOverflowNeverVerifies) {
  // Kernels whose bounded sweep leaves int64: the reference's overflowed
  // cells fail the test with a fixed witness instead of wrapping.
  bench::Benchmark B;
  B.Name = "overflow_probe";
  B.Args = {bench::ArgSpec::size("N"), bench::ArgSpec::array("x", {"N"}),
            bench::ArgSpec::output("out", {"N"})};

  // x * 2^65 wraps to 0 for every integer and half input, so wrapping
  // arithmetic would call the zero candidate equivalent.
  B.CSource = "void kernel(int N, float* x, float* out) {"
              "  for (int i = 0; i < N; i++)"
              "    out[i] = x[i] * 8589934592 * 4294967296; }";
  cfront::CParseResult Scaled = cfront::parseCFunction(B.CSource);
  ASSERT_TRUE(Scaled.ok()) << Scaled.Error;
  taco::ParseResult Zero = taco::parseTacoProgram("out(i) = x(i) * 0");
  ASSERT_TRUE(Zero.ok());
  VerifyResult R = verifyEquivalence(B, *Scaled.Function, *Zero.Prog);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 1);
  EXPECT_EQ(R.Counterexample, "rational overflow in C reference");

  // Repeated squaring: x^128 of a one-hot 2 is 2^128.
  B.CSource = "void kernel(int N, float* x, float* out) {"
              "  for (int i = 0; i < N; i++) {"
              "    float v = x[i];"
              "    for (int k = 0; k < 7; k++) v = v * v;"
              "    out[i] = v; } }";
  cfront::CParseResult Squared = cfront::parseCFunction(B.CSource);
  ASSERT_TRUE(Squared.ok()) << Squared.Error;
  taco::ParseResult Copy = taco::parseTacoProgram("out(i) = x(i)");
  ASSERT_TRUE(Copy.ok());
  R = verifyEquivalence(B, *Squared.Function, *Copy.Prog);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 2);
  EXPECT_EQ(R.Counterexample, "rational overflow in C reference");

  // The same overflow on the candidate side.
  std::string Pow = "x(i)";
  for (int I = 0; I < 64; ++I)
    Pow += " * x(i)";
  taco::ParseResult Big = taco::parseTacoProgram("out(i) = " + Pow);
  ASSERT_TRUE(Big.ok());
  cfront::CParseResult Plain = cfront::parseCFunction(
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ASSERT_TRUE(Plain.ok());
  R = verifyEquivalence(B, *Plain.Function, *Big.Prog);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_EQ(R.TestsRun, 2);
  EXPECT_EQ(R.Counterexample, "rational overflow in candidate");
}
