//===- tests/VerifierTest.cpp - Bounded equivalence checking (§7) ---------===//

#include "verify/BoundedVerifier.h"

#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "taco/Parser.h"

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
