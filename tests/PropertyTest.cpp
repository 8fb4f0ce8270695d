//===- tests/PropertyTest.cpp - Property-based invariants ------------------===//
//
// Randomized/property tests over the core substrates: printer/parser
// round-trips on generated programs, field laws for Rational, ring laws for
// the affine polynomial domain, multilinearity of the einsum evaluator, and
// determinism of the interpreter. Seeds are parameterized so failures are
// reproducible.
//
//===----------------------------------------------------------------------===//

#include "EinsumReference.h"

#include "analysis/Affine.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Interp.h"
#include "cfront/Parser.h"
#include "support/Rational.h"
#include "support/Rng.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

using namespace stagg;
using namespace stagg::taco;

namespace {

/// Generates a random TACO expression over tensors b..e with indices i..k.
ExprPtr randomExpr(Rng &R, int Depth) {
  if (Depth <= 0 || R.chance(0.4)) {
    if (R.chance(0.15))
      return std::make_unique<ConstantExpr>(R.range(1, 9));
    static const char *Names[] = {"b", "c", "d", "e"};
    int Order = static_cast<int>(R.below(3));
    static const char *Vars[] = {"i", "j", "k"};
    std::vector<std::string> Indices;
    for (int I = 0; I < Order; ++I)
      Indices.push_back(Vars[R.below(3)]);
    return std::make_unique<AccessExpr>(Names[R.below(4)], std::move(Indices));
  }
  if (R.chance(0.1))
    return std::make_unique<NegateExpr>(randomExpr(R, Depth - 1));
  static const BinOpKind Ops[] = {BinOpKind::Add, BinOpKind::Sub,
                                  BinOpKind::Mul, BinOpKind::Div};
  return std::make_unique<BinaryExpr>(Ops[R.below(4)], randomExpr(R, Depth - 1),
                                      randomExpr(R, Depth - 1));
}

Rational randomRational(Rng &R) {
  return Rational(R.range(-6, 6), R.range(1, 5));
}

} // namespace

//===----------------------------------------------------------------------===//
// Printer/parser round-trip fuzzing
//===----------------------------------------------------------------------===//

class RoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz,
                         ::testing::Range<uint64_t>(1, 33));

TEST_P(RoundTripFuzz, PrintParsePreservesStructure) {
  Rng R(GetParam());
  for (int Case = 0; Case < 25; ++Case) {
    Program P(AccessExpr("a", {"i"}), randomExpr(R, 3));
    std::string Printed = printProgram(P);
    ParseResult Again = parseTacoProgram(Printed);
    ASSERT_TRUE(Again.ok()) << Printed << ": " << Again.Error;
    EXPECT_TRUE(programEquals(P, *Again.Prog))
        << Printed << " vs " << printProgram(*Again.Prog);
  }
}

//===----------------------------------------------------------------------===//
// Rational field laws
//===----------------------------------------------------------------------===//

class RationalLaws : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RationalLaws,
                         ::testing::Range<uint64_t>(1, 17));

TEST_P(RationalLaws, FieldAxiomsHold) {
  Rng R(GetParam() * 7919);
  for (int Case = 0; Case < 50; ++Case) {
    Rational A = randomRational(R), B = randomRational(R),
             C = randomRational(R);
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + Rational(0), A);
    EXPECT_EQ(A * Rational(1), A);
    EXPECT_EQ(A - A, Rational(0));
    if (!B.isZero()) {
      EXPECT_EQ(A / B * B, A);
    }
  }
}

TEST_P(RationalLaws, OrderingIsConsistentWithArithmetic) {
  Rng R(GetParam() * 104729);
  for (int Case = 0; Case < 50; ++Case) {
    Rational A = randomRational(R), B = randomRational(R);
    if (A == B)
      continue;
    bool Less = A < B;
    EXPECT_NE(Less, B < A);
    EXPECT_EQ(Less, (A - B) < Rational(0));
  }
}

//===----------------------------------------------------------------------===//
// Affine polynomial ring laws
//===----------------------------------------------------------------------===//

namespace {

analysis::Poly randomPoly(Rng &R) {
  static const char *Symbols[] = {"i", "j", "N", "M"};
  analysis::Poly P = analysis::Poly::constant(R.range(-3, 3));
  int Terms = static_cast<int>(R.below(3));
  for (int T = 0; T < Terms; ++T) {
    analysis::Poly Term = analysis::Poly::constant(R.range(-2, 2));
    int Degree = 1 + static_cast<int>(R.below(2));
    for (int D = 0; D < Degree; ++D)
      Term = Term * analysis::Poly::symbol(Symbols[R.below(4)]);
    P = P + Term;
  }
  return P;
}

} // namespace

class PolyLaws : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PolyLaws, ::testing::Range<uint64_t>(1, 17));

TEST_P(PolyLaws, CommutativeRingAxioms) {
  Rng R(GetParam() * 31337);
  for (int Case = 0; Case < 40; ++Case) {
    analysis::Poly A = randomPoly(R), B = randomPoly(R), C = randomPoly(R);
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) * C, A * C + B * C);
    EXPECT_EQ((A - A), analysis::Poly::constant(0));
    EXPECT_EQ(A * analysis::Poly::constant(0), analysis::Poly::constant(0));
  }
}

TEST_P(PolyLaws, SubstitutionCommutesWithArithmetic) {
  Rng R(GetParam() * 65537);
  for (int Case = 0; Case < 30; ++Case) {
    analysis::Poly A = randomPoly(R), B = randomPoly(R);
    analysis::Poly V = analysis::Poly::constant(R.range(-2, 2));
    analysis::Poly Left = (A + B).substitute("i", V);
    analysis::Poly Right = A.substitute("i", V) + B.substitute("i", V);
    EXPECT_EQ(Left, Right);
    EXPECT_EQ((A * B).substitute("i", V),
              A.substitute("i", V) * B.substitute("i", V));
  }
}

//===----------------------------------------------------------------------===//
// Einsum properties
//===----------------------------------------------------------------------===//

class EinsumProperties : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EinsumProperties,
                         ::testing::Range<uint64_t>(1, 9));

TEST_P(EinsumProperties, MatVecIsLinearInEachOperand) {
  Rng R(GetParam() * 17);
  ParseResult P = parseTacoProgram("a(i) = b(i,j) * c(j)");
  ASSERT_TRUE(P.ok());
  const int64_t N = 3, M = 4;

  auto RandomTensor = [&](std::vector<int64_t> Shape) {
    Tensor<double> T(std::move(Shape));
    for (double &V : T.flat())
      V = static_cast<double>(R.range(-4, 4));
    return T;
  };
  auto Eval = [&](const Tensor<double> &B, const Tensor<double> &C) {
    std::map<std::string, Tensor<double>> Ops;
    Ops.emplace("b", B);
    Ops.emplace("c", C);
    auto Result = evalEinsum<double>(*P.Prog, Ops, {N});
    EXPECT_TRUE(Result.Ok);
    return Result.Value;
  };

  for (int Case = 0; Case < 10; ++Case) {
    Tensor<double> B1 = RandomTensor({N, M}), B2 = RandomTensor({N, M});
    Tensor<double> C = RandomTensor({M});
    // eval(B1 + B2, C) == eval(B1, C) + eval(B2, C).
    Tensor<double> BSum({N, M});
    for (size_t I = 0; I < BSum.flat().size(); ++I)
      BSum.flat()[I] = B1.flat()[I] + B2.flat()[I];
    Tensor<double> Lhs = Eval(BSum, C);
    Tensor<double> R1 = Eval(B1, C), R2 = Eval(B2, C);
    for (size_t I = 0; I < Lhs.flat().size(); ++I)
      EXPECT_DOUBLE_EQ(Lhs.flat()[I], R1.flat()[I] + R2.flat()[I]);
  }
}

TEST_P(EinsumProperties, ReductionPlacementMatchesManualSum) {
  // a(i) = B(i,j)*x(j) + d(i): the j-sum must wrap only the product.
  Rng R(GetParam() * 29);
  ParseResult P = parseTacoProgram("a(i) = b(i,j) * c(j) + d(i)");
  ASSERT_TRUE(P.ok());
  const int64_t N = 3, M = 5;
  Tensor<double> B({N, M}), C({M}), D({N});
  for (double &V : B.flat())
    V = static_cast<double>(R.range(-3, 3));
  for (double &V : C.flat())
    V = static_cast<double>(R.range(-3, 3));
  for (double &V : D.flat())
    V = static_cast<double>(R.range(-3, 3));

  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", B);
  Ops.emplace("c", C);
  Ops.emplace("d", D);
  auto Result = evalEinsum<double>(*P.Prog, Ops, {N});
  ASSERT_TRUE(Result.Ok);
  for (int64_t I = 0; I < N; ++I) {
    double Want = D.at({I});
    for (int64_t J = 0; J < M; ++J)
      Want += B.at({I, J}) * C.at({J});
    EXPECT_DOUBLE_EQ(Result.Value.at({I}), Want);
  }
}

TEST_P(EinsumProperties, DoubleAndRationalAgreeOnIntegerInputs) {
  Rng R(GetParam() * 41);
  ParseResult P = parseTacoProgram("a(i,j) = b(i,k) * c(k,j) + d(i,j)");
  ASSERT_TRUE(P.ok());
  const int64_t N = 2, K = 3;
  std::map<std::string, Tensor<double>> OpsD;
  std::map<std::string, Tensor<Rational>> OpsR;
  auto Fill = [&](const std::string &Name, std::vector<int64_t> Shape) {
    Tensor<double> TD(Shape);
    Tensor<Rational> TR(Shape);
    for (size_t I = 0; I < TD.flat().size(); ++I) {
      int64_t V = R.range(-5, 5);
      TD.flat()[I] = static_cast<double>(V);
      TR.flat()[I] = Rational(V);
    }
    OpsD.emplace(Name, std::move(TD));
    OpsR.emplace(Name, std::move(TR));
  };
  Fill("b", {N, K});
  Fill("c", {K, N});
  Fill("d", {N, N});
  auto RD = evalEinsum<double>(*P.Prog, OpsD, {N, N});
  auto RR = evalEinsum<Rational>(*P.Prog, OpsR, {N, N});
  ASSERT_TRUE(RD.Ok);
  ASSERT_TRUE(RR.Ok);
  for (size_t I = 0; I < RD.Value.flat().size(); ++I)
    EXPECT_DOUBLE_EQ(RD.Value.flat()[I], RR.Value.flat()[I].toDouble());
}

//===----------------------------------------------------------------------===//
// Interpreter determinism
//===----------------------------------------------------------------------===//

class InterpDeterminism : public ::testing::TestWithParam<const char *> {};

INSTANTIATE_TEST_SUITE_P(Kernels, InterpDeterminism,
                         ::testing::Values("blas_gemv_ptr", "dsp_matmul_ptr",
                                           "misc_ten4_contract",
                                           "ll_att_values"));

TEST_P(InterpDeterminism, RepeatedRunsAgree) {
  const stagg::bench::Benchmark *B = stagg::bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  cfront::CParseResult Fn = cfront::parseCFunction(B->CSource);
  ASSERT_TRUE(Fn.ok());

  Rng R(99);
  cfront::ExecEnv<double> Env;
  for (const stagg::bench::ArgSpec &Arg : B->Args) {
    if (Arg.K == stagg::bench::ArgSpec::Kind::SizeScalar)
      Env.IntScalars[Arg.Name] = 3;
    else if (Arg.K == stagg::bench::ArgSpec::Kind::NumScalar)
      Env.NumScalars[Arg.Name] = 2.0;
  }
  for (const stagg::bench::ArgSpec &Arg : B->Args) {
    if (Arg.K != stagg::bench::ArgSpec::Kind::Array)
      continue;
    int64_t Total = 1;
    for (size_t I = 0; I < Arg.Shape.size(); ++I)
      Total *= 3;
    Env.Arrays[Arg.Name].resize(static_cast<size_t>(Total));
    for (double &V : Env.Arrays[Arg.Name])
      V = Arg.IsOutput ? 0.0 : static_cast<double>(R.range(1, 5));
  }

  cfront::ExecEnv<double> First = Env, Second = Env;
  ASSERT_TRUE(cfront::runCFunction(*Fn.Function, First).Ok);
  ASSERT_TRUE(cfront::runCFunction(*Fn.Function, Second).Ok);
  EXPECT_EQ(First.Arrays, Second.Arrays);
}
