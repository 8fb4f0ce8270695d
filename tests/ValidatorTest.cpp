//===- tests/ValidatorTest.cpp - Substitution validation (§6) -------------===//

#include "validate/Validator.h"

#include "analysis/KernelAnalysis.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "taco/Parser.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <set>

using namespace stagg;
using namespace stagg::validate;

namespace {

struct Fixture {
  const bench::Benchmark *B;
  std::unique_ptr<cfront::CFunction> Fn;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;

  explicit Fixture(const std::string &Name) {
    B = bench::findBenchmark(Name);
    EXPECT_NE(B, nullptr) << Name;
    cfront::CParseResult R = cfront::parseCFunction(B->CSource);
    EXPECT_TRUE(R.ok()) << R.Error;
    Fn = std::move(R.Function);
    Rng Rand(7);
    Examples = generateExamples(*B, *Fn, 3, Rand);
    EXPECT_FALSE(Examples.empty());
    Constants = analysis::analyzeKernel(*Fn).Constants;
  }
};

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

} // namespace

TEST(IoExamples, ExamplesReflectKernelSemantics) {
  Fixture F("art_add");
  for (const IoExample &Ex : F.Examples) {
    const std::vector<double> &A = Ex.Inputs.Arrays.at("a");
    const std::vector<double> &B2 = Ex.Inputs.Arrays.at("b");
    for (size_t I = 0; I < A.size(); ++I)
      EXPECT_EQ(Ex.Expected.flat()[I], A[I] + B2[I]);
  }
}

TEST(IoExamples, FirstExampleUsesAsymmetricSizes) {
  Fixture F("art_matmul");
  const IoExample &Ex = F.Examples.front();
  // N, M, K must not all be equal, so transposition bugs cannot hide.
  std::set<int64_t> Distinct;
  for (const auto &[Name, Value] : Ex.Sizes)
    Distinct.insert(Value);
  EXPECT_GT(Distinct.size(), 1u);
}

TEST(Validator, BindsMatVecTemplate) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid =
      V.validate(parse("a(i) = b(i,j) * c(j)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "Mat1");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "Mat2");
  EXPECT_EQ(taco::printProgram(Valid.front().Concrete),
            "Result(i) = Mat1(i,j) * Mat2(j)");
}

TEST(Validator, RejectsWrongStructure) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j) + c(j)")).empty());
  EXPECT_TRUE(V.validate(parse("a(i) = b(j,i) * c(j)")).empty());
}

TEST(Validator, RanksFilterSubstitutions) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  // A 3-D symbol has no rank-compatible argument at all.
  EXPECT_TRUE(V.validate(parse("a(i) = b(i,j,k) * c(j)")).empty());
}

TEST(Validator, RankRejectedTemplateLeavesTriedUnchanged) {
  // misc_mm3_chain has rank-0 and rank-2 arguments only: a rank-4 symbol
  // (or a rank-1 one) can bind nothing, so the template is rejected before
  // any instantiation is evaluated.
  Fixture F("misc_mm3_chain");
  Validator V(*F.B, F.Examples, F.Constants);
  ASSERT_FALSE(V.validate(parse("a(i,j) = b(i,k) * c(k,l) * d(l,j)")).empty());
  int64_t Before = V.instantiationsTried();
  EXPECT_GT(Before, 0);
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j,k,l) * c(k,l)")).empty());
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,k) * c(k) + a(i,j)")).empty());
  EXPECT_EQ(V.instantiationsTried(), Before);
  // The LHS symbol is exempt: it reads the output argument, whatever the
  // ranks of the others.
  EXPECT_TRUE(V.validate(parse("a(i,j) = a(i,j) * b(i,j)")).empty());
  EXPECT_GT(V.instantiationsTried(), Before);
}

TEST(Validator, LhsRankMustMatchOutput) {
  Fixture F("blas_gemv_ptr");
  Validator V(*F.B, F.Examples, F.Constants);
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j) * c(j)")).empty());
}

TEST(Validator, RepeatedSymbolBindsSameArgument) {
  Fixture F("ll_rmsnorm_ss");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) * b(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "x");
}

TEST(Validator, DistinctSymbolsMayBindSameArgument) {
  // Fig. 8's S1: b and c can both map to the same input.
  Fixture F("ll_rmsnorm_ss");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) * c(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "x");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "x");
}

TEST(Validator, ConstantsInstantiatedFromSourcePool) {
  Fixture F("art_scal_const");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a(i) = Const * b(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().ConstantValues, (std::vector<int64_t>{2}));
}

TEST(Validator, SizeParameterBindsScalarSymbol) {
  Fixture F("dk_mean_array");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a = b(i) / c"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "N");
}

TEST(Validator, NumScalarBindsScalarSymbol) {
  Fixture F("blas_axpy");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid =
      V.validate(parse("a(i) = b * c(i) + d(i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "alpha");
  EXPECT_EQ(Valid.front().SymbolBinding.at("c"), "x");
  EXPECT_EQ(Valid.front().SymbolBinding.at("d"), "y");
}

TEST(Validator, InstantiateTemplateRewritesNamesAndConstants) {
  taco::Program T = parse("a(i) = Const * b(i) + Const");
  taco::Program Concrete = instantiateTemplate(
      T, {{"a", "out"}, {"b", "x"}}, {2, 5});
  EXPECT_EQ(taco::printProgram(Concrete), "out(i) = 2 * x(i) + 5");
}

TEST(Validator, CountsTriedInstantiations) {
  Fixture F("art_add");
  Validator V(*F.B, F.Examples, F.Constants);
  V.validate(parse("a(i) = b(i) + c(i)"));
  EXPECT_GT(V.instantiationsTried(), 0);
}

TEST(Validator, TransposeNeedsMatchingBinding) {
  Fixture F("art_transpose");
  Validator V(*F.B, F.Examples, F.Constants);
  std::vector<Instantiation> Valid = V.validate(parse("a(i,j) = b(j,i)"));
  ASSERT_FALSE(Valid.empty());
  EXPECT_EQ(Valid.front().SymbolBinding.at("b"), "A");
  EXPECT_TRUE(V.validate(parse("a(i,j) = b(i,j)")).empty());
}
