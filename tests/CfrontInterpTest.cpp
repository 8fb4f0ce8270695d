//===- tests/CfrontInterpTest.cpp - Mini-C interpreter --------------------===//

#include "cfront/Interp.h"

#include "CInterpReference.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "support/Rational.h"
#include "support/Rng.h"
#include "validate/IoExamples.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace stagg;
using namespace stagg::cfront;

namespace {

std::unique_ptr<CFunction> parse(const std::string &Source) {
  CParseResult R = parseCFunction(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Function);
}

} // namespace

TEST(CfrontInterp, CopyLoop) {
  auto Fn = parse("void f(int N, float* x, float* out) {"
                  "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 3;
  Env.Arrays["x"] = {1, 2, 3};
  Env.Arrays["out"] = {0, 0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{1, 2, 3}));
}

TEST(CfrontInterp, PointerWalkMatchesIndexing) {
  auto Fn = parse("void f(int N, float* x, float* out) {"
                  "  float* p = x; float* q = out;"
                  "  for (int i = 0; i < N; i++) *q++ = *p++ * 2; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 4;
  Env.Arrays["x"] = {1, 2, 3, 4};
  Env.Arrays["out"] = {0, 0, 0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{2, 4, 6, 8}));
}

TEST(CfrontInterp, Fig2GemvKernel) {
  auto Fn = parse(R"(void f(int N, int* Mat1, int* Mat2, int* Result) {
    int* p_m1; int* p_m2; int* p_t; int i, f;
    p_m1 = Mat1; p_t = Result;
    for (f = 0; f < N; f++) {
      *p_t = 0;
      p_m2 = &Mat2[0];
      for (i = 0; i < N; i++)
        *p_t += *p_m1++ * *p_m2++;
      p_t++;
    }
  })");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 2;
  Env.Arrays["Mat1"] = {1, 2, 3, 4};
  Env.Arrays["Mat2"] = {5, 6};
  Env.Arrays["Result"] = {0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["Result"], (std::vector<double>{17, 39}));
}

TEST(CfrontInterp, CompoundAssignment) {
  auto Fn = parse("void f(int N, float* x, float* out) {"
                  "  out[0] = 10;"
                  "  for (int i = 0; i < N; i++) { out[0] += x[i]; }"
                  "  out[0] -= 1; out[0] *= 2; out[0] /= 4; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 2;
  Env.Arrays["x"] = {3, 4};
  Env.Arrays["out"] = {0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"][0], 8);
}

TEST(CfrontInterp, PrefixVersusPostfix) {
  auto Fn = parse("void f(int N, float* out) {"
                  "  int i = 0;"
                  "  out[i++] = 1;"
                  "  out[++i] = 2; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 3;
  Env.Arrays["out"] = {0, 0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{1, 0, 2}));
}

TEST(CfrontInterp, IfElseAndComparisons) {
  auto Fn = parse("void f(int N, float* out) {"
                  "  for (int i = 0; i < N; i++) {"
                  "    if (i <= 1 && i != 1) out[i] = 1;"
                  "    else if (i >= 3 || i == 2) out[i] = 2; } }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 4;
  Env.Arrays["out"] = {0, 0, 0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{1, 0, 2, 2}));
}

TEST(CfrontInterp, WhileLoop) {
  auto Fn = parse("void f(int N, float* out) {"
                  "  int i = 0; while (i < N) { out[i] = i; i++; } }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 3;
  Env.Arrays["out"] = {9, 9, 9};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{0, 1, 2}));
}

TEST(CfrontInterp, IntegerDivisionTruncates) {
  auto Fn = parse("void f(int N, float* out) { out[0] = N / 2; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 5;
  Env.Arrays["out"] = {0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"][0], 2);
}

TEST(CfrontInterp, DataDivisionIsExactOverRationals) {
  auto Fn = parse("void f(int N, float* x, float* out) {"
                  "  for (int i = 0; i < N; i++) out[i] = x[i] / 4; }");
  ExecEnv<Rational> Env;
  Env.IntScalars["N"] = 2;
  Env.Arrays["x"] = {Rational(1), Rational(3)};
  Env.Arrays["out"] = {Rational(0), Rational(0)};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"][0], Rational(1, 4));
  EXPECT_EQ(Env.Arrays["out"][1], Rational(3, 4));
}

TEST(CfrontInterp, OutOfBoundsReadFails) {
  auto Fn = parse("void f(int N, float* x, float* out) { out[0] = x[N]; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 2;
  Env.Arrays["x"] = {1, 2};
  Env.Arrays["out"] = {0};
  ExecStatus S = runCFunction(*Fn, Env);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Error.find("out-of-bounds"), std::string::npos);
}

TEST(CfrontInterp, OutOfBoundsWriteFails) {
  auto Fn = parse("void f(int N, float* out) { out[N + 5] = 1; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 1;
  Env.Arrays["out"] = {0};
  EXPECT_FALSE(runCFunction(*Fn, Env).Ok);
}

TEST(CfrontInterp, UninitializedPointerFails) {
  auto Fn = parse("void f(int N, float* out) { float* p; *p = 1; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 1;
  Env.Arrays["out"] = {0};
  EXPECT_FALSE(runCFunction(*Fn, Env).Ok);
}

TEST(CfrontInterp, StepBudgetStopsInfiniteLoops) {
  auto Fn = parse("void f(int N, float* out) { while (1) { out[0] = 1; } }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 1;
  Env.Arrays["out"] = {0};
  ExecStatus S = runCFunction(*Fn, Env, /*StepBudget=*/10'000);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Error.find("budget"), std::string::npos);
}

TEST(CfrontInterp, MissingArgumentFails) {
  auto Fn = parse("void f(int N, float* x) { x[0] = N; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 1;
  EXPECT_FALSE(runCFunction(*Fn, Env).Ok);
}

TEST(CfrontInterp, ModuloOperator) {
  auto Fn = parse("void f(int N, float* out) {"
                  "  for (int i = 0; i < N; i++) out[i] = i % 3; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 5;
  Env.Arrays["out"] = {0, 0, 0, 0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"], (std::vector<double>{0, 1, 2, 0, 1}));
}

TEST(CfrontInterp, FloatLiteralsAreExactDecimals) {
  auto Fn = parse("void f(int N, float* out) { out[0] = 0.5; out[1] = 2.25; }");
  ExecEnv<double> Env;
  Env.IntScalars["N"] = 2;
  Env.Arrays["out"] = {0, 0};
  ASSERT_TRUE(runCFunction(*Fn, Env).Ok);
  EXPECT_EQ(Env.Arrays["out"][0], 0.5);
  EXPECT_EQ(Env.Arrays["out"][1], 2.25);
}

//===----------------------------------------------------------------------===//
// Differential pin: the slot-resolved interpreter against the map-based
// reference walk (tests/CInterpReference.h).
//===----------------------------------------------------------------------===//

namespace {

/// Cells compare by representation: a NaN or a poisoned rational is
/// unequal to itself, but both interpreters must still produce the same
/// bits.
bool sameCell(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }
bool sameCell(const Rational &A, const Rational &B) {
  return A.numerator() == B.numerator() && A.denominator() == B.denominator();
}

/// Runs both interpreters on copies of \p Env; counts the runs that
/// failed. Every difference in status, error text or any array cell is a
/// test failure.
template <typename T>
void expectSameRun(const CFunction &Fn, const ExecEnv<T> &Env,
                   int64_t Budget, const std::string &What, int &Failed) {
  ExecEnv<T> Compiled = Env, Reference = Env;
  ExecStatus C = runCFunction(Fn, Compiled, Budget);
  ExecStatus R = reference::runReference(Fn, Reference, Budget);
  EXPECT_EQ(C.Ok, R.Ok) << What;
  EXPECT_EQ(C.Error, R.Error) << What;
  Failed += R.Ok ? 0 : 1;
  ASSERT_EQ(Compiled.Arrays.size(), Reference.Arrays.size()) << What;
  for (const auto &[Name, Cells] : Reference.Arrays) {
    const std::vector<T> &Got = Compiled.Arrays.at(Name);
    ASSERT_EQ(Got.size(), Cells.size()) << What << " " << Name;
    for (size_t I = 0; I < Cells.size(); ++I)
      EXPECT_TRUE(sameCell(Got[I], Cells[I]))
          << What << " " << Name << "[" << I << "]";
  }
}

/// A small program with its arguments; integer cells convert to T.
struct ProgramCase {
  const char *Source;
  std::map<std::string, int64_t> Ints;
  std::map<std::string, std::vector<int>> Arrays;
  std::map<std::string, int> Nums;
  int64_t Budget = 10'000'000;
};

template <typename T> ExecEnv<T> envOf(const ProgramCase &P) {
  ExecEnv<T> Env;
  Env.IntScalars = P.Ints;
  for (const auto &[Name, Cells] : P.Arrays)
    for (int V : Cells)
      Env.Arrays[Name].push_back(T(V));
  for (const auto &[Name, V] : P.Nums)
    Env.NumScalars[Name] = T(V);
  return Env;
}

/// Inputs for a registry kernel at one size assignment: all-ones, every
/// one-hot position of every input array, and three random fills; each is
/// handed to \p Visit as (label, env).
template <typename T, typename VisitFn>
void registryEnvs(const bench::Benchmark &B,
                  const std::map<std::string, int64_t> &Sizes, Rng &R,
                  const VisitFn &Visit) {
  ExecEnv<T> Base;
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
      Base.IntScalars[Arg.Name] = Sizes.at(Arg.Name);
    } else if (Arg.K == bench::ArgSpec::Kind::NumScalar) {
      Base.NumScalars[Arg.Name] = T(1);
    } else {
      int64_t Total = 1;
      for (int64_t D : validate::resolveShape(Arg, Sizes))
        Total *= D;
      Base.Arrays[Arg.Name].assign(static_cast<size_t>(Total),
                                   T(Arg.IsOutput ? 0 : 1));
    }
  }
  Visit("ones", Base);
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K != bench::ArgSpec::Kind::Array || Arg.IsOutput)
      continue;
    for (size_t I = 0; I < Base.Arrays[Arg.Name].size(); ++I) {
      ExecEnv<T> Env = Base;
      std::fill(Env.Arrays[Arg.Name].begin(), Env.Arrays[Arg.Name].end(),
                T(0));
      Env.Arrays[Arg.Name][I] = T(2);
      Visit("onehot " + Arg.Name + "[" + std::to_string(I) + "]", Env);
    }
  }
  for (int Trial = 0; Trial < 3; ++Trial) {
    ExecEnv<T> Env = Base;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.K == bench::ArgSpec::Kind::NumScalar) {
        int64_t N = R.range(-2, 3);
        Env.NumScalars[Arg.Name] = T(N) / T(R.range(1, 2));
      } else if (Arg.K == bench::ArgSpec::Kind::Array && !Arg.IsOutput) {
        for (T &V : Env.Arrays[Arg.Name]) {
          int64_t N = R.range(-3, 4);
          V = T(N) / T(R.range(1, 2));
        }
      }
    }
    Visit("random " + std::to_string(Trial), Env);
  }
}

/// Every size assignment in [1, 2] per size parameter.
std::vector<std::map<std::string, int64_t>>
sizeAssignments(const bench::Benchmark &B) {
  std::vector<std::map<std::string, int64_t>> Out(1);
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K != bench::ArgSpec::Kind::SizeScalar)
      continue;
    std::vector<std::map<std::string, int64_t>> Next;
    for (const auto &Sizes : Out)
      for (int64_t V : {1, 2}) {
        Next.push_back(Sizes);
        Next.back()[Arg.Name] = V;
      }
    Out = std::move(Next);
  }
  return Out;
}

} // namespace

TEST(CfrontInterp, CompiledMatchesReferenceInterpreter) {
  // (1) Every registry kernel, both data types, small sizes.
  int Runs = 0, Failed = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    auto Fn = parse(B.CSource);
    ASSERT_TRUE(Fn) << B.Name;
    Rng R(7);
    for (const auto &Sizes : sizeAssignments(B)) {
      registryEnvs<double>(B, Sizes, R, [&](const std::string &Label,
                                            const ExecEnv<double> &Env) {
        expectSameRun(*Fn, Env, 10'000'000, B.Name + " double " + Label,
                      Failed);
        ++Runs;
      });
      registryEnvs<Rational>(B, Sizes, R, [&](const std::string &Label,
                                              const ExecEnv<Rational> &Env) {
        expectSameRun(*Fn, Env, 10'000'000, B.Name + " rational " + Label,
                      Failed);
        ++Runs;
      });
    }
  }
  EXPECT_GT(Runs, 1000);

  // (2) The programs above, their error paths, and the diagnostics no
  // registry kernel reaches.
  const std::vector<ProgramCase> Programs = {
      {"void f(int N, float* x, float* out) {"
       "  for (int i = 0; i < N; i++) out[i] = x[i]; }",
       {{"N", 3}}, {{"x", {1, 2, 3}}, {"out", {0, 0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  float* p = x; float* q = out;"
       "  for (int i = 0; i < N; i++) *q++ = *p++ * 2; }",
       {{"N", 4}}, {{"x", {1, 2, 3, 4}}, {"out", {0, 0, 0, 0}}}, {}},
      {R"(void f(int N, int* Mat1, int* Mat2, int* Result) {
        int* p_m1; int* p_m2; int* p_t; int i, f;
        p_m1 = Mat1; p_t = Result;
        for (f = 0; f < N; f++) {
          *p_t = 0;
          p_m2 = &Mat2[0];
          for (i = 0; i < N; i++)
            *p_t += *p_m1++ * *p_m2++;
          p_t++;
        }
      })",
       {{"N", 2}}, {{"Mat1", {1, 2, 3, 4}}, {"Mat2", {5, 6}},
                    {"Result", {0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  out[0] = 10;"
       "  for (int i = 0; i < N; i++) { out[0] += x[i]; }"
       "  out[0] -= 1; out[0] *= 2; out[0] /= 4; }",
       {{"N", 2}}, {{"x", {3, 4}}, {"out", {0}}}, {}},
      {"void f(int N, float* out) { int i = 0; out[i++] = 1; out[++i] = 2; }",
       {{"N", 3}}, {{"out", {0, 0, 0}}}, {}},
      {"void f(int N, float* out) {"
       "  for (int i = 0; i < N; i++) {"
       "    if (i <= 1 && i != 1) out[i] = 1;"
       "    else if (i >= 3 || i == 2) out[i] = 2; } }",
       {{"N", 4}}, {{"out", {0, 0, 0, 0}}}, {}},
      {"void f(int N, float* out) {"
       "  int i = 0; while (i < N) { out[i] = i; i++; } }",
       {{"N", 3}}, {{"out", {9, 9, 9}}}, {}},
      {"void f(int N, float* out) { out[0] = N / 2; }",
       {{"N", 5}}, {{"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  for (int i = 0; i < N; i++) out[i] = x[i] / 4; }",
       {{"N", 2}}, {{"x", {1, 3}}, {"out", {0, 0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = x[N]; }",
       {{"N", 2}}, {{"x", {1, 2}}, {"out", {0}}}, {}},
      {"void f(int N, float* out) { out[N + 5] = 1; }",
       {{"N", 1}}, {{"out", {0}}}, {}},
      {"void f(int N, float* out) { float* p; *p = 1; }",
       {{"N", 1}}, {{"out", {0}}}, {}},
      {"void f(int N, float* out) { while (1) { out[0] = 1; } }",
       {{"N", 1}}, {{"out", {0}}}, {}, 10'000},
      {"void f(int N, float* x) { x[0] = N; }", {{"N", 1}}, {}, {}},
      {"void f(int N, float* out) {"
       "  for (int i = 0; i < N; i++) out[i] = i % 3; }",
       {{"N", 5}}, {{"out", {0, 0, 0, 0, 0}}}, {}},
      {"void f(int N, float* out) { out[0] = 0.5; out[1] = 2.25; }",
       {{"N", 2}}, {{"out", {0, 0}}}, {}},
      // Diagnostics and corners beyond the programs above.
      {"void f(int N, float* out) { out[0] = y; }", {{"N", 1}},
       {{"out", {0}}}, {}},
      {"void f(int N, float* out) { y = 3; out[0] = y; y += 1; out[0] = y; }",
       {{"N", 1}}, {{"out", {0}}}, {}},
      {"void f(int N, float* out) { y += 1; }", {{"N", 1}}, {{"out", {0}}},
       {}},
      {"void f(int N, float alpha, float* x, float* out) {"
       "  for (int i = 0; i < N; i++) out[i] = alpha * x[i] - -x[i]; }",
       {{"N", 2}}, {{"x", {1, 2}}, {"out", {0, 0}}}, {{"alpha", 3}}},
      {"void f(int N, float alpha, float* out) { out[0] = alpha; }",
       {{"N", 1}}, {{"out", {0}}}, {}},
      {"void f(int N, float* out) { out[0] = N / 0; }", {{"N", 1}},
       {{"out", {0}}}, {}},
      {"void f(int N, float* out) { out[0] = N % 0; }", {{"N", 1}},
       {{"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = x; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = -x; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = !x[0]; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { if (x) out[0] = 1; }",
       {{"N", 1}}, {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = x[0] && 1; }",
       {{"N", 1}}, {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = x * 2; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[0] = *N; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { out[x[0]] = 1; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) { float* p = &N; }", {{"N", 1}},
       {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  float* p = &x[1]; float* q = &*p; out[0] = *(q - 1) + p[0];"
       "  out[1] = p < q; out[2] = p != x; out[3] = 3 + p < q; }",
       {{"N", 1}}, {{"x", {4, 5}}, {"out", {0, 0, 0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  for (int i = 0; i < N; i++) { if (i == 2) return; out[i] = 1; }"
       "  out[0] = 7; }",
       {{"N", 4}}, {{"x", {1}}, {"out", {0, 0, 0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  { float t = 2; out[0] = t; } { out[1] = t; float t; out[2] = t; } }",
       {{"N", 1}}, {{"x", {1}}, {"out", {0, 0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  float v = x[0]; out[0] = v > 0.5 ? 1 : 2; }",
       {{"N", 1}}, {{"x", {1}}, {"out", {0}}}, {}},
      {"void f(int N, float* x, float* x) { x[0] = 2; x[1] = 3; }",
       {{"N", 1}}, {{"x", {0, 0}}}, {}},
      {"void f(int N, float* x, float* out) {"
       "  for (int i = 0; i < N; i++) out[i] = x[i] * x[i] / (x[i] - 1); }",
       {{"N", 2}}, {{"x", {1, 3}}, {"out", {0, 0}}}, {}},
      {"void f(int N, float* out) { for (;;) { N--; } }", {{"N", 1}},
       {{"out", {0}}}, {}, 10'000},
      {"void f(int N, float* out) {"
       "  int i = 0; while (i < N) i++; out[0] = i; }",
       {{"N", 5000}}, {{"out", {0}}}, {}, 10'000},
  };
  int Parsed = 0;
  for (const ProgramCase &P : Programs) {
    CParseResult Fn = parseCFunction(P.Source);
    if (!Fn.ok())
      continue; // a construct the front end rejects has nothing to run
    ++Parsed;
    expectSameRun(*Fn.Function, envOf<double>(P), P.Budget,
                  std::string("double ") + P.Source, Failed);
    expectSameRun(*Fn.Function, envOf<Rational>(P), P.Budget,
                  std::string("rational ") + P.Source, Failed);
  }
  EXPECT_GE(Parsed, 35);

  // (3) Single-byte mutations of registry sources that still parse: odd
  // programs reach paths no curated case thinks of.
  int Mutants = 0;
  for (const char *Name :
       {"blas_gemv_ptr", "art_matmul", "relu_forward", "dk_avg_pair"}) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    std::map<std::string, int64_t> Sizes;
    for (const bench::ArgSpec &Arg : B->Args)
      if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        Sizes[Arg.Name] = 2;
    Rng R(11);
    ExecEnv<Rational> Env;
    registryEnvs<Rational>(*B, Sizes, R,
                           [&](const std::string &Label,
                               const ExecEnv<Rational> &E) {
                             if (Label.rfind("random", 0) == 0)
                               Env = E;
                           });
    const std::string Source = B->CSource;
    for (size_t I = 0; I < Source.size(); ++I) {
      for (char C : {'0', '1', 'i', '+', '*', '-', '<', ';', '(', '[', '}'}) {
        if (Source[I] == C)
          continue;
        std::string Mutated = Source;
        Mutated[I] = C;
        CParseResult Fn = parseCFunction(Mutated);
        if (!Fn.ok())
          continue;
        ++Mutants;
        expectSameRun(*Fn.Function, Env, 10'000,
                      std::string(Name) + " mutant @" + std::to_string(I) +
                          " '" + C + "'",
                      Failed);
      }
    }
  }
  EXPECT_GT(Mutants, 2000);
  EXPECT_GT(Failed, 20); // the error paths were reached, not just Ok runs
}
