//===- tests/PerfEquivalenceTest.cpp - Fast paths vs. naive references ----===//
//
// The PR-4 hot-path optimizations promise *bit-identical* outcomes:
//
//  * Validator: the pruned, template-compiled enumeration must return the
//    same instantiations in the same order as the naive cartesian-product
//    enumerator (rank filter + instantiateTemplate + evaluation by the
//    reference evaluator of tests/EinsumReference.h — the seed algorithm).
//    runsConsistently, the VM-backed check the baselines and ingestion
//    use, must agree with the reference on every instantiation.
//  * BoundedVerifier: the cached-reference path must produce verdicts,
//    test counts, and counterexample strings identical to the uncached
//    path; and restricting the one-hot sweep to multiplied operand pairs
//    must not change any verdict on the registry candidates.
//
//===----------------------------------------------------------------------===//

#include "EinsumReference.h"

#include "analysis/Checker.h"
#include "analysis/KernelAnalysis.h"
#include "analysis/KernelModel.h"
#include "api/KernelIngest.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "grammar/Template.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/Validator.h"
#include "verify/BoundedVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

using namespace stagg;
using namespace stagg::validate;

namespace {

/// The validator's acceptance, through the reference evaluator: every
/// example's output within the validator's per-cell tolerance.
bool referenceConsistent(const bench::Benchmark &B,
                         const taco::Program &Concrete,
                         const std::vector<IoExample> &Examples) {
  for (const IoExample &Ex : Examples) {
    std::map<std::string, taco::Tensor<double>> Operands;
    for (const taco::TensorInfo &Info : taco::tensorInventory(Concrete)) {
      const bench::ArgSpec *Arg = B.findArg(Info.Name);
      if (Info.IsConstant || !Arg)
        continue;
      if (Arg->K == bench::ArgSpec::Kind::Array) {
        auto It = Ex.Inputs.Arrays.find(Arg->Name);
        if (It == Ex.Inputs.Arrays.end())
          continue;
        taco::Tensor<double> T(resolveShape(*Arg, Ex.Sizes));
        T.flat() = It->second;
        Operands.emplace(Arg->Name, std::move(T));
      } else if (Arg->K == bench::ArgSpec::Kind::SizeScalar) {
        Operands.emplace(Arg->Name, taco::Tensor<double>::scalar(
                                        static_cast<double>(
                                            Ex.Sizes.at(Arg->Name))));
      } else {
        Operands.emplace(Arg->Name, taco::Tensor<double>::scalar(
                                        Ex.Inputs.NumScalars.at(Arg->Name)));
      }
    }
    taco::EinsumCompare Verdict = taco::einsumCompare<double>(
        Concrete, Operands, resolveShape(*B.outputArg(), Ex.Sizes),
        Ex.Expected.flat(), [](double A, double E) {
          if (!std::isfinite(A) || !std::isfinite(E))
            return false;
          return std::fabs(A - E) <=
                 1e-9 * std::max({1.0, std::fabs(A), std::fabs(E)});
        });
    if (Verdict != taco::EinsumCompare::Match)
      return false;
  }
  return true;
}

/// The seed validator's enumeration, verbatim: rank-filtered cartesian
/// product over symbol bindings and constant assignments, every candidate
/// instantiated and evaluated against all examples.
std::vector<Instantiation>
naiveValidate(const bench::Benchmark &B, const std::vector<IoExample> &Examples,
              std::vector<int64_t> Constants, const taco::Program &Template,
              size_t MaxResults = 8) {
  std::vector<Instantiation> Valid;
  if (Constants.empty())
    Constants.push_back(1);
  if (!Template.Rhs || Examples.empty())
    return Valid;
  const bench::ArgSpec *OutArg = B.outputArg();
  if (!OutArg)
    return Valid;
  if (static_cast<int>(Template.Lhs.order()) != OutArg->rank())
    return Valid;

  std::vector<taco::TensorInfo> Inventory = taco::tensorInventory(Template);
  std::vector<taco::TensorInfo> Symbols;
  int ConstLeaves = 0;
  std::function<void(const taco::Expr &)> Count =
      [&](const taco::Expr &E) {
        switch (E.kind()) {
        case taco::Expr::Kind::Constant:
          if (taco::exprCast<taco::ConstantExpr>(E).isSymbolic())
            ++ConstLeaves;
          return;
        case taco::Expr::Kind::Binary: {
          const auto &Bin = taco::exprCast<taco::BinaryExpr>(E);
          Count(Bin.lhs());
          Count(Bin.rhs());
          return;
        }
        case taco::Expr::Kind::Negate:
          Count(taco::exprCast<taco::NegateExpr>(E).operand());
          return;
        case taco::Expr::Kind::Max: {
          const auto &M = taco::exprCast<taco::MaxExpr>(E);
          Count(M.lhs());
          Count(M.rhs());
          return;
        }
        case taco::Expr::Kind::Access:
          return;
        }
      };
  Count(*Template.Rhs);
  for (const taco::TensorInfo &Info : Inventory) {
    if (Info.IsConstant || Info.Name == Template.Lhs.name())
      continue;
    Symbols.push_back(Info);
  }

  std::vector<std::vector<const bench::ArgSpec *>> Choices;
  for (const taco::TensorInfo &Symbol : Symbols) {
    std::vector<const bench::ArgSpec *> Options;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.rank() == Symbol.Order)
        Options.push_back(&Arg);
    if (Options.empty())
      return Valid;
    Choices.push_back(std::move(Options));
  }

  std::vector<size_t> Pick(Symbols.size(), 0);
  std::vector<size_t> ConstPick(static_cast<size_t>(ConstLeaves), 0);
  for (;;) {
    std::map<std::string, std::string> Binding;
    Binding[Template.Lhs.name()] = OutArg->Name;
    for (size_t I = 0; I < Symbols.size(); ++I)
      Binding[Symbols[I].Name] = Choices[I][Pick[I]]->Name;

    for (;;) {
      std::vector<int64_t> ConstValues;
      for (size_t I = 0; I < ConstPick.size(); ++I)
        ConstValues.push_back(Constants[ConstPick[I]]);

      taco::Program Concrete =
          instantiateTemplate(Template, Binding, ConstValues);
      bool Consistent = referenceConsistent(B, Concrete, Examples);
      EXPECT_EQ(runsConsistently(B, Concrete, Examples), Consistent)
          << taco::printProgram(Concrete);
      if (Consistent) {
        Instantiation Inst;
        Inst.Concrete = std::move(Concrete);
        Inst.SymbolBinding = Binding;
        Inst.ConstantValues = std::move(ConstValues);
        Valid.push_back(std::move(Inst));
        if (Valid.size() >= MaxResults)
          return Valid;
      }

      size_t Axis = ConstPick.size();
      bool Wrapped = true;
      while (Axis > 0) {
        --Axis;
        if (++ConstPick[Axis] < Constants.size()) {
          Wrapped = false;
          break;
        }
        ConstPick[Axis] = 0;
      }
      if (ConstPick.empty() || Wrapped)
        break;
    }

    size_t Axis = Pick.size();
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (++Pick[Axis] < Choices[Axis].size()) {
        Wrapped = false;
        break;
      }
      Pick[Axis] = 0;
    }
    if (Pick.empty() || Wrapped)
      break;
  }
  return Valid;
}

struct Fixture {
  const bench::Benchmark *B = nullptr;
  /// Storage for a kernel ingested from C rather than found in the registry.
  bench::Benchmark Ingested;
  std::unique_ptr<cfront::CFunction> Fn;
  std::vector<IoExample> Examples;
  std::vector<int64_t> Constants;
  /// Callers ASSERT on this before dereferencing anything: a renamed
  /// registry kernel must fail the test, not crash the binary.
  bool Ok = false;

  explicit Fixture(const std::string &Name) { init(bench::findBenchmark(Name)); }

  explicit Fixture(api::IngestResult R) : Ingested(std::move(R.Kernel)) {
    if (R.ok())
      init(&Ingested);
  }

  void init(const bench::Benchmark *Kernel) {
    B = Kernel;
    if (!B)
      return;
    cfront::CParseResult R = cfront::parseCFunction(B->CSource);
    if (!R.ok())
      return;
    Fn = std::move(R.Function);
    Rng Rand(7);
    Examples = generateExamples(*B, *Fn, 3, Rand);
    Constants = analysis::analyzeKernel(*Fn).Constants;
    Ok = !Examples.empty();
  }
};

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

void expectSameInstantiations(const std::vector<Instantiation> &Fast,
                              const std::vector<Instantiation> &Naive,
                              const std::string &Context) {
  ASSERT_EQ(Fast.size(), Naive.size()) << Context;
  for (size_t I = 0; I < Fast.size(); ++I) {
    EXPECT_TRUE(taco::programEquals(Fast[I].Concrete, Naive[I].Concrete))
        << Context << " [" << I
        << "]: " << taco::printProgram(Fast[I].Concrete) << " vs "
        << taco::printProgram(Naive[I].Concrete);
    EXPECT_EQ(Fast[I].SymbolBinding, Naive[I].SymbolBinding)
        << Context << " [" << I << "]";
    EXPECT_EQ(Fast[I].ConstantValues, Naive[I].ConstantValues)
        << Context << " [" << I << "]";
  }
}

/// Templates exercised against every kernel whose output rank matches; the
/// mix covers multi-symbol enumeration, repeated symbols, the LHS symbol on
/// the RHS, symbolic constants, scalars, and rank mismatches.
const std::vector<std::string> &templatePool() {
  static const std::vector<std::string> Pool = {
      "a(i) = b(i)",
      "a(i) = b(i) + c(i)",
      "a(i) = b(i) * c(i)",
      "a(i) = b * c(i) + d(i)",
      "a(i) = b(i,j) * c(j)",
      "a(i) = b(j,i) * c(j)",
      "a(i) = Const * b(i)",
      "a(i) = b(i) / Const + Const",
      "a(i) = a(i) + b(i)",
      "a(i) = b(i,j,k) * c(j)",
      "a = b(i) * c(i)",
      "a = b(i) / c",
      "a = b(i,j)",
      "a(i,j) = b(i,j) + c(i,j)",
      "a(i,j) = b(j,i)",
      "a(i,j) = b(i,k) * c(k,j)",
      "a(i,j) = b(i) * c(j)",
      // Rejected by rank alone on most kernels: no argument of rank 4, and
      // no scalar argument on the constant-bound ingested kernel.
      "a(i) = b(i,j,k,l) * c(i)",
      "a(i) = b * c(i)",
      "a(i,j) = b(i,j,k,l) * c(k,l)",
  };
  return Pool;
}

} // namespace

TEST(PerfEquivalence, ValidatorMatchesNaiveEnumerator) {
  // ≥5 registry kernels spanning output ranks 0-2, scalar arguments, and a
  // non-empty constant pool; plus two ingested kernels whose shapes carry
  // literal extents ({"N", "4"}), one of them with no scalar argument.
  std::vector<std::unique_ptr<Fixture>> Kernels;
  for (const char *Name :
       {"blas_axpy", "blas_gemv_ptr", "art_matmul", "dk_avg_pair",
        "misc_trace", "art_scal_const", "ll_rmsnorm_ss", "misc_mm3_chain"})
    Kernels.push_back(std::make_unique<Fixture>(Name));
  Kernels.push_back(std::make_unique<Fixture>(api::ingestKernel(
      "void kernel(int N, float* x, float* w, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    for (int j = 0; j < 4; j++)"
      "      out[i * 4 + j] = x[i] * w[j];"
      "}",
      "const_extent")));
  Kernels.push_back(std::make_unique<Fixture>(api::ingestKernel(
      "void kernel(float* x, float* y, float* out) {"
      "  for (int i = 0; i < 4; i++)"
      "    out[i] = 3 * x[i] + y[i];"
      "}",
      "no_scalar")));
  ASSERT_TRUE(Kernels.back()->Ok);
  for (const bench::ArgSpec &Arg : Kernels.back()->B->Args)
    EXPECT_NE(Arg.rank(), 0) << Arg.Name;
  for (const std::unique_ptr<Fixture> &K : Kernels) {
    const Fixture &F = *K;
    ASSERT_TRUE(F.Ok) << (F.B ? F.B->Name : "ingestion failed");
    const std::string &Name = F.B->Name;
    Validator V(*F.B, F.Examples, F.Constants);
    for (const std::string &Source : templatePool()) {
      taco::Program Template = parse(Source);
      std::vector<Instantiation> Fast = V.validate(Template);
      std::vector<Instantiation> Naive =
          naiveValidate(*F.B, F.Examples, F.Constants, Template);
      expectSameInstantiations(Fast, Naive,
                               std::string(Name) + " / " + Source);
    }
    // The kernel's own templatized ground truth, with a deeper result cap.
    taco::Program Truth =
        grammar::templatize(parse(F.B->GroundTruth)).Template;
    std::vector<Instantiation> TruthFast = V.validate(Truth, 64);
    EXPECT_FALSE(TruthFast.empty()) << Name;
    expectSameInstantiations(
        TruthFast, naiveValidate(*F.B, F.Examples, F.Constants, Truth, 64),
        std::string(Name) + " / templatized ground truth");
  }
}

namespace {

/// Candidate programs verified against each kernel: the ground truth plus
/// systematically wrong variants (operator swaps, transposes, self-uses).
std::vector<std::string> verifierCandidates(const std::string &Name) {
  if (Name == "art_add")
    return {"out(i) = a(i) + b(i)", "out(i) = a(i) - b(i)",
            "out(i) = a(i) + a(i)", "out(i) = a(i) * b(i)"};
  if (Name == "art_matmul")
    return {"out(i,j) = A(i,k) * B(k,j)", "out(i,j) = A(i,k) * B(j,k)",
            "out(i,j) = A(k,i) * B(k,j)", "out(i,j) = A(i,k) + B(k,j)"};
  if (Name == "blas_gemv_ptr")
    return {"Result(i) = Mat1(i,j) * Mat2(j)",
            "Result(i) = Mat1(j,i) * Mat2(j)",
            "Result(i) = Mat1(i,j) + Mat2(j)"};
  if (Name == "dk_avg_pair")
    return {"out(i) = (a(i) + b(i)) / 2", "out(i) = a(i) / 2 + b(i) / 2",
            "out(i) = (a(i) + b(i)) / 3", "out(i) = (a(i) * b(i)) / 2"};
  if (Name == "blas_dot")
    return {"out = x(i) * y(i)", "out = x(i) + y(i)", "out = x(i) * x(i)"};
  return {};
}

} // namespace

TEST(PerfEquivalence, VerifierCachePreservesVerdictsAndWitnesses) {
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    verify::VerifyOptions Options;
    // One cache across the whole candidate sequence — the Fig. 1 fallback
    // loop's usage pattern.
    verify::ReferenceCache Cache;
    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyResult Cold =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Options);
      verify::VerifyResult Cached =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Options, &Cache);
      EXPECT_EQ(Cold.Equivalent, Cached.Equivalent) << Name << ": " << Source;
      EXPECT_EQ(Cold.TestsRun, Cached.TestsRun) << Name << ": " << Source;
      EXPECT_EQ(Cold.Counterexample, Cached.Counterexample)
          << Name << ": " << Source;
    }
    EXPECT_GT(Cache.hits(), 0) << Name;
  }
}

TEST(PerfEquivalence, ReferenceCacheHitsOnFallback) {
  // The Fig. 1 fallback loop: after a first candidate filled the cache, a
  // second candidate of the same kernel finds every reference it needs
  // there (each of its tests is a hit, none a miss; an equivalent one hits
  // once per test of the first) and gets the verdict a cache-less run
  // gives.
  struct Case {
    const char *Name;
    const char *First;
    const char *Second;
  };
  for (const Case &C :
       {Case{"art_add", "out(i) = a(i) + b(i)", "out(i) = b(i) + a(i)"},
        Case{"blas_gemv_ptr", "Result(i) = Mat1(i,j) * Mat2(j)",
             "Result(i) = Mat2(j) * Mat1(i,j)"},
        Case{"dk_avg_pair", "out(i) = (a(i) + b(i)) / 2",
             "out(i) = a(i) / 2 + b(i) / 2"},
        Case{"art_matmul", "out(i,j) = A(i,k) * B(k,j)",
             "out(i,j) = A(i,k) * B(j,k)"}}) {
    Fixture F(C.Name);
    ASSERT_TRUE(F.Ok) << C.Name;
    verify::ReferenceCache Cache;
    verify::VerifyResult First = verify::verifyEquivalence(
        *F.B, *F.Fn, parse(C.First), verify::VerifyOptions(), &Cache);
    EXPECT_TRUE(First.Equivalent) << C.Name << ": " << First.Counterexample;
    // A sweep can repeat an input (a one-hot probe on a one-cell array is
    // the all-ones pattern's neighbour), so the first call may hit too.
    const int64_t FirstMisses = Cache.misses();
    const int64_t FirstHits = Cache.hits();
    EXPECT_EQ(FirstMisses + FirstHits, First.TestsRun) << C.Name;

    taco::Program Second = parse(C.Second);
    verify::VerifyResult Cached = verify::verifyEquivalence(
        *F.B, *F.Fn, Second, verify::VerifyOptions(), &Cache);
    verify::VerifyResult Cold =
        verify::verifyEquivalence(*F.B, *F.Fn, Second);
    EXPECT_EQ(Cache.misses(), FirstMisses) << C.Name;
    EXPECT_EQ(Cache.hits() - FirstHits, Cached.TestsRun) << C.Name;
    if (Cached.Equivalent) {
      EXPECT_EQ(Cached.TestsRun, First.TestsRun) << C.Name;
    }
    EXPECT_EQ(Cold.Equivalent, Cached.Equivalent) << C.Name;
    EXPECT_EQ(Cold.TestsRun, Cached.TestsRun) << C.Name;
    EXPECT_EQ(Cold.Counterexample, Cached.Counterexample) << C.Name;
  }
}

TEST(PerfEquivalence, OneHotPruningPreservesVerdicts) {
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyOptions Pruned;
      Pruned.OneHotOnlyMultiplied = true;
      verify::VerifyOptions Exhaustive;
      Exhaustive.OneHotOnlyMultiplied = false;
      verify::VerifyResult A =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Pruned);
      verify::VerifyResult E =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Exhaustive);
      EXPECT_EQ(A.Equivalent, E.Equivalent) << Name << ": " << Source;
      EXPECT_LE(A.TestsRun, E.TestsRun) << Name << ": " << Source;
    }
  }
}

TEST(PerfEquivalence, GroundTruthsVerifyOnRegistrySample) {
  // Pruned one-hot + cached reference on a broader sample: every ground
  // truth must still verify (the acceptance bar's "same solved set" in
  // miniature; the full 77-kernel sweep runs in CI via the suite smoke
  // tests and `stagg bench`).
  for (const char *Name : {"art_copy", "art_dot", "blas_axpy", "misc_trace",
                           "ll_att_values", "dsp_outer", "misc_bilinear"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;
    verify::ReferenceCache Cache;
    taco::Program Truth = parse(F.B->GroundTruth);
    verify::VerifyResult R = verify::verifyEquivalence(
        *F.B, *F.Fn, Truth, verify::VerifyOptions(), &Cache);
    EXPECT_TRUE(R.Equivalent) << Name << ": " << R.Counterexample;
    // Re-verifying is nearly free and identical.
    verify::VerifyResult R2 = verify::verifyEquivalence(
        *F.B, *F.Fn, Truth, verify::VerifyOptions(), &Cache);
    EXPECT_TRUE(R2.Equivalent) << Name;
    EXPECT_EQ(R.TestsRun, R2.TestsRun) << Name;
    EXPECT_GT(Cache.hits(), 0) << Name;
  }
}

TEST(PerfEquivalence, TrustStaticBoundsPreservesVerdicts) {
  // The checker's bounds proof licenses the verifier to elide its dynamic
  // range checks (VerifyOptions::TrustStaticBounds) — an optimization, so
  // it must change nothing observable: same verdicts, same test counts,
  // wrong candidates still rejected.
  for (const char *Name :
       {"art_add", "art_matmul", "blas_gemv_ptr", "dk_avg_pair", "blas_dot"}) {
    Fixture F(Name);
    ASSERT_TRUE(F.Ok) << Name;

    // Establish the license first: trust without a proof would be unsound.
    analysis::KernelModel Model = analysis::buildKernelModel(*F.Fn);
    ASSERT_TRUE(
        analysis::checkKernel(Model, core::checkOptionsFor(*F.B))
            .BoundsProvenSafe)
        << Name;

    for (const std::string &Source : verifierCandidates(Name)) {
      taco::Program Candidate = parse(Source);
      verify::VerifyOptions Checked;
      verify::VerifyOptions Trusted;
      Trusted.TrustStaticBounds = true;
      verify::VerifyResult C =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Checked);
      verify::VerifyResult T =
          verify::verifyEquivalence(*F.B, *F.Fn, Candidate, Trusted);
      EXPECT_EQ(C.Equivalent, T.Equivalent) << Name << ": " << Source;
      EXPECT_EQ(C.TestsRun, T.TestsRun) << Name << ": " << Source;
      EXPECT_EQ(C.Counterexample, T.Counterexample) << Name << ": " << Source;
    }
  }
}

TEST(PerfEquivalence, CheckerKeepsIngestOverheadWithinBudget) {
  // The safety gate rides on every api::ingestKernel call, and the contract
  // is that it stays in the noise: the checker pass alone, re-run on the
  // model ingestion already built, must cost at most 5% of the full ingest
  // path (C parse + kernel model + shape inference + reference derivation +
  // the gate itself). One kernel per ingestion class — the same set as the
  // micro/ingest_* benchmarks. Interleaved repetitions and medians keep
  // scheduler noise from landing on one side of the comparison.
  double IngestTotal = 0.0, CheckTotal = 0.0;
  for (const char *Name : {"blas_axpy", "ptr_mv_rowwalk", "relu_forward",
                           "fused_scale_shift"}) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    auto Fn = cfront::parseCFunction(B->CSource);
    ASSERT_TRUE(Fn.ok()) << Name;
    analysis::KernelModel Model = analysis::buildKernelModel(*Fn.Function);
    analysis::CheckOptions Opts = core::checkOptionsFor(*B);

    constexpr int Reps = 25;
    std::vector<double> IngestNs, CheckNs;
    for (int I = 0; I < Reps; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      api::IngestResult R = api::ingestKernel(B->CSource, Name);
      auto T1 = std::chrono::steady_clock::now();
      analysis::CheckReport Report = analysis::checkKernel(Model, Opts);
      auto T2 = std::chrono::steady_clock::now();
      ASSERT_TRUE(R.ok()) << Name << ": " << R.Error;
      ASSERT_EQ(Report.hardCount(), 0) << Name;
      IngestNs.push_back(
          std::chrono::duration<double, std::nano>(T1 - T0).count());
      CheckNs.push_back(
          std::chrono::duration<double, std::nano>(T2 - T1).count());
    }
    std::sort(IngestNs.begin(), IngestNs.end());
    std::sort(CheckNs.begin(), CheckNs.end());
    IngestTotal += IngestNs[Reps / 2];
    CheckTotal += CheckNs[Reps / 2];
  }
  EXPECT_LE(CheckTotal, 0.05 * IngestTotal)
      << "checker pass costs " << CheckTotal / 1e3 << "us vs " << "ingest "
      << IngestTotal / 1e3 << "us ("
      << (100.0 * CheckTotal / IngestTotal) << "%)";
}
