//===- tests/AllocBudgetTest.cpp - Heap allocations on the lift path ------===//
//
// Counts every global operator new of this binary, so it is a test
// executable of its own. Pins how much the search -> validate path
// allocates: a warm lift stays under a per-attempt budget, and validating a
// template no larger than one the validator has seen before allocates
// nothing beyond the instantiations it returns. Under the sanitizer build the same runs guard
// the validator's prepared bindings, which the VM reads unchecked.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelModel.h"
#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "llm/SimulatedLlm.h"
#include "support/Rng.h"
#include "taco/Parser.h"
#include "validate/Validator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

namespace {
std::atomic<int64_t> NewCalls{0};
} // namespace

// Kept out of line: once inlined into a caller, GCC pairs the caller's
// `new` with the `free` below and warns (-Wmismatched-new-delete).
#define STAGG_OUT_OF_LINE __attribute__((noinline))

STAGG_OUT_OF_LINE void *operator new(std::size_t Size) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
STAGG_OUT_OF_LINE void *operator new[](std::size_t Size) {
  return ::operator new(Size);
}
STAGG_OUT_OF_LINE void operator delete(void *P) noexcept { std::free(P); }
STAGG_OUT_OF_LINE void operator delete[](void *P) noexcept { std::free(P); }
STAGG_OUT_OF_LINE void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
STAGG_OUT_OF_LINE void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace stagg;

namespace {

/// Allocations per attempt of a warm lift (the second of two identical
/// ones, so one-time setup such as the registry and function-local tables
/// is not counted). Measured at 11.9 for blas_axpby and 2.1 for
/// misc_mm3_chain (g++ 12, libstdc++) when the budget was set.
constexpr double AllocsPerAttemptBudget = 15.0;

double allocsPerAttempt(const char *Name) {
  const bench::Benchmark *B = bench::findBenchmark(Name);
  EXPECT_NE(B, nullptr) << Name;
  llm::SimulatedLlm Oracle(20250411);
  core::StaggConfig Config;
  core::liftBenchmark(*B, Oracle, Config);
  int64_t Before = NewCalls.load();
  core::LiftResult R = core::liftBenchmark(*B, Oracle, Config);
  int64_t Allocs = NewCalls.load() - Before;
  EXPECT_GT(R.Attempts, 0) << Name;
  double PerAttempt =
      static_cast<double>(Allocs) / static_cast<double>(R.Attempts);
  std::printf("%s: %lld allocations over %d attempts (%.2f per attempt)\n",
              Name, static_cast<long long>(Allocs), R.Attempts, PerAttempt);
  return PerAttempt;
}

/// A validator over blas_axpby's real examples and literal pool, built the
/// way core::liftBenchmark builds it.
struct AxpbyValidator {
  const bench::Benchmark &B = *bench::findBenchmark("blas_axpby");
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
  core::StaggConfig Config;
  Rng ExampleRng{Config.ExampleSeed};
  validate::Validator V{B,
                        validate::generateExamples(B, *Parsed.Function,
                                                   Config.NumIoExamples,
                                                   ExampleRng),
                        Model.Summary.Constants};
};

taco::Program parse(const char *Source) {
  return std::move(*taco::parseTacoProgram(Source).Prog);
}

} // namespace

TEST(AllocBudget, WarmLiftStaysUnderPerAttemptBudget) {
  EXPECT_LE(allocsPerAttempt("blas_axpby"), AllocsPerAttemptBudget);
  EXPECT_LE(allocsPerAttempt("misc_mm3_chain"), AllocsPerAttemptBudget);
}

// Templates that get past the rank check, are evaluated, and match no
// instantiation: the second call of each is answered by the rejection memo,
// which allocates nothing and evaluates nothing, nor does a reordered
// equivalent of the first.
TEST(AllocBudget, MemoAnsweredRejectionAllocatesNothing) {
  AxpbyValidator A;
  for (const char *Source :
       {"a(i) = b(i) * c(i) - d(i)", "a(i) = Const * b(i) + c * d(i)",
        "a(i) = d(i) * c(i) - b(i)"}) {
    taco::Program T = parse(Source);
    ASSERT_FALSE(A.V.rejectsOnRank(T)) << Source;
    EXPECT_TRUE(A.V.validate(T).empty()) << Source;
    const int64_t HitsBefore = A.V.memoHits();
    const int64_t TriedBefore = A.V.instantiationsTried();
    int64_t Before = NewCalls.load();
    EXPECT_TRUE(A.V.validate(T).empty()) << Source;
    EXPECT_EQ(NewCalls.load() - Before, 0) << Source;
    EXPECT_EQ(A.V.memoHits(), HitsBefore + 1) << Source;
    EXPECT_EQ(A.V.instantiationsTried(), TriedBefore) << Source;
  }
}

// Rejected templates that are evaluated again: one the memo never holds
// (it divides), and one of the same shape as an earlier one but not
// equivalent to it, whose evaluation runs on the buffers the earlier one
// grew and whose key fits the memo's first reservation.
TEST(AllocBudget, EvaluatingARejectedTemplateAgainAllocatesNothing) {
  AxpbyValidator A;
  const char *Divides = "a(i) = b(i) / Const";
  const char *Pairs[][2] = {{Divides, Divides},
                            {"a(i) = b(i) * c(i) - d(i)",
                             "a(i) = b(i) * c(i) + d(i)"}};
  for (const auto &[First, Second] : Pairs) {
    taco::Program T1 = parse(First);
    taco::Program T2 = parse(Second);
    ASSERT_FALSE(A.V.rejectsOnRank(T2)) << Second;
    EXPECT_TRUE(A.V.validate(T1).empty()) << First;
    const int64_t HitsBefore = A.V.memoHits();
    const int64_t TriedBefore = A.V.instantiationsTried();
    int64_t Before = NewCalls.load();
    EXPECT_TRUE(A.V.validate(T2).empty()) << Second;
    EXPECT_EQ(NewCalls.load() - Before, 0) << Second;
    EXPECT_EQ(A.V.memoHits(), HitsBefore) << Second;
    EXPECT_GT(A.V.instantiationsTried(), TriedBefore) << Second;
  }
}

// A template that validates: the second call allocates exactly what the
// third does — only the returned instantiations, nothing grown.
TEST(AllocBudget, RevalidatingAnAcceptedTemplateAllocatesOnlyItsResults) {
  AxpbyValidator A;
  taco::Program T = parse("a(i) = b * c(i) + d * e(i)");
  ASSERT_FALSE(A.V.validate(T).empty());
  int64_t Before = NewCalls.load();
  std::vector<validate::Instantiation> Second = A.V.validate(T);
  int64_t SecondAllocs = NewCalls.load() - Before;
  Before = NewCalls.load();
  std::vector<validate::Instantiation> Third = A.V.validate(T);
  EXPECT_EQ(NewCalls.load() - Before, SecondAllocs);
  ASSERT_EQ(Second.size(), Third.size());
}
