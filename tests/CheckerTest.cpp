//===- tests/CheckerTest.cpp - Static safety checker ----------------------===//
//
// The negative corpus: each kernel class the checker must refuse (or warn
// about), with its documented SK code and source location — plus the
// positive contract that every registry kernel checks clean against its
// declared argument shapes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checker.h"
#include "analysis/KernelModel.h"

#include "benchsuite/Benchmark.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace stagg;
using namespace stagg::analysis;

namespace {

CheckReport check(const std::string &Source,
                  const CheckOptions &Opts = CheckOptions()) {
  cfront::CParseResult R = cfront::parseCFunction(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  KernelModel Model = buildKernelModel(*R.Function);
  return checkKernel(Model, Opts);
}

/// Declared 1-D shapes {x:[N], out:[N]} with `out` as the output — the
/// contract most corpus kernels are checked under.
CheckOptions vectorShapes() {
  CheckOptions Opts;
  Opts.Shapes["x"] = {Poly::symbol("N")};
  Opts.Shapes["out"] = {Poly::symbol("N")};
  Opts.OutputParams.insert("out");
  return Opts;
}

bool hasCode(const CheckReport &Report, const std::string &Code) {
  return std::any_of(
      Report.Findings.begin(), Report.Findings.end(),
      [&](const CheckFinding &F) { return F.Code == Code; });
}

const CheckFinding *findCode(const CheckReport &Report,
                             const std::string &Code) {
  for (const CheckFinding &F : Report.Findings)
    if (F.Code == Code)
      return &F;
  return nullptr;
}

} // namespace

TEST(Checker, ProvableOobHighIsHardWithLocation) {
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++) {\n"
                        "    out[i] = x[i + 1];\n"
                        "  }\n"
                        "}\n",
                        vectorShapes());
  ASSERT_TRUE(hasCode(R, "SK001"));
  const CheckFinding &F = *findCode(R, "SK001");
  EXPECT_EQ(F.Severity, CheckSeverity::Hard);
  EXPECT_EQ(F.Param, "x");
  EXPECT_EQ(F.Loc.Line, 3);
  EXPECT_EQ(F.Loc.Col, 5);
  EXPECT_GT(R.hardCount(), 0);
  EXPECT_FALSE(R.BoundsProvenSafe);
}

TEST(Checker, ProvableOobLowIsHard) {
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    out[i] = x[i - 1];\n"
                        "}\n",
                        vectorShapes());
  EXPECT_TRUE(hasCode(R, "SK001"));
  EXPECT_GT(R.hardCount(), 0);
}

TEST(Checker, OffByStrideMayOobIsWarningNotHard) {
  // x[2*i] over i < N reaches 2N-2: out of bounds for N > 1, fine for
  // N == 1 — a may-OOB, never a provable one.
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    out[i] = x[2 * i];\n"
                        "}\n",
                        vectorShapes());
  EXPECT_TRUE(hasCode(R, "SK002"));
  EXPECT_FALSE(hasCode(R, "SK001"));
  EXPECT_EQ(R.hardCount(), 0);
  EXPECT_GT(R.warningCount(), 0);
  EXPECT_FALSE(R.BoundsProvenSafe);
}

TEST(Checker, LoopCarriedDependenceIsHard) {
  // Reads the output at a structurally different (reversed) offset than it
  // writes: iteration order becomes observable.
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    out[i] = out[N - 1 - i] + x[i];\n"
                        "}\n",
                        vectorShapes());
  ASSERT_TRUE(hasCode(R, "SK003"));
  EXPECT_EQ(findCode(R, "SK003")->Severity, CheckSeverity::Hard);
  EXPECT_FALSE(hasCode(R, "SK001"));
}

TEST(Checker, WriteIntoInputParamIsHard) {
  CheckOptions Opts;
  Opts.Shapes["x"] = {Poly::symbol("N")};
  Opts.Shapes["out"] = {Poly::symbol("N")};
  Opts.OutputParams.insert("out");
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++) {\n"
                        "    x[i] = 2 * x[i];\n"
                        "    out[i] = x[i];\n"
                        "  }\n"
                        "}\n",
                        Opts);
  ASSERT_TRUE(hasCode(R, "SK004"));
  const CheckFinding &F = *findCode(R, "SK004");
  EXPECT_EQ(F.Severity, CheckSeverity::Hard);
  EXPECT_EQ(F.Param, "x");
  EXPECT_EQ(F.Loc.Line, 3);
}

TEST(Checker, UninitializedAccumulatorIsHard) {
  // `s` accumulates without ever being initialized in the kernel and is
  // not the declared output, so its pre-state leaks into the result.
  CheckOptions Opts;
  Opts.Shapes["x"] = {Poly::symbol("N")};
  Opts.Shapes["s"] = {Poly::symbol("N")};
  Opts.Shapes["out"] = {Poly::symbol("N")};
  Opts.OutputParams.insert("out");
  CheckReport R = check("void kernel(int N, float* x, float* s,"
                        " float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    s[i] += x[i];\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    out[i] = s[i];\n"
                        "}\n",
                        Opts);
  EXPECT_TRUE(hasCode(R, "SK005"));
}

TEST(Checker, ShiftedIndexUnderShortenedLoopIsProvenSafe) {
  // The day-one shifted-polynomial case: x[i+2] under i < N-2 stays within
  // [2, N-1] — provably in bounds, no findings at all.
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N - 2; i++)\n"
                        "    out[i] = x[i + 2];\n"
                        "}\n",
                        vectorShapes());
  EXPECT_TRUE(R.clean()) << (R.Findings.empty()
                                 ? std::string()
                                 : R.Findings.front().str());
  EXPECT_TRUE(R.BoundsProvenSafe);
}

TEST(Checker, DiagonalAccessWithSquareShapeIsProvenSafe) {
  // A[i*N+i] reaches (N-1)(N+1) = N^2 - 1, the last element of a declared
  // N x N buffer: safe, even though the offset does not delinearize.
  CheckOptions Opts;
  Opts.Shapes["A"] = {Poly::symbol("N"), Poly::symbol("N")};
  Opts.Shapes["out"] = {Poly::symbol("N")};
  Opts.OutputParams.insert("out");
  CheckReport R = check("void kernel(int N, float* A, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    out[i] = A[i * N + i];\n"
                        "}\n",
                        Opts);
  EXPECT_TRUE(R.clean());
  EXPECT_TRUE(R.BoundsProvenSafe);
}

TEST(Checker, DiagonalAccessWithoutShapeWarnsSk006WithLocation) {
  // Without a declared shape the same access has no delinearized form to
  // check against: the non-delinearizable warning names the access.
  CheckReport R = check("void kernel(int N, float* A, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "  {\n"
                        "    out[i] = A[i * N + i];\n"
                        "  }\n"
                        "}\n");
  ASSERT_TRUE(hasCode(R, "SK006"));
  const CheckFinding &F = *findCode(R, "SK006");
  EXPECT_EQ(F.Severity, CheckSeverity::Warning);
  EXPECT_EQ(F.Param, "A");
  EXPECT_EQ(F.Loc.Line, 4);
  EXPECT_EQ(R.hardCount(), 0);
}

TEST(Checker, GuardedAccessDemotesProvableOobToWarning) {
  // The guard may keep the bad access from ever executing, so a Conditional
  // kernel never gets a hard bounds verdict — only the may-OOB warning.
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++) {\n"
                        "    if (x[i] > 0)\n"
                        "      out[i] = x[i + 1];\n"
                        "    else\n"
                        "      out[i] = 0;\n"
                        "  }\n"
                        "}\n",
                        vectorShapes());
  EXPECT_FALSE(hasCode(R, "SK001"));
  EXPECT_TRUE(hasCode(R, "SK002"));
}

TEST(Checker, ReductionIntoOutputIsClean) {
  // += into the declared output is the normal reduction idiom (the
  // pipeline zeroes the output buffer), not an uninitialized accumulator.
  CheckOptions Opts;
  Opts.Shapes["x"] = {Poly::symbol("N")};
  Opts.Shapes["out"] = {};
  Opts.OutputParams.insert("out");
  CheckReport R = check("void kernel(int N, float* x, float* out) {\n"
                        "  for (int i = 0; i < N; i++)\n"
                        "    *out += x[i];\n"
                        "}\n",
                        Opts);
  EXPECT_FALSE(hasCode(R, "SK005"));
  EXPECT_EQ(R.hardCount(), 0);
}

TEST(Checker, CatalogIsCompleteAndUnique) {
  const std::vector<CheckCodeInfo> &Catalog = checkCatalog();
  ASSERT_EQ(Catalog.size(), 7u);
  std::set<std::string> Codes;
  for (const CheckCodeInfo &Info : Catalog) {
    EXPECT_TRUE(Codes.insert(Info.Code).second)
        << "duplicate code " << Info.Code;
    EXPECT_NE(std::string(Info.Summary), "");
  }
  for (const char *Code :
       {"SK001", "SK002", "SK003", "SK004", "SK005", "SK006", "SK007"})
    EXPECT_TRUE(Codes.count(Code)) << Code;
}

TEST(Checker, SeverityNamesAreStable) {
  EXPECT_STREQ(checkSeverityName(CheckSeverity::Hard), "error");
  EXPECT_STREQ(checkSeverityName(CheckSeverity::Warning), "warning");
}

TEST(Checker, ShapeExtentPolyParsesConstantsAndSymbols) {
  int64_t C = 0;
  ASSERT_TRUE(shapeExtentPoly("16").asConstant(C));
  EXPECT_EQ(C, 16);
  EXPECT_EQ(shapeExtentPoly("N"), Poly::symbol("N"));
}

// The positive half of the contract: every registry kernel — all 87, across
// every suite — checks clean against its declared argument shapes. This is
// the same configuration `stagg check --suite all` and the lift pipeline's
// step 2 use.
TEST(Checker, EveryRegistryKernelChecksClean) {
  int Checked = 0, Proven = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
    ASSERT_TRUE(Parsed.ok()) << B.Name << ": " << Parsed.Error;
    KernelModel Model = buildKernelModel(*Parsed.Function);
    CheckReport Report = checkKernel(Model, core::checkOptionsFor(B));
    EXPECT_EQ(Report.hardCount(), 0)
        << B.Name << ": " << Report.Findings.front().str();
    EXPECT_EQ(Report.warningCount(), 0)
        << B.Name << ": " << Report.Findings.front().str();
    ++Checked;
    Proven += Report.BoundsProvenSafe ? 1 : 0;
  }
  EXPECT_GE(Checked, 87);
  // The bounds proof must carry real coverage, not just fail open: the
  // subscript-style majority of the registry is provably safe.
  EXPECT_GE(Proven * 2, Checked);
}
