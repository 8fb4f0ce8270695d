//===- tests/VmOptimizerTest.cpp - vm::optimize pass tests ----------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Per-pass unit tests for the VM optimizer (dead-register elimination,
// constant dedup, span fusion) on small and hand-edited streams, the
// registry-wide raw-vs-optimized bit-identity sweep, and the
// vm::disassemble renderings `stagg disasm` prints.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include "benchsuite/Benchmark.h"
#include "taco/Einsum.h"
#include "taco/Parser.h"
#include "validate/IoExamples.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace stagg;

namespace {

taco::Program parse(const std::string &Source) {
  taco::ParseResult R = taco::parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source << ": " << R.Error;
  return *R.Prog;
}

taco::Tensor<double> filled(std::vector<int64_t> Shape, int Salt) {
  taco::Tensor<double> T(std::move(Shape));
  for (size_t I = 0; I < T.flat().size(); ++I)
    T.flat()[I] = static_cast<double>((I * 7 + Salt) % 11) + 1.0;
  return T;
}

int countOp(const vm::StmtCode &S, vm::Op K) {
  return static_cast<int>(std::count_if(
      S.Instrs.begin(), S.Instrs.end(),
      [K](const vm::Inst &I) { return I.K == K; }));
}

/// Runs \p Code and the default-optimized copy on \p Ops and expects
/// bit-identical cells.
void expectOptIdentical(const taco::Program &P,
                        const std::map<std::string, taco::Tensor<double>> &Ops,
                        const std::vector<int64_t> &OutShape) {
  vm::Code Raw = vm::compileProgram(P);
  ASSERT_TRUE(Raw.ok()) << Raw.error();
  vm::Code Opt = vm::optimize(Raw);
  ASSERT_TRUE(Opt.ok()) << Opt.error();

  vm::Interpreter<double> RawI(Raw), OptI(Opt);
  ASSERT_TRUE(RawI.bindMap(Ops, OutShape)) << RawI.error();
  ASSERT_TRUE(OptI.bindMap(Ops, OutShape)) << OptI.error();
  taco::EinsumResult<double> A = RawI.evaluate();
  taco::EinsumResult<double> B = OptI.evaluate();
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.Value.shape(), B.Value.shape());
  EXPECT_EQ(A.Value.flat(), B.Value.flat()); // bitwise, not approximate
}

//===----------------------------------------------------------------------===
// Span fusion.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DotProductFusesToOneDotSpan) {
  vm::Code Raw = vm::compileProgram(parse("s = a(i) * b(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::Code Opt = vm::optimize(Raw);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  EXPECT_EQ(countOp(S, vm::Op::DotSpan), 1);
  EXPECT_EQ(countOp(S, vm::Op::LoopBegin), 0);
  EXPECT_EQ(countOp(S, vm::Op::Load), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({7}, 1));
  Ops.emplace("b", filled({7}, 2));
  expectOptIdentical(parse("s = a(i) * b(i)"), Ops, {});
}

TEST(VmOptimizerTest, PlainReductionFusesToSumSpan) {
  vm::Code Raw = vm::compileProgram(parse("s = a(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::Code Opt = vm::optimize(Raw);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  EXPECT_EQ(countOp(S, vm::Op::SumSpan), 1);
  EXPECT_EQ(countOp(S, vm::Op::LoopBegin), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({9}, 3));
  expectOptIdentical(parse("s = a(i)"), Ops, {});
}

TEST(VmOptimizerTest, ElementwiseStatementBecomesMapSpan) {
  vm::Code Raw = vm::compileProgram(parse("out(i) = a(i) + b(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::Code Opt = vm::optimize(Raw);
  ASSERT_TRUE(Opt.ok());

  const vm::StmtCode &S = Opt.statements()[0];
  ASSERT_EQ(countOp(S, vm::Op::MapSpan), 1);
  const vm::Inst &Map = *std::find_if(
      S.Instrs.begin(), S.Instrs.end(),
      [](const vm::Inst &I) { return I.K == vm::Op::MapSpan; });
  EXPECT_EQ(Map.Dst, static_cast<int32_t>(vm::MapOp::Add));

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({6}, 4));
  Ops.emplace("b", filled({6}, 5));
  expectOptIdentical(parse("out(i) = a(i) + b(i)"), Ops, {6});
}

TEST(VmOptimizerTest, MapSpanHandlesTransposedOperandViaStride) {
  // a(i,j) = b(j,i) reads b with a non-unit stride along the span slot;
  // MapSpan accesses carry their own stride, so this still fuses — and
  // still matches the scalar walk bit for bit.
  vm::Code Raw = vm::compileProgram(parse("a(i,j) = b(j,i)"));
  ASSERT_TRUE(Raw.ok());
  vm::Code Opt = vm::optimize(Raw);
  EXPECT_EQ(countOp(Opt.statements()[0], vm::Op::MapSpan), 1);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({3, 4}, 1));
  expectOptIdentical(parse("a(i,j) = b(j,i)"), Ops, {4, 3});
}

TEST(VmOptimizerTest, ThreeOperandExpressionStaysScalar) {
  // Two binary ops exceed the tiny shapes MapSpan recognizes; the
  // statement must stay a scalar stream and still evaluate correctly.
  vm::Code Raw = vm::compileProgram(parse("out(i) = a(i) + b(i) + c(i)"));
  ASSERT_TRUE(Raw.ok());
  vm::Code Opt = vm::optimize(Raw);
  EXPECT_EQ(countOp(Opt.statements()[0], vm::Op::MapSpan), 0);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({6}, 1));
  Ops.emplace("b", filled({6}, 2));
  Ops.emplace("c", filled({6}, 3));
  expectOptIdentical(parse("out(i) = a(i) + b(i) + c(i)"), Ops, {6});
}

//===----------------------------------------------------------------------===
// Dead-register elimination on a hand-edited stream.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DeadPureInstructionIsEliminated) {
  taco::Program P = parse("out(i) = a(i)");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());

  // Append a pure instruction whose result nothing reads. (It also keeps
  // the statement from matching a MapSpan, so the scalar Load survives.)
  vm::StmtCode &S = Code.mutableStatements()[0];
  const int Dead = S.NumRegs++;
  S.Instrs.push_back({vm::Op::Add, Dead, S.Root, S.Root, -1});

  vm::Code Opt = vm::optimize(Code);
  ASSERT_TRUE(Opt.ok());
  const vm::StmtCode &OS = Opt.statements()[0];
  EXPECT_EQ(countOp(OS, vm::Op::Add), 0);
  EXPECT_EQ(OS.NumRegs, 1);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({5}, 7));
  vm::Interpreter<double> Interp(Opt);
  ASSERT_TRUE(Interp.bindMap(Ops, {5})) << Interp.error();
  taco::EinsumResult<double> Got = Interp.evaluate();
  ASSERT_TRUE(Got.Ok);
  EXPECT_EQ(Got.Value.flat(), Ops.at("a").flat());
}

//===----------------------------------------------------------------------===
// Constant dedup: pointer identity only.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, OnlyPointerIdenticalConstantsMerge) {
  // Two distinct ConstantExpr leaves with equal value keep their own
  // registers: dedup merges only a leaf referenced twice.
  taco::Program P = parse("out(i) = a(i) * 2 + 2");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());
  ASSERT_EQ(Code.statements()[0].Consts.size(), 2u);
  EXPECT_EQ(vm::optimize(Code).statements()[0].Consts.size(), 2u);

  // A hand-edited stream whose second constant leaf is the first one
  // again: the two registers merge, and the orphan falls to DCE.
  vm::Code Shared = Code;
  vm::StmtCode &SC = Shared.mutableStatements()[0];
  SC.Consts[1] = SC.Consts[0];
  vm::Code Merged = vm::optimize(Shared);
  EXPECT_EQ(Merged.statements()[0].Consts.size(), 1u);

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({4}, 8));
  expectOptIdentical(P, Ops, {4});
}

//===----------------------------------------------------------------------===
// Idempotence: optimizing twice changes nothing.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, OptimizeIsIdempotent) {
  for (const char *Src :
       {"s = a(i) * b(i)", "r(i) = m(i,j) * v(j)", "out(i) = a(i) + b(i)",
        "a(i,j) = b(i,k) * c(k,j)", "s = m(i,j)"}) {
    taco::Program P = parse(Src);
    vm::Code Once = vm::optimize(vm::compileProgram(P));
    vm::Code Twice = vm::optimize(Once);
    EXPECT_EQ(vm::disassemble(Once), vm::disassemble(Twice)) << Src;
  }
}

//===----------------------------------------------------------------------===
// Disassembly: what `stagg disasm` prints.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, DisassembleShowsSpansAndRawLoops) {
  taco::Program P = parse("s = x(i) * y(i)");
  vm::Code Raw = vm::compileProgram(P);
  std::string RawText = vm::disassemble(Raw);
  EXPECT_NE(RawText.find("LoopBegin"), std::string::npos);
  EXPECT_NE(RawText.find("MulAcc"), std::string::npos);
  EXPECT_NE(RawText.find("x(i)"), std::string::npos);

  std::string OptText = vm::disassemble(vm::optimize(Raw));
  EXPECT_NE(OptText.find("DotSpan"), std::string::npos);
  EXPECT_EQ(OptText.find("LoopBegin"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Registry-wide raw-vs-optimized bit identity.
//===----------------------------------------------------------------------===

TEST(VmOptimizerTest, RegistrySweepOptVsNoOptBitIdentity) {
  int Swept = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    ASSERT_TRUE(GT.ok()) << B.Name << ": " << GT.Error;
    vm::Code Raw = vm::compileStatements(GT.Programs);
    ASSERT_TRUE(Raw.ok()) << B.Name << ": " << Raw.error();
    vm::Code Opt = vm::optimize(Raw);
    ASSERT_TRUE(Opt.ok()) << B.Name << ": " << Opt.error();

    std::map<std::string, int64_t> SizeMap;
    int64_t Dim = 3;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        SizeMap[Arg.Name] = Dim++ % 4 + 2;
    std::map<std::string, taco::Tensor<double>> Ops;
    std::string OutName;
    int Salt = 1;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.IsOutput)
        OutName = Arg.Name;
      if (Arg.K == bench::ArgSpec::Kind::Array)
        Ops.emplace(Arg.Name,
                    filled(validate::resolveShape(Arg, SizeMap), Salt++));
      else if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(
                                  static_cast<double>(SizeMap[Arg.Name])));
      else
        Ops.emplace(Arg.Name, taco::Tensor<double>::scalar(Salt++ % 5 + 1));
    }
    ASSERT_FALSE(OutName.empty()) << B.Name;

    auto Resolve =
        [&](const std::string &Name) -> const taco::Tensor<double> * {
      auto It = Ops.find(Name);
      return It == Ops.end() ? nullptr : &It->second;
    };
    vm::Interpreter<double> RawI(Raw), OptI(Opt);
    taco::Tensor<double> RawOut, OptOut;
    ASSERT_TRUE(RawI.run(Resolve, OutName, RawOut))
        << B.Name << ": " << RawI.error();
    ASSERT_TRUE(OptI.run(Resolve, OutName, OptOut))
        << B.Name << ": " << OptI.error();
    EXPECT_EQ(RawOut.shape(), OptOut.shape()) << B.Name;
    EXPECT_EQ(RawOut.flat(), OptOut.flat()) << B.Name;
    ++Swept;
  }
  EXPECT_GE(Swept, 80); // the full registry, not a subset
}

} // namespace
