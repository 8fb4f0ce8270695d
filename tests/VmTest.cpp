//===- tests/VmTest.cpp - Bytecode VM for lifted programs -----------------===//
//
// Instruction-level unit tests for vm::Compiler / vm::Interpreter, the
// registry-wide bit-identity sweep against the reference einsum evaluator
// (tests/EinsumReference.h) in double and Rational cells, the
// zero-allocation rebind test, and concurrent execution of one shared
// vm::Code (the TSan lane's target).
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Optimizer.h"

#include "EinsumReference.h"

#include "benchsuite/Benchmark.h"
#include "support/Rational.h"
#include "taco/Parser.h"
#include "validate/IoExamples.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
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

/// Evaluates \p P both ways on \p Operands and expects bit-identical cells.
void expectIdentical(const taco::Program &P,
                     const std::map<std::string, taco::Tensor<double>> &Ops,
                     const std::vector<int64_t> &OutShape) {
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok()) << Code.error();
  vm::Interpreter<double> Interp(Code);
  ASSERT_TRUE(Interp.bindMap(Ops, OutShape)) << Interp.error();
  taco::EinsumResult<double> Vm = Interp.evaluate();
  taco::EinsumResult<double> Tree = taco::evalEinsum<double>(P, Ops, OutShape);
  ASSERT_TRUE(Vm.Ok);
  ASSERT_TRUE(Tree.Ok) << Tree.Error;
  EXPECT_EQ(Vm.Value.shape(), Tree.Value.shape());
  EXPECT_EQ(Vm.Value.flat(), Tree.Value.flat()); // bitwise, not approximate
}

//===----------------------------------------------------------------------===
// Instruction-level units.
//===----------------------------------------------------------------------===

TEST(VmTest, StridedLoadTranspose) {
  // b(j,i) walks b with a non-unit inner stride; the transpose output
  // exercises the coordinate-slot/stride resolution of Op::Load.
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({3, 4}, 1));
  expectIdentical(parse("a(i,j) = b(j,i)"), Ops, {4, 3});
}

TEST(VmTest, ReductionGemv) {
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("m", filled({4, 5}, 2));
  Ops.emplace("v", filled({5}, 3));
  expectIdentical(parse("r(i) = m(i,j) * v(j)"), Ops, {4});
}

TEST(VmTest, ReductionToScalar) {
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({6}, 4));
  Ops.emplace("b", filled({6}, 5));
  expectIdentical(parse("s = a(i) * b(i)"), Ops, {});
}

TEST(VmTest, DoubleReductionMatmul) {
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({3, 4}, 6));
  Ops.emplace("c", filled({4, 2}, 7));
  expectIdentical(parse("a(i,j) = b(i,k) * c(k,j)"), Ops, {3, 2});
}

TEST(VmTest, MaxAndConstants) {
  std::map<std::string, taco::Tensor<double>> Ops;
  taco::Tensor<double> X({5});
  X.flat() = {-3.0, 2.0, -1.0, 0.0, 7.0};
  Ops.emplace("x", std::move(X));
  expectIdentical(parse("out(i) = max(2 * x(i), 0)"), Ops, {5});
}

TEST(VmTest, ArithmeticMix) {
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("a", filled({4}, 8));
  Ops.emplace("b", filled({4}, 9));
  Ops.emplace("c", filled({4}, 10));
  expectIdentical(parse("out(i) = (a(i) + b(i)) * c(i) - a(i) / b(i)"), Ops,
                  {4});
  expectIdentical(parse("out(i) = -a(i) + 3"), Ops, {4});
}

TEST(VmTest, BindErrorStringsMatchReference) {
  vm::Code Code = vm::compileProgram(parse("a(i) = b(i) * c(i)"));
  ASSERT_TRUE(Code.ok());
  vm::Interpreter<double> Interp(Code);
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({4}, 1));

  EXPECT_FALSE(Interp.bindMap(Ops, {4, 4}));
  EXPECT_EQ(Interp.error(), "output shape rank does not match LHS");
  EXPECT_FALSE(Interp.bindMap(Ops, {4}));
  EXPECT_EQ(Interp.error(), "unbound tensor 'c'");
  Ops.emplace("c", filled({3}, 2));
  EXPECT_FALSE(Interp.bindMap(Ops, {4}));
  EXPECT_EQ(Interp.error(), "index 'i' has conflicting extents");
}

TEST(VmTest, ZeroExtentBindFailsInsteadOfReadingOutOfBounds) {
  // The reduction loop is a do-while: its body executes at least once, and
  // Op::Load has no bounds check, so a zero-extent binding must be refused
  // at bind time (release builds have no Tensor dimension assert to rely
  // on). The output shape is the one seam where a caller can present a
  // zero extent without first constructing a zero-dim tensor.
  vm::Code Code = vm::compileProgram(parse("a(i) = b(i)"));
  ASSERT_TRUE(Code.ok());
  vm::Interpreter<double> Interp(Code);
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({4}, 1));

  EXPECT_FALSE(Interp.bindMap(Ops, {0}));
  EXPECT_EQ(Interp.error(), "index 'i' has non-positive extent");
  EXPECT_FALSE(Interp.bindMap(Ops, {-2}));
  EXPECT_EQ(Interp.error(), "index 'i' has non-positive extent");

  // A well-formed rebind afterwards still succeeds.
  EXPECT_TRUE(Interp.bindMap(Ops, {4})) << Interp.error();
}

//===----------------------------------------------------------------------===
// Statement lists (store forwarding).
//===----------------------------------------------------------------------===

TEST(VmTest, StatementListStoreForwarding) {
  taco::ParseStatementsResult GT = taco::parseTacoStatements(
      "t(i) = x(i) * x(i); out(i) = t(i) + y(i)");
  ASSERT_TRUE(GT.ok()) << GT.Error;
  vm::Code Code = vm::compileStatements(GT.Programs);
  ASSERT_TRUE(Code.ok()) << Code.error();

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("x", filled({5}, 1));
  Ops.emplace("y", filled({5}, 2));
  auto Resolve = [&](const std::string &Name) -> const taco::Tensor<double> * {
    auto It = Ops.find(Name);
    return It == Ops.end() ? nullptr : &It->second;
  };

  vm::Interpreter<double> Interp(Code);
  taco::Tensor<double> Out;
  ASSERT_TRUE(Interp.run(Resolve, "out", Out)) << Interp.error();
  taco::EinsumResult<double> Tree =
      taco::evalEinsumSequence<double>(GT.Programs, Ops, "out");
  ASSERT_TRUE(Tree.Ok) << Tree.Error;
  EXPECT_EQ(Out.shape(), Tree.Value.shape());
  EXPECT_EQ(Out.flat(), Tree.Value.flat());

  // Latest definition wins: a second store to the same name shadows the
  // first for later reads (read-modify-write of the output buffer).
  taco::ParseStatementsResult Rmw = taco::parseTacoStatements(
      "out(i) = x(i) * x(i); out(i) = out(i) + y(i)");
  ASSERT_TRUE(Rmw.ok()) << Rmw.Error;
  vm::Code RmwCode = vm::compileStatements(Rmw.Programs);
  ASSERT_TRUE(RmwCode.ok()) << RmwCode.error();
  vm::Interpreter<double> RmwInterp(RmwCode);
  ASSERT_TRUE(RmwInterp.run(Resolve, "out", Out)) << RmwInterp.error();
  taco::EinsumResult<double> RmwTree =
      taco::evalEinsumSequence<double>(Rmw.Programs, Ops, "out");
  ASSERT_TRUE(RmwTree.Ok) << RmwTree.Error;
  EXPECT_EQ(Out.flat(), RmwTree.Value.flat());
}

TEST(VmTest, StatementListErrors) {
  taco::ParseStatementsResult GT =
      taco::parseTacoStatements("t(i) = x(i) * 2");
  ASSERT_TRUE(GT.ok());
  vm::Code Code = vm::compileStatements(GT.Programs);
  ASSERT_TRUE(Code.ok());
  vm::Interpreter<double> Interp(Code);
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("x", filled({4}, 1));
  auto Resolve = [&](const std::string &Name) -> const taco::Tensor<double> * {
    auto It = Ops.find(Name);
    return It == Ops.end() ? nullptr : &It->second;
  };
  taco::Tensor<double> Out;
  EXPECT_FALSE(Interp.run(Resolve, "missing", Out));
  EXPECT_EQ(Interp.error(), "statement list never defines 'missing'");

  taco::EinsumResult<double> Tree =
      taco::evalEinsumSequence<double>(GT.Programs, Ops, "missing");
  EXPECT_EQ(Interp.error(), Tree.Error); // verbatim the reference string
}

//===----------------------------------------------------------------------===
// Registry-wide bit-identity: every ground truth, VM vs the reference.
//===----------------------------------------------------------------------===

/// Runs the ground truth of every registry kernel through the raw and the
/// optimized VM stream and expects the reference statement-list evaluation
/// cell for cell. \p Cell maps a 1-based fill value to a cell, so one sweep
/// serves the validator's doubles and the verifier's rationals.
template <typename T, typename CellFn> int sweepRegistry(CellFn Cell) {
  int Swept = 0;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B.GroundTruth);
    EXPECT_TRUE(GT.ok()) << B.Name << ": " << GT.Error;
    vm::Code Raw = vm::compileStatements(GT.Programs);
    EXPECT_TRUE(Raw.ok()) << B.Name << ": " << Raw.error();
    if (!GT.ok() || !Raw.ok())
      continue;

    // Operands shaped by the benchmark's own argument specs, deterministic
    // nonzero fill (divisions stay finite).
    std::map<std::string, int64_t> SizeMap;
    int64_t Dim = 3;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
        SizeMap[Arg.Name] = Dim++ % 4 + 2;
    std::map<std::string, taco::Tensor<T>> Ops;
    std::string OutName;
    int Salt = 1;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.IsOutput)
        OutName = Arg.Name;
      if (Arg.K == bench::ArgSpec::Kind::Array) {
        taco::Tensor<T> Arr(validate::resolveShape(Arg, SizeMap));
        for (size_t I = 0; I < Arr.flat().size(); ++I)
          Arr.flat()[I] = Cell(static_cast<int64_t>((I * 7 + Salt) % 11) + 1);
        ++Salt;
        Ops.emplace(Arg.Name, std::move(Arr));
      } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
        Ops.emplace(Arg.Name, taco::Tensor<T>::scalar(Cell(SizeMap[Arg.Name])));
      } else {
        Ops.emplace(Arg.Name, taco::Tensor<T>::scalar(Cell(Salt++ % 5 + 1)));
      }
    }
    EXPECT_FALSE(OutName.empty()) << B.Name;

    taco::EinsumResult<T> Want =
        taco::evalEinsumSequence<T>(GT.Programs, Ops, OutName);
    EXPECT_TRUE(Want.Ok) << B.Name << ": " << Want.Error;
    auto Resolve = [&](const std::string &Name) -> const taco::Tensor<T> * {
      auto It = Ops.find(Name);
      return It == Ops.end() ? nullptr : &It->second;
    };
    for (const vm::Code &Code : {Raw, vm::optimize(Raw)}) {
      vm::Interpreter<T> Interp(Code);
      taco::Tensor<T> Out;
      EXPECT_TRUE(Interp.run(Resolve, OutName, Out))
          << B.Name << ": " << Interp.error();
      EXPECT_EQ(Out.shape(), Want.Value.shape()) << B.Name;
      EXPECT_TRUE(Out.flat() == Want.Value.flat()) << B.Name;
    }
    ++Swept;
  }
  return Swept;
}

TEST(VmTest, RegistrySweepBitIdentity) {
  // The validator's cells, then the verifier's.
  EXPECT_GE(sweepRegistry<double>(
                [](int64_t V) { return static_cast<double>(V); }),
            80); // the full registry, not a subset
  EXPECT_GE(sweepRegistry<Rational>([](int64_t V) { return Rational(V, 3); }),
            80);
}

TEST(VmTest, RationalCellsMatchReference) {
  // The verifier's cell type: exact arithmetic through the same bytecode.
  taco::Program P = parse("r(i) = m(i,j) * v(j) + 2");
  std::map<std::string, taco::Tensor<Rational>> Ops;
  taco::Tensor<Rational> M({3, 4}), V({4});
  for (size_t I = 0; I < M.flat().size(); ++I)
    M.flat()[I] = Rational(static_cast<int64_t>(I % 5) + 1,
                           static_cast<int64_t>(I % 3) + 1);
  for (size_t I = 0; I < V.flat().size(); ++I)
    V.flat()[I] = Rational(static_cast<int64_t>(I) + 1, 7);
  Ops.emplace("m", std::move(M));
  Ops.emplace("v", std::move(V));

  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok()) << Code.error();
  vm::Interpreter<Rational> Interp(Code);
  ASSERT_TRUE(Interp.bindMap(Ops, {3})) << Interp.error();
  taco::EinsumResult<Rational> Vm = Interp.evaluate();
  taco::EinsumResult<Rational> Tree = taco::evalEinsum<Rational>(P, Ops, {3});
  ASSERT_TRUE(Vm.Ok);
  ASSERT_TRUE(Tree.Ok) << Tree.Error;
  ASSERT_EQ(Vm.Value.flat().size(), Tree.Value.flat().size());
  for (size_t I = 0; I < Vm.Value.flat().size(); ++I)
    EXPECT_TRUE(Vm.Value.flat()[I] == Tree.Value.flat()[I]) << I;
}

//===----------------------------------------------------------------------===
// Rebind reuse: zero allocation on the steady-state execute path.
//===----------------------------------------------------------------------===

TEST(VmTest, RebindReuseAllocatesNothing) {
  vm::Code Code = vm::compileProgram(parse("r(i) = m(i,j) * v(j)"));
  ASSERT_TRUE(Code.ok());
  vm::Interpreter<double> Interp(Code);

  std::map<std::string, taco::Tensor<double>> A, B;
  A.emplace("m", filled({6, 8}, 1));
  A.emplace("v", filled({8}, 2));
  B.emplace("m", filled({6, 8}, 3));
  B.emplace("v", filled({8}, 4));

  taco::Tensor<double> Out({6});
  ASSERT_TRUE(Interp.bindMap(A, {6}));
  Interp.evaluateInto(Out);
  int64_t Settled = Interp.allocEvents();

  // Rebinding equal shapes and re-executing must not grow any buffer.
  for (int Round = 0; Round < 50; ++Round) {
    ASSERT_TRUE(Interp.bindMap(Round % 2 ? B : A, {6}));
    Interp.evaluateInto(Out);
  }
  EXPECT_EQ(Interp.allocEvents(), Settled);

  // Values still track the bound operand set.
  ASSERT_TRUE(Interp.bindMap(A, {6}));
  Interp.evaluateInto(Out);
  taco::EinsumResult<double> Want = taco::evalEinsum<double>(
      parse("r(i) = m(i,j) * v(j)"), A, {6});
  EXPECT_EQ(Out.flat(), Want.Value.flat());
}

TEST(VmTest, ResetRepointsAtNewCodeKeepingBuffers) {
  // The validator's pattern: one interpreter re-pointed at each template's
  // code and bound from prepared tables — storage plus (slot, stride) span
  // per access ordinal (leaf order) and one extent per slot — not by name.
  taco::Program First = parse("r(i) = m(i,j) * v(j)");
  taco::Program Second = parse("r(i) = v(j) * m(i,j)");
  vm::Code C1 = vm::compileProgram(First);
  vm::Code C2 = vm::compileProgram(Second);
  ASSERT_TRUE(C1.ok() && C2.ok());
  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("m", filled({6, 8}, 1));
  Ops.emplace("v", filled({8}, 2));
  const taco::Tensor<double> *M = &Ops.at("m"), *V = &Ops.at("v");

  // Both programs intern i as slot 0 and j as slot 1.
  const vm::SlotStride MSpan[] = {{0, 8}, {1, 1}}, VSpan[] = {{1, 1}};
  const vm::AccessBinding<double> MBind{M->flat().data(), MSpan, MSpan + 2};
  const vm::AccessBinding<double> VBind{V->flat().data(), VSpan, VSpan + 1};
  const vm::AccessBinding<double> FirstBinds[] = {MBind, VBind};
  const vm::AccessBinding<double> SecondBinds[] = {VBind, MBind};
  const int64_t Extents[] = {6, 8};
  const std::vector<int64_t> OutShape = {6};

  vm::Interpreter<double> Interp(C1);
  taco::Tensor<double> Out({6});
  auto RunBoth = [&] {
    Interp.reset(C1);
    Interp.bindPrepared(FirstBinds, Extents, OutShape);
    Interp.evaluateInto(Out);
    EXPECT_EQ(Out.flat(), taco::evalEinsum<double>(First, Ops, {6}).Value.flat());
    Interp.reset(C2);
    Interp.bindPrepared(SecondBinds, Extents, OutShape);
    Interp.evaluateInto(Out);
    EXPECT_EQ(Out.flat(),
              taco::evalEinsum<double>(Second, Ops, {6}).Value.flat());
  };
  RunBoth();
  int64_t Settled = Interp.allocEvents();
  for (int Round = 0; Round < 10; ++Round)
    RunBoth();
  EXPECT_EQ(Interp.allocEvents(), Settled);

  // The checked bind of the same code derives the same evaluation, and its
  // diagnostics still name the access.
  Interp.reset(C1);
  ASSERT_TRUE(Interp.bindMap(Ops, OutShape));
  taco::Tensor<double> ByName({6});
  Interp.evaluateInto(ByName);
  EXPECT_EQ(ByName.flat(), Out.flat());
  EXPECT_FALSE(Interp.bind(
      [&](const std::string &Name) { return Name == "m" ? M : nullptr; },
      OutShape));
  EXPECT_EQ(Interp.error(), "unbound tensor 'v'");
}

//===----------------------------------------------------------------------===
// Concurrency: one immutable Code, many interpreters (TSan target).
//===----------------------------------------------------------------------===

TEST(VmTest, ConcurrentInterpretersShareOneCode) {
  taco::Program P = parse("a(i,j) = b(i,k) * c(k,j)");
  vm::Code Code = vm::compileProgram(P);
  ASSERT_TRUE(Code.ok());

  std::map<std::string, taco::Tensor<double>> Ops;
  Ops.emplace("b", filled({8, 8}, 1));
  Ops.emplace("c", filled({8, 8}, 2));
  taco::EinsumResult<double> Want = taco::evalEinsum<double>(P, Ops, {8, 8});
  ASSERT_TRUE(Want.Ok);

  std::vector<std::thread> Pool;
  std::vector<int> Failures(4, 0);
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      vm::Interpreter<double> Interp(Code);
      if (!Interp.bindMap(Ops, {8, 8})) {
        Failures[T] = 1;
        return;
      }
      taco::Tensor<double> Out;
      for (int Round = 0; Round < 100; ++Round) {
        Interp.evaluateInto(Out);
        if (Out.flat() != Want.Value.flat()) {
          Failures[T] = 1;
          return;
        }
      }
    });
  for (std::thread &Thread : Pool)
    Thread.join();
  EXPECT_EQ(Failures, std::vector<int>(4, 0));
}

} // namespace
