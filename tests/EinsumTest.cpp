//===- tests/EinsumTest.cpp - Reference einsum evaluator ------------------===//

#include "EinsumReference.h"

#include "support/Rational.h"
#include "taco/Parser.h"

#include <gtest/gtest.h>

using namespace stagg;
using namespace stagg::taco;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseTacoProgram(Source);
  EXPECT_TRUE(R.ok()) << Source << ": " << R.Error;
  return std::move(*R.Prog);
}

Tensor<double> vec(std::vector<double> Values) {
  Tensor<double> T({static_cast<int64_t>(Values.size())});
  T.flat() = std::move(Values);
  return T;
}

Tensor<double> mat(int64_t Rows, int64_t Cols, std::vector<double> Values) {
  Tensor<double> T({Rows, Cols});
  T.flat() = std::move(Values);
  return T;
}

} // namespace

TEST(Einsum, ElementwiseAdd) {
  Program P = parse("a(i) = b(i) + c(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({1, 2, 3}));
  Ops.emplace("c", vec({10, 20, 30}));
  auto R = evalEinsum<double>(P, Ops, {3});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{11, 22, 33}));
}

TEST(Einsum, DotProductReducesFreeIndex) {
  Program P = parse("a = b(i) * c(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({1, 2, 3}));
  Ops.emplace("c", vec({4, 5, 6}));
  auto R = evalEinsum<double>(P, Ops, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat()[0], 32);
}

TEST(Einsum, MatVec) {
  Program P = parse("a(i) = b(i,j) * c(j)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", mat(2, 3, {1, 2, 3, 4, 5, 6}));
  Ops.emplace("c", vec({1, 1, 1}));
  auto R = evalEinsum<double>(P, Ops, {2});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{6, 15}));
}

TEST(Einsum, MatMul) {
  Program P = parse("a(i,j) = b(i,k) * c(k,j)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", mat(2, 2, {1, 2, 3, 4}));
  Ops.emplace("c", mat(2, 2, {5, 6, 7, 8}));
  auto R = evalEinsum<double>(P, Ops, {2, 2});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{19, 22, 43, 50}));
}

TEST(Einsum, Transpose) {
  Program P = parse("a(i,j) = b(j,i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", mat(2, 3, {1, 2, 3, 4, 5, 6}));
  auto R = evalEinsum<double>(P, Ops, {3, 2});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{1, 4, 2, 5, 3, 6}));
}

TEST(Einsum, SumReduction) {
  Program P = parse("a = b(i,j)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", mat(2, 2, {1, 2, 3, 4}));
  auto R = evalEinsum<double>(P, Ops, {});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat()[0], 10);
}

TEST(Einsum, DiagonalAccess) {
  Program P = parse("a = b(i,i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", mat(2, 2, {1, 2, 3, 4}));
  auto R = evalEinsum<double>(P, Ops, {});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat()[0], 5);
}

TEST(Einsum, ConstantBroadcast) {
  Program P = parse("a(i) = 7");
  std::map<std::string, Tensor<double>> Ops;
  auto R = evalEinsum<double>(P, Ops, {4});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{7, 7, 7, 7}));
}

TEST(Einsum, ScalarOperandBroadcast) {
  Program P = parse("a(i) = s * b(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("s", Tensor<double>::scalar(3));
  Ops.emplace("b", vec({1, 2}));
  auto R = evalEinsum<double>(P, Ops, {2});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{3, 6}));
}

TEST(Einsum, SubtractionInsideReduction) {
  // Extended einsum: sum_i (b(i) - c(i)).
  Program P = parse("a = b(i) - c(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({5, 7}));
  Ops.emplace("c", vec({1, 2}));
  auto R = evalEinsum<double>(P, Ops, {});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat()[0], 9);
}

TEST(Einsum, ParenthesizedGrouping) {
  Program P = parse("a(i) = (b(i) + c(i)) * d(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({1, 2}));
  Ops.emplace("c", vec({3, 4}));
  Ops.emplace("d", vec({5, 6}));
  auto R = evalEinsum<double>(P, Ops, {2});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{20, 36}));
}

TEST(Einsum, UnboundTensorFails) {
  Program P = parse("a(i) = b(i)");
  std::map<std::string, Tensor<double>> Ops;
  auto R = evalEinsum<double>(P, Ops, {2});
  EXPECT_FALSE(R.Ok);
}

TEST(Einsum, RankMismatchFails) {
  Program P = parse("a(i) = b(i,j)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({1, 2}));
  auto R = evalEinsum<double>(P, Ops, {2});
  EXPECT_FALSE(R.Ok);
}

TEST(Einsum, ConflictingExtentsFail) {
  Program P = parse("a(i) = b(i) + c(i)");
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("b", vec({1, 2}));
  Ops.emplace("c", vec({1, 2, 3}));
  auto R = evalEinsum<double>(P, Ops, {2});
  EXPECT_FALSE(R.Ok);
}

TEST(Einsum, RationalExactDivision) {
  Program P = parse("a(i) = b(i) / 4");
  std::map<std::string, Tensor<Rational>> Ops;
  Tensor<Rational> B({2});
  B.flat() = {Rational(1), Rational(3)};
  Ops.emplace("b", std::move(B));
  auto R = evalEinsum<Rational>(P, Ops, {2});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.flat()[0], Rational(1, 4));
  EXPECT_EQ(R.Value.flat()[1], Rational(3, 4));
}

TEST(Einsum, RationalDivisionByZeroIsUndefined) {
  Program P = parse("a(i) = b(i) / c(i)");
  std::map<std::string, Tensor<Rational>> Ops;
  Tensor<Rational> B({1}), C({1});
  B.flat() = {Rational(1)};
  C.flat() = {Rational(0)};
  Ops.emplace("b", std::move(B));
  Ops.emplace("c", std::move(C));
  auto R = evalEinsum<Rational>(P, Ops, {1});
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.Value.flat()[0].isUndefined());
}

TEST(Einsum, Order4Contraction) {
  Program P = parse("a(i,j,k) = b(i,j,k,l) * c(l)");
  std::map<std::string, Tensor<double>> Ops;
  Tensor<double> B({2, 2, 2, 2});
  for (size_t I = 0; I < B.flat().size(); ++I)
    B.flat()[I] = static_cast<double>(I);
  Ops.emplace("b", std::move(B));
  Ops.emplace("c", vec({1, 2}));
  auto R = evalEinsum<double>(P, Ops, {2, 2, 2});
  ASSERT_TRUE(R.Ok);
  // Entry (0,0,0) = 0*1 + 1*2 = 2.
  EXPECT_EQ(R.Value.at({0, 0, 0}), 2);
  // Entry (1,1,1) = 14*1 + 15*2 = 44.
  EXPECT_EQ(R.Value.at({1, 1, 1}), 44);
}

TEST(Einsum, MaxEvaluatesElementwise) {
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("x", vec({-2, 0, 3}));
  EinsumResult<double> R =
      evalEinsum<double>(parse("out(i) = max(x(i), 0)"), Ops, {3});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{0, 0, 3}));

  Ops.emplace("y", vec({1, -1, 5}));
  R = evalEinsum<double>(parse("out(i) = max(x(i), y(i))"), Ops, {3});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{1, 0, 5}));
}

TEST(Einsum, MaxOfReductionsPlacesSumsInsideTheCall) {
  // Each argument's reduction index is private to that argument, so the
  // sums happen inside the max, not around it.
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("A", mat(2, 2, {1, 2, -5, 1}));
  Ops.emplace("B", mat(2, 2, {0, 1, 2, 2}));
  EinsumResult<double> R =
      evalEinsum<double>(parse("out(i) = max(A(i,j), B(i,k))"), Ops, {2});
  ASSERT_TRUE(R.Ok) << R.Error;
  // Row sums: A = {3, -4}, B = {1, 4} -> max = {3, 4}.
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{3, 4}));
}

TEST(Einsum, ReduceSlotsFollowVariableNamesNotFirstAppearance) {
  // Slots follow first appearance (i, k, j), but a node introducing several
  // reductions nests them in variable-name order (j outside k), the order
  // the direct recursive evaluator used.
  Program P = parse("a(i) = b(i,k,j) * c(j,k)");
  EinsumProgram S(P);
  ASSERT_TRUE(S.ok()) << S.error();
  EXPECT_EQ(S.numSlots(), 3u);
  EXPECT_EQ(S.outSlots(), (std::vector<int>{0}));
  const EinsumProgram::Node &Root =
      S.nodes()[static_cast<size_t>(S.root())];
  EXPECT_EQ(Root.Kind, Expr::Kind::Binary);
  EXPECT_EQ(Root.ReduceSlots, (std::vector<int>{2, 1})); // j, k
  ASSERT_EQ(S.accessNodes().size(), 2u);
  EXPECT_EQ(S.nodes()[static_cast<size_t>(S.accessNodes()[0])].Slots,
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(S.nodes()[static_cast<size_t>(S.accessNodes()[1])].Slots,
            (std::vector<int>{2, 1}));
  for (int Id : S.accessNodes())
    EXPECT_TRUE(S.nodes()[static_cast<size_t>(Id)].ReduceSlots.empty());
}

TEST(Einsum, ReductionsPlacedAtSmallestCoveringNode) {
  // k is private to the first product, l to the second; j spans both and
  // is reduced at the root. An access alone introduces its private index.
  Program P = parse("a(i) = b(i,k,j) * c(k) + d(j,l) + e(i,m)");
  EinsumProgram S(P);
  ASSERT_TRUE(S.ok()) << S.error();
  // Slots: i=0, k=1, j=2, l=3, m=4. Post-order nodes: b, c, b*c, d,
  // (b*c)+d, e, root.
  ASSERT_EQ(S.nodes().size(), 7u);
  auto Reduces = [&S](size_t Id) { return S.nodes()[Id].ReduceSlots; };
  EXPECT_EQ(Reduces(2), (std::vector<int>{1}));    // b*c sums k
  EXPECT_EQ(Reduces(3), (std::vector<int>{3}));    // d sums l
  EXPECT_EQ(Reduces(4), (std::vector<int>{2}));    // (b*c)+d sums j
  EXPECT_EQ(Reduces(5), (std::vector<int>{4}));    // e sums m
  EXPECT_TRUE(Reduces(6).empty());
  EXPECT_EQ(S.root(), 6);
}

TEST(Einsum, SequenceExecutesStatementsInOrder) {
  ParseStatementsResult Seq = parseTacoStatements(
      "out(i) = x(i) * x(i); out(i) = out(i) + y(i)");
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  std::map<std::string, Tensor<double>> Ops;
  Ops.emplace("x", vec({1, 2, 3}));
  Ops.emplace("y", vec({10, 20, 30}));
  Ops.emplace("out", vec({0, 0, 0}));
  EinsumResult<double> R =
      evalEinsumSequence<double>(Seq.Programs, Ops, "out");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{11, 24, 39}));

  // A later statement may reduce over an earlier statement's result, and
  // intermediate names infer their shapes from the operands they read.
  Seq = parseTacoStatements("t(i) = x(i) * y(i); out = t(i)");
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  R = evalEinsumSequence<double>(Seq.Programs, Ops, "out");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.flat(), (std::vector<double>{140}));

  // The output name must be defined somewhere.
  R = evalEinsumSequence<double>(Seq.Programs, Ops, "nope");
  EXPECT_FALSE(R.Ok);
}
