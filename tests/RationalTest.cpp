//===- tests/RationalTest.cpp - Exact rational arithmetic -----------------===//

#include "support/Rational.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using stagg::Rational;

TEST(Rational, NormalizesToLowestTerms) {
  Rational R(6, 8);
  EXPECT_EQ(R.numerator(), 3);
  EXPECT_EQ(R.denominator(), 4);
}

TEST(Rational, NegativeDenominatorMovesSign) {
  Rational R(3, -6);
  EXPECT_EQ(R.numerator(), -1);
  EXPECT_EQ(R.denominator(), 2);
}

TEST(Rational, Arithmetic) {
  Rational A(1, 2), B(1, 3);
  EXPECT_EQ((A + B), Rational(5, 6));
  EXPECT_EQ((A - B), Rational(1, 6));
  EXPECT_EQ((A * B), Rational(1, 6));
  EXPECT_EQ((A / B), Rational(3, 2));
  EXPECT_EQ(-A, Rational(-1, 2));
}

TEST(Rational, CompoundAssignment) {
  Rational A(1, 4);
  A += Rational(1, 4);
  EXPECT_EQ(A, Rational(1, 2));
  A *= Rational(4);
  EXPECT_EQ(A, Rational(2));
  A -= Rational(1);
  EXPECT_EQ(A, Rational(1));
  A /= Rational(3);
  EXPECT_EQ(A, Rational(1, 3));
}

TEST(Rational, DivisionByZeroIsUndefined) {
  Rational R = Rational(1) / Rational(0);
  EXPECT_TRUE(R.isUndefined());
  // Undefined propagates through all operators.
  EXPECT_TRUE((R + Rational(1)).isUndefined());
  EXPECT_TRUE((Rational(1) - R).isUndefined());
  EXPECT_TRUE((R * R).isUndefined());
  EXPECT_TRUE((-R).isUndefined());
}

TEST(Rational, UndefinedComparesEqualOnlyToUndefined) {
  Rational U = Rational::undefined();
  EXPECT_EQ(U, Rational::undefined());
  EXPECT_NE(U, Rational(0));
  EXPECT_NE(Rational(0), U);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_FALSE(Rational(2, 4) < Rational(1, 2));
}

TEST(Rational, IntConversionAndStr) {
  EXPECT_EQ(Rational(7).str(), "7");
  EXPECT_EQ(Rational(-3, 9).str(), "-1/3");
  EXPECT_EQ(Rational::undefined().str(), "undef");
  EXPECT_DOUBLE_EQ(Rational(1, 4).toDouble(), 0.25);
}

TEST(Rational, ZeroHandling) {
  EXPECT_TRUE(Rational(0, 5).isZero());
  EXPECT_FALSE(Rational::undefined().isZero());
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

namespace {
constexpr int64_t Max = std::numeric_limits<int64_t>::max();
constexpr int64_t Min = std::numeric_limits<int64_t>::min();
} // namespace

TEST(Rational, IntegerFastPathMatchesGeneralPath) {
  // Integer operands skip the gcd; the value is the one the general path
  // (a non-integer operand that cancels) produces, bit for bit.
  EXPECT_EQ(Rational(6) * Rational(7), Rational(42));
  EXPECT_EQ(Rational(-6) + Rational(7), Rational(1, 2) + Rational(1, 2));
  EXPECT_EQ((Rational(9) - Rational(12)).denominator(), 1);
  EXPECT_EQ((Rational(3, 2) * Rational(4)).denominator(), 1);
  EXPECT_EQ((Rational(3, 2) * Rational(4)).numerator(), 6);
}

TEST(Rational, OverflowPoisonsInsteadOfWrapping) {
  // Each of these wraps in unchecked int64 arithmetic.
  EXPECT_TRUE((Rational(Max) + Rational(1)).isPoisoned());
  EXPECT_TRUE((Rational(Min) - Rational(1)).isPoisoned());
  EXPECT_TRUE((Rational(int64_t(1) << 62) * Rational(4)).isPoisoned());
  EXPECT_TRUE((Rational(Max) / Rational(1, 2)).isPoisoned());
  EXPECT_TRUE((-Rational(Min)).isPoisoned());
  EXPECT_TRUE(Rational(Min, -1).isPoisoned());
  EXPECT_TRUE((Rational(Max, 2) + Rational(Max, 3)).isPoisoned());
  // The edges themselves are representable.
  EXPECT_EQ((Rational(Max - 1) + Rational(1)).numerator(), Max);
  EXPECT_EQ((Rational(Min + 1) - Rational(1)).numerator(), Min);
  EXPECT_EQ(Rational(Min, 2), Rational(-(int64_t(1) << 62)));
}

TEST(Rational, CrossReductionAvoidsSpuriousOverflow) {
  // Exact results whose unreduced products leave int64.
  const int64_t P62 = int64_t(1) << 62, P61 = int64_t(1) << 61;
  EXPECT_EQ(Rational(P62, 3) * Rational(3, P61), Rational(2));
  EXPECT_EQ(Rational(1, P62) + Rational(1, P62), Rational(1, P61));
  EXPECT_EQ(Rational(1, P62) - Rational(3, P62), Rational(-1, P61));
  EXPECT_EQ(Rational(P62, 3) / Rational(P61, 3), Rational(2));
  EXPECT_EQ(Rational(Min) / Rational(Min), Rational(1));
  EXPECT_EQ(Rational(Max) * Rational(1, Max), Rational(1));
}

TEST(Rational, PoisonIsUnequalToEverything) {
  Rational P = Rational::poisoned();
  EXPECT_FALSE(P == P);
  EXPECT_TRUE(P != P);
  EXPECT_FALSE(P == Rational::poisoned());
  EXPECT_FALSE(P == Rational::undefined());
  EXPECT_FALSE(P == Rational(1));
  EXPECT_FALSE(P.isUndefined());
  EXPECT_FALSE(Rational::undefined().isPoisoned());
  EXPECT_FALSE(P < Rational(1));
  EXPECT_FALSE(Rational(1) < P);
  EXPECT_EQ(P.str(), "overflow");
  EXPECT_TRUE(std::isnan(P.toDouble()));
  // Poison propagates through every operator and wins over undefined.
  EXPECT_TRUE((P + Rational(1)).isPoisoned());
  EXPECT_TRUE((Rational(1, 2) - P).isPoisoned());
  EXPECT_TRUE((P * Rational(0)).isPoisoned());
  EXPECT_TRUE((P / Rational(0)).isPoisoned());
  EXPECT_TRUE((Rational::undefined() * P).isPoisoned());
  EXPECT_TRUE((-P).isPoisoned());
}

TEST(Rational, OrderingIsExactAtTheEdges) {
  // Cross products at or beyond the int64 range (the first pair's wraps).
  EXPECT_TRUE(Rational(1, 2) < Rational(int64_t(1) << 62, 3));
  EXPECT_FALSE(Rational(int64_t(1) << 62, 3) < Rational(1, 2));
  EXPECT_TRUE(Rational(Min) < Rational(Max, 3));
  EXPECT_TRUE(Rational(Max - 1, Max) < Rational(1));
}
