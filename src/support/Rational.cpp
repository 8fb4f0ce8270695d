//===- support/Rational.cpp - Exact rational arithmetic -------------------===//

#include "support/Rational.h"

#include <cmath>
#include <limits>

using namespace stagg;

namespace {

constexpr uint64_t MaxMagnitude =
    static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

/// |V| without the overflow of negating INT64_MIN.
uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

/// gcd(|A|, B) for B > 0; the result is at most B, so it fits.
int64_t gcdWith(int64_t A, int64_t B) {
  return static_cast<int64_t>(std::gcd(magnitude(A), static_cast<uint64_t>(B)));
}

} // namespace

Rational::Rational(int64_t Numerator, int64_t Denominator)
    : Num(Numerator), Den(Denominator) {
  normalize();
}

void Rational::normalize() {
  if (Den == 0) {
    Num = 0;
    return;
  }
  if (Den == 1)
    return;
  // Reduce on magnitudes so that INT64_MIN components are handled exactly;
  // only a reduced value outside the int64 range is poisoned.
  const bool Negative = (Num < 0) != (Den < 0);
  uint64_t N = magnitude(Num);
  uint64_t D = magnitude(Den);
  const uint64_t G = std::gcd(N, D);
  if (G > 1) {
    N /= G;
    D /= G;
  }
  if (D > MaxMagnitude || N > MaxMagnitude + (Negative ? 1 : 0)) {
    *this = poisoned();
    return;
  }
  Num = Negative ? static_cast<int64_t>(0 - N) : static_cast<int64_t>(N);
  Den = static_cast<int64_t>(D);
}

Rational Rational::addSlow(const Rational &Other, bool Negate) const {
  if (isPoisoned() || Other.isPoisoned())
    return poisoned();
  if (isUndefined() || Other.isUndefined())
    return undefined();
  // (a*d +- c*b) / (b*d), reduced once, whenever that fits: the common
  // case costs one gcd.
  int64_t L, R, Sum, D;
  if (!__builtin_mul_overflow(Num, Other.Den, &L) &&
      !__builtin_mul_overflow(Other.Num, Den, &R) &&
      !(Negate ? __builtin_sub_overflow(L, R, &Sum)
               : __builtin_add_overflow(L, R, &Sum)) &&
      !__builtin_mul_overflow(Den, Other.Den, &D))
    return Rational(Sum, D);
  // Else a/b +- c/d = (a*(d/g) +- c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
  const int64_t G = std::gcd(Den, Other.Den);
  if (__builtin_mul_overflow(Num, Other.Den / G, &L) ||
      __builtin_mul_overflow(Other.Num, Den / G, &R) ||
      (Negate ? __builtin_sub_overflow(L, R, &Sum)
              : __builtin_add_overflow(L, R, &Sum)) ||
      __builtin_mul_overflow(Den, Other.Den / G, &D))
    return poisoned();
  return Rational(Sum, D);
}

Rational Rational::mulSlow(const Rational &Other) const {
  if (isPoisoned() || Other.isPoisoned())
    return poisoned();
  if (isUndefined() || Other.isUndefined())
    return undefined();
  // The plain product reduced once whenever it fits, else the factors
  // cross-reduced first (then the product is already in lowest terms).
  int64_t N, D;
  if (!__builtin_mul_overflow(Num, Other.Num, &N) &&
      !__builtin_mul_overflow(Den, Other.Den, &D))
    return Rational(N, D);
  const int64_t G1 = gcdWith(Num, Other.Den);
  const int64_t G2 = gcdWith(Other.Num, Den);
  if (__builtin_mul_overflow(Num / G1, Other.Num / G2, &N) ||
      __builtin_mul_overflow(Den / G2, Other.Den / G1, &D))
    return poisoned();
  Rational R;
  R.Num = N;
  R.Den = D;
  return R;
}

Rational Rational::operator/(const Rational &Other) const {
  if (isPoisoned() || Other.isPoisoned())
    return poisoned();
  if (isUndefined() || Other.isUndefined() || Other.Num == 0)
    return undefined();
  // (a*d) / (b*c), reduced once, whenever that fits.
  int64_t P, Q;
  if (!__builtin_mul_overflow(Num, Other.Den, &P) &&
      !__builtin_mul_overflow(Den, Other.Num, &Q))
    return Rational(P, Q);
  // Else (|a|/g1 * d/g2) / (b/g2 * |c|/g1) with g1 = gcd(|a|, |c|) and
  // g2 = gcd(b, d), on magnitudes: cross-reduced, so already in lowest
  // terms, and the sign is applied last.
  const bool Negative = (Num < 0) != (Other.Num < 0);
  const uint64_t A = magnitude(Num), C = magnitude(Other.Num);
  const uint64_t B = static_cast<uint64_t>(Den);
  const uint64_t D = static_cast<uint64_t>(Other.Den);
  const uint64_t G1 = std::gcd(A, C), G2 = std::gcd(B, D);
  uint64_t N, M;
  if (__builtin_mul_overflow(A / G1, D / G2, &N) ||
      __builtin_mul_overflow(B / G2, C / G1, &M) || M > MaxMagnitude ||
      N > MaxMagnitude + (Negative ? 1 : 0))
    return poisoned();
  Rational R;
  R.Num = Negative ? static_cast<int64_t>(0 - N) : static_cast<int64_t>(N);
  R.Den = static_cast<int64_t>(M);
  return R;
}

Rational Rational::operator-() const {
  if (Den == 0)
    return *this;
  if (Num == std::numeric_limits<int64_t>::min())
    return poisoned();
  Rational R(*this);
  R.Num = -R.Num;
  return R;
}

bool Rational::operator<(const Rational &Other) const {
  assert(!isUndefined() && !Other.isUndefined() &&
         "ordering undefined rationals");
  if (isPoisoned() || Other.isPoisoned())
    return false;
  return static_cast<__int128>(Num) * Other.Den <
         static_cast<__int128>(Other.Num) * Den;
}

double Rational::toDouble() const {
  if (Den == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(Num) / static_cast<double>(Den);
}

std::string Rational::str() const {
  if (isUndefined())
    return "undef";
  if (isPoisoned())
    return "overflow";
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}
