//===- support/Rational.h - Exact rational arithmetic -----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over 64-bit components. The paper extends CBMC with
/// rational datatypes so that equivalence of lifted programs is checked
/// without floating-point noise; our bounded verifier uses this class for the
/// same purpose.
///
/// Arithmetic is checked: every int64 product and sum goes through the
/// overflow builtins, and when the plain cross products overflow the
/// operands are first cross-reduced by their gcds and tried again. A result
/// that still does not fit yields the *poisoned* value, which propagates
/// through every operator and compares unequal to everything, itself
/// included, so an overflow can never make two sides agree; the bounded
/// verifier fails any test that ends holding one. Every other result is
/// the exact value in lowest terms, so values are bit-identical to
/// unchecked arithmetic wherever that did not overflow. Ordering compares
/// 128-bit cross products and is always exact.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SUPPORT_RATIONAL_H
#define STAGG_SUPPORT_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <string>

namespace stagg {

/// An exact rational number, always kept in lowest terms with a positive
/// denominator. Division by zero yields a dedicated "undefined" state rather
/// than trapping, because the einsum evaluator may legitimately divide by a
/// zero tensor entry during candidate validation; undefined values compare
/// equal only to other undefined values. Overflow yields the "poisoned"
/// state (see the file comment); poison wins over undefined.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  /*implicit*/ Rational(int64_t Value) : Num(Value), Den(1) {}
  Rational(int64_t Numerator, int64_t Denominator);

  /// Builds the canonical undefined value (result of division by zero).
  static Rational undefined() { return special(0); }

  /// Builds the poisoned value (result of an int64 overflow).
  static Rational poisoned() { return special(1); }

  bool isUndefined() const { return Den == 0 && Num == 0; }
  bool isPoisoned() const { return Den == 0 && Num != 0; }
  bool isZero() const { return Den != 0 && Num == 0; }

  int64_t numerator() const { return Num; }
  int64_t denominator() const { return Den; }

  Rational operator+(const Rational &Other) const {
    int64_t Sum;
    if (Den == 1 && Other.Den == 1) // integers: already in lowest terms
      return __builtin_add_overflow(Num, Other.Num, &Sum) ? poisoned()
                                                          : Rational(Sum);
    return addSlow(Other, /*Negate=*/false);
  }
  Rational operator-(const Rational &Other) const {
    int64_t Diff;
    if (Den == 1 && Other.Den == 1)
      return __builtin_sub_overflow(Num, Other.Num, &Diff) ? poisoned()
                                                           : Rational(Diff);
    return addSlow(Other, /*Negate=*/true);
  }
  Rational operator*(const Rational &Other) const {
    int64_t Prod;
    if (Den == 1 && Other.Den == 1)
      return __builtin_mul_overflow(Num, Other.Num, &Prod) ? poisoned()
                                                           : Rational(Prod);
    return mulSlow(Other);
  }
  Rational operator/(const Rational &Other) const;
  Rational operator-() const;

  Rational &operator+=(const Rational &Other) { return *this = *this + Other; }
  Rational &operator-=(const Rational &Other) { return *this = *this - Other; }
  Rational &operator*=(const Rational &Other) { return *this = *this * Other; }
  Rational &operator/=(const Rational &Other) { return *this = *this / Other; }

  bool operator==(const Rational &Other) const {
    return Num == Other.Num && Den == Other.Den && !isPoisoned();
  }
  bool operator!=(const Rational &Other) const { return !(*this == Other); }
  /// Exact (compares 128-bit cross products). False when either side is
  /// poisoned.
  bool operator<(const Rational &Other) const;

  /// Converts to double for diagnostics only; undefined and poisoned map to
  /// NaN.
  double toDouble() const;

  /// Renders as "n", "n/d", "undef", or "overflow".
  std::string str() const;

private:
  static Rational special(int64_t Tag) {
    Rational R;
    R.Num = Tag;
    R.Den = 0;
    return R;
  }
  Rational addSlow(const Rational &Other, bool Negate) const;
  Rational mulSlow(const Rational &Other) const;
  void normalize();

  int64_t Num;
  /// Zero denominator encodes the two special states: undefined (Num 0)
  /// and poisoned (Num 1).
  int64_t Den;
};

} // namespace stagg

#endif // STAGG_SUPPORT_RATIONAL_H
