//===- analysis/Affine.h - Polynomial symbolic index expressions -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small multivariate polynomial domain over symbolic names (loop
/// variables and size parameters) with integer coefficients. Array accesses
/// in legacy kernels are affine in the loop variables with coefficients built
/// from size parameters (e.g. `f*N + i`), which this domain represents as the
/// polynomial {f·N: 1, i: 1}. Delinearization (paper §4.2.3, following
/// O'Boyle & Knijnenburg) then just counts the distinct loop symbols that
/// occur in the polynomial.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_ANALYSIS_AFFINE_H
#define STAGG_ANALYSIS_AFFINE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace stagg {
namespace analysis {

/// A product of symbols, kept sorted; the empty monomial is the constant
/// term.
using Monomial = std::vector<std::string>;

/// A polynomial: monomial -> integer coefficient. Zero coefficients are
/// erased eagerly so that equality is structural.
class Poly {
public:
  Poly() = default;

  static Poly constant(int64_t Value) {
    Poly P;
    if (Value != 0)
      P.Terms[{}] = Value;
    return P;
  }

  static Poly symbol(const std::string &Name) {
    Poly P;
    P.Terms[{Name}] = 1;
    return P;
  }

  /// A single-term polynomial `Coeff * M`; \p M must be sorted (it is
  /// canonicalized here). Cheaper than chaining constant()/symbol()
  /// multiplications when the monomial is already at hand.
  static Poly term(Monomial M, int64_t Coeff) {
    Poly P;
    if (Coeff != 0) {
      std::sort(M.begin(), M.end());
      P.Terms.emplace(std::move(M), Coeff);
    }
    return P;
  }

  const std::map<Monomial, int64_t> &terms() const { return Terms; }

  bool isZero() const { return Terms.empty(); }

  /// Returns the constant value if the polynomial is a plain constant.
  bool asConstant(int64_t &Out) const {
    if (Terms.empty()) {
      Out = 0;
      return true;
    }
    if (Terms.size() == 1 && Terms.begin()->first.empty()) {
      Out = Terms.begin()->second;
      return true;
    }
    return false;
  }

  Poly &operator+=(const Poly &Other) {
    for (const auto &[M, C] : Other.Terms)
      addTerm(M, C);
    return *this;
  }

  Poly &operator-=(const Poly &Other) {
    for (const auto &[M, C] : Other.Terms)
      addTerm(M, -C);
    return *this;
  }

  /// A temporary left operand is reused instead of copied.
  Poly operator+(const Poly &Other) const & {
    Poly R(*this);
    R += Other;
    return R;
  }
  Poly operator+(const Poly &Other) && { return std::move(*this += Other); }
  Poly operator-(const Poly &Other) const & {
    Poly R(*this);
    R -= Other;
    return R;
  }
  Poly operator-(const Poly &Other) && { return std::move(*this -= Other); }

  Poly operator-() const { return Poly::constant(0) - *this; }

  Poly operator*(const Poly &Other) const {
    Poly R;
    for (const auto &[MA, CA] : Terms)
      for (const auto &[MB, CB] : Other.Terms) {
        Monomial M = MA;
        M.insert(M.end(), MB.begin(), MB.end());
        std::sort(M.begin(), M.end());
        R.addTerm(M, CA * CB);
      }
    return R;
  }

  bool operator==(const Poly &Other) const { return Terms == Other.Terms; }

  /// True if any monomial mentions \p Name.
  bool mentions(const std::string &Name) const {
    for (const auto &[M, C] : Terms) {
      (void)C;
      if (std::find(M.begin(), M.end(), Name) != M.end())
        return true;
    }
    return false;
  }

  /// True if any monomial mentions a symbol satisfying \p Pred.
  template <typename Fn> bool mentionsIf(Fn Pred) const {
    for (const auto &[M, C] : Terms) {
      (void)C;
      for (const std::string &S : M)
        if (Pred(S))
          return true;
    }
    return false;
  }

  /// Collects the distinct symbols satisfying \p Pred.
  template <typename Fn> std::vector<std::string> symbolsIf(Fn Pred) const {
    std::vector<std::string> Out;
    for (const auto &[M, C] : Terms) {
      (void)C;
      for (const std::string &S : M)
        if (Pred(S) && std::find(Out.begin(), Out.end(), S) == Out.end())
          Out.push_back(S);
    }
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// Substitutes \p Name := \p Replacement everywhere.
  Poly substitute(const std::string &Name, const Poly &Replacement) const {
    Poly R;
    for (const auto &[M, C] : Terms) {
      Poly Term = Poly::constant(C);
      for (const std::string &S : M)
        Term = Term * (S == Name ? Replacement : Poly::symbol(S));
      R = R + Term;
    }
    return R;
  }

  /// Renders like "2*i*N + j + 3" for diagnostics.
  std::string str() const;

private:
  void addTerm(const Monomial &M, int64_t Coeff) {
    if (Coeff == 0)
      return;
    auto [It, Inserted] = Terms.emplace(M, Coeff);
    if (!Inserted) {
      It->second += Coeff;
      if (It->second == 0)
        Terms.erase(It);
    }
  }

  std::map<Monomial, int64_t> Terms;
};

} // namespace analysis
} // namespace stagg

#endif // STAGG_ANALYSIS_AFFINE_H
