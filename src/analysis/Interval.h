//===- analysis/Interval.h - Symbolic ranges over affine offsets -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny symbolic interval domain over analysis::Poly, built for the static
/// bounds checker: given an affine access offset over loop symbols, compute
/// closed-form Min/Max offset polynomials over the *size parameters* by
/// substituting each loop symbol with 0 or `extent - 1` according to the
/// sign of its stride, and then prove polynomial inequalities "for all size
/// assignments >= 1" by a positivity argument:
///
///     P(s1,...,sk) >= 0 for all si >= 1
///
/// holds whenever P(1+t1,...,1+tk) has only non-negative coefficients (every
/// ti >= 0, and a polynomial with non-negative coefficients is non-negative
/// on the non-negative orthant). The shift handles mixed-sign affine forms
/// like `N*N - N` (= t^2 + t after the shift) that a naive per-coefficient
/// test would reject, which is exactly the shape delinearized bounds and
/// shifted-index accesses (`A[i+k]`, extents `N-k`) produce.
///
/// Symbols the caller marks as *loop* symbols are only assumed >= 0 (a loop
/// index can be 0), everything else — size parameters — is assumed >= 1,
/// matching the verifier's input family (every size parameter ranges from 1
/// up).
///
/// The test is sound but incomplete: `false` means "not provable here", not
/// "false for some assignment". The checker treats unprovable bounds as
/// may-out-of-bounds warnings, never as hard errors.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_ANALYSIS_INTERVAL_H
#define STAGG_ANALYSIS_INTERVAL_H

#include "analysis/Affine.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace stagg {
namespace analysis {

/// Proves `Sign * P >= 0` (\p Sign is 1 or -1) for every assignment where
/// symbols satisfying \p IsAtLeastOne are >= 1 and all remaining symbols
/// are >= 0; Sign -1 proves `P <= 0` without building `-P`. Sound,
/// incomplete (see file comment). The shift `s := 1 + t` is expanded
/// directly into one coefficient map — each monomial with k shifted symbols
/// contributes its coefficient to every subset of them — rather than via
/// repeated Poly::substitute, which would allocate a temporary polynomial
/// per symbol (this predicate runs several times per access on the serve
/// admission path).
template <typename Fn>
bool provablyNonNegative(const Poly &P, Fn IsAtLeastOne, int64_t Sign = 1) {
  // One term c*m shifts into one copy of c per subset of m's shifted
  // symbols: non-negative exactly when Sign*c is (the common case of a
  // constant or single-symbol stride, with no allocation).
  if (P.terms().size() <= 1)
    return P.terms().empty() || Sign * P.terms().begin()->second >= 0;
  // Offsets have a handful of monomials, so a flat vector with linear
  // lookup beats a tree map.
  std::vector<std::pair<Monomial, int64_t>> Shifted;
  Monomial Keep, Shift, Mono;
  for (const auto &[M, C] : P.terms()) {
    Keep.clear();
    Shift.clear();
    for (const std::string &S : M)
      (IsAtLeastOne(S) ? Shift : Keep).push_back(S);
    for (unsigned Mask = 0; Mask < (1u << Shift.size()); ++Mask) {
      Mono = Keep;
      for (unsigned B = 0; B < Shift.size(); ++B)
        if (Mask & (1u << B))
          Mono.push_back(Shift[B]);
      std::sort(Mono.begin(), Mono.end());
      auto It = std::find_if(
          Shifted.begin(), Shifted.end(),
          [&Mono](const std::pair<Monomial, int64_t> &E) {
            return E.first == Mono;
          });
      if (It == Shifted.end())
        Shifted.emplace_back(Mono, C);
      else
        It->second += C;
    }
  }
  for (const auto &[M, C] : Shifted) {
    (void)M;
    if (Sign * C < 0)
      return false;
  }
  return true;
}

/// Proves `P >= 0` assuming every symbol is >= 1 (size parameters only).
inline bool provablyNonNegative(const Poly &P) {
  return provablyNonNegative(P, [](const std::string &) { return true; });
}

/// An inclusive symbolic range [Min, Max] over size parameters.
struct SymRange {
  Poly Min;
  Poly Max;
};

/// Splits \p P = Stride * Sym + Rest when P is linear in \p Sym (no monomial
/// mentions Sym twice). Returns false for non-linear occurrences.
inline bool splitLinear(const Poly &P, const std::string &Sym, Poly &Stride,
                        Poly &Rest) {
  Stride = Poly();
  Rest = Poly();
  for (const auto &[M, C] : P.terms()) {
    int Count = 0;
    Monomial Without;
    for (const std::string &S : M) {
      if (S == Sym) {
        ++Count;
        continue;
      }
      Without.push_back(S);
    }
    if (Count > 1)
      return false;
    Poly Term = Poly::term(std::move(Without), C);
    if (Count == 1)
      Stride += Term;
    else
      Rest += Term;
  }
  return true;
}

} // namespace analysis
} // namespace stagg

#endif // STAGG_ANALYSIS_INTERVAL_H
