//===- cfront/Lexer.h - Tokenizer for the mini-C front end ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the C subset. Comments (`//` and `/* */`) are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_CFRONT_LEXER_H
#define STAGG_CFRONT_LEXER_H

#include <cstdint>
#include <string>
#include <vector>

namespace stagg {
namespace cfront {

enum class CTokKind {
  Identifier,
  Keyword, // int, float, double, void, for, while, if, else, return
  Integer,
  Float,
  Punct, // one of the operator/punctuation spellings below
  End,
  Invalid,
};

/// The largest FloatScale a Float token carries: 10^18 is the largest
/// power of ten in int64, the denominator the interpreters divide by.
constexpr int MaxFloatScale = 18;

/// A token; Punct tokens carry their exact spelling (e.g. "+=", "++", "<=").
/// A numeric literal out of the exact range (an integer beyond int64, a
/// float whose digits overflow int64 or whose scale exceeds MaxFloatScale)
/// is an Invalid token spelled as written.
struct CToken {
  CTokKind Kind = CTokKind::Invalid;
  std::string Spelling;
  int64_t IntValue = 0;
  int64_t FloatMantissa = 0;
  int FloatScale = 0;
  int Line = 1;
  int Col = 1; ///< 1-based column of the token's first character.
};

/// Tokenizes \p Source; the result ends with an End token.
std::vector<CToken> lexC(const std::string &Source);

} // namespace cfront
} // namespace stagg

#endif // STAGG_CFRONT_LEXER_H
