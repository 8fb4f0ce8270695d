//===- cfront/Lexer.cpp - Tokenizer for the mini-C front end --------------===//

#include "cfront/Lexer.h"

#include <cctype>
#include <charconv>

using namespace stagg;
using namespace stagg::cfront;

static bool isKeyword(const std::string &Word) {
  static const char *Keywords[] = {"int",  "float", "double", "void",
                                   "for",  "while", "if",     "else",
                                   "return"};
  for (const char *K : Keywords)
    if (Word == K)
      return true;
  return false;
}

/// The digits [Begin, End) as an int64; false when they do not fit.
static bool parseDecimal(const char *Begin, const char *End, int64_t &Out) {
  auto [Ptr, Ec] = std::from_chars(Begin, End, Out);
  return Ec == std::errc() && Ptr == End;
}

std::vector<CToken> cfront::lexC(const std::string &Source) {
  std::vector<CToken> Tokens;
  size_t I = 0;
  const size_t N = Source.size();
  int Line = 1;
  size_t LineStart = 0;

  auto Peek = [&](size_t Ahead) -> char {
    return I + Ahead < N ? Source[I + Ahead] : '\0';
  };

  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      LineStart = I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (C == '/' && Peek(1) == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && Peek(1) == '*') {
      I += 2;
      while (I + 1 < N && !(Source[I] == '*' && Source[I + 1] == '/')) {
        if (Source[I] == '\n') {
          ++Line;
          LineStart = I + 1;
        }
        ++I;
      }
      I = I + 2 <= N ? I + 2 : N;
      continue;
    }

    CToken Tok;
    Tok.Line = Line;
    Tok.Col = static_cast<int>(I - LineStart) + 1;

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      Tok.Spelling = Source.substr(Start, I - Start);
      Tok.Kind = isKeyword(Tok.Spelling) ? CTokKind::Keyword
                                         : CTokKind::Identifier;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(C))) {
      // A literal whose value the interpreters cannot hold exactly becomes
      // an Invalid token (the parser reports it with its position): an
      // integer beyond int64, or a float whose digits overflow int64 or
      // whose scale passes 10^18, the largest power of ten in int64.
      size_t Start = I;
      while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
        ++I;
      if (I < N && Source[I] == '.') {
        ++I;
        size_t FracStart = I;
        while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
          ++I;
        size_t FracEnd = I;
        // Optional float suffix.
        if (I < N && (Source[I] == 'f' || Source[I] == 'F'))
          ++I;
        std::string Digits = Source.substr(Start, FracStart - 1 - Start) +
                             Source.substr(FracStart, FracEnd - FracStart);
        if (FracEnd == FracStart)
          Digits += '0'; // "2." == 20 / 10^1
        Tok.Kind = CTokKind::Float;
        Tok.Spelling = Source.substr(Start, I - Start);
        Tok.FloatScale = FracEnd == FracStart
                             ? 1
                             : static_cast<int>(FracEnd - FracStart);
        if (!parseDecimal(Digits.data(), Digits.data() + Digits.size(),
                          Tok.FloatMantissa) ||
            Tok.FloatScale > MaxFloatScale)
          Tok.Kind = CTokKind::Invalid;
        Tokens.push_back(std::move(Tok));
        continue;
      }
      Tok.Kind = CTokKind::Integer;
      Tok.Spelling = Source.substr(Start, I - Start);
      if (!parseDecimal(Source.data() + Start, Source.data() + I,
                        Tok.IntValue))
        Tok.Kind = CTokKind::Invalid;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    // Multi-character punctuation first.
    static const char *TwoChar[] = {"+=", "-=", "*=", "/=", "==", "!=",
                                    "<=", ">=", "&&", "||", "++", "--"};
    bool Matched = false;
    for (const char *P : TwoChar) {
      if (C == P[0] && Peek(1) == P[1]) {
        Tok.Kind = CTokKind::Punct;
        Tok.Spelling = P;
        I += 2;
        Matched = true;
        break;
      }
    }
    if (Matched) {
      Tokens.push_back(std::move(Tok));
      continue;
    }

    static const char OneChar[] = "+-*/%<>=!&(){}[];,";
    if (std::string(OneChar).find(C) != std::string::npos) {
      Tok.Kind = CTokKind::Punct;
      Tok.Spelling = std::string(1, C);
      ++I;
      Tokens.push_back(std::move(Tok));
      continue;
    }

    Tok.Kind = CTokKind::Invalid;
    Tok.Spelling = std::string(1, C);
    ++I;
    Tokens.push_back(std::move(Tok));
  }

  CToken EndTok;
  EndTok.Kind = CTokKind::End;
  EndTok.Line = Line;
  Tokens.push_back(std::move(EndTok));
  return Tokens;
}
