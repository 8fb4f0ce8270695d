//===- tests/CfrontParserTest.cpp - Mini-C parser -------------------------===//

#include "cfront/Parser.h"

#include "cfront/Lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

using namespace stagg::cfront;

TEST(CfrontParser, ParsesSimpleKernel) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Function->Name, "f");
  ASSERT_EQ(R.Function->Params.size(), 3u);
  EXPECT_FALSE(R.Function->Params[0].Type.isPointer());
  EXPECT_TRUE(R.Function->Params[1].Type.isPointer());
}

TEST(CfrontParser, ParsesPointerArithmetic) {
  CParseResult R = parseCFunction(
      "void f(int N, int* a, int* b) {"
      "  int* p = a; int* q = b;"
      "  for (int i = 0; i < N; i++) *q++ = *p++; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesCompoundAssignAndComments) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {\n"
      "  float s = 0; // accumulate\n"
      "  /* block comment */\n"
      "  for (int i = 0; i < N; i++) s += x[i];\n"
      "  *out = s; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesMultipleDeclarators) {
  CParseResult R = parseCFunction(
      "void f(int N, int* A) { int i, j; int *p, k;"
      "  p = A; i = 0; j = 0; k = 0; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesIfElseAndWhile) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x) {"
      "  int i = 0;"
      "  while (i < N) { if (i > 2) x[i] = 1; else x[i] = 2; i++; } }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesCasts) {
  CParseResult R = parseCFunction(
      "void f(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = (float) x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesAddressOfIndex) {
  CParseResult R = parseCFunction(
      "void f(int N, int* A) { int* p = &A[0]; *p = 3; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, ParsesArrayParamSyntax) {
  CParseResult R = parseCFunction(
      "void f(int N, float x[], float out[]) {"
      "  for (int i = 0; i < N; i++) out[i] = x[i]; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Function->Params[1].Type.isPointer());
}

TEST(CfrontParser, ParsesReturn) {
  CParseResult R = parseCFunction("int f(int N) { return N * 2; }");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(CfrontParser, RejectsMissingSemicolon) {
  EXPECT_FALSE(parseCFunction("void f(int N) { N = 1 }").ok());
}

TEST(CfrontParser, RejectsUnbalancedBraces) {
  EXPECT_FALSE(parseCFunction("void f(int N) { if (N) {").ok());
}

TEST(CfrontParser, RejectsBadParamList) {
  EXPECT_FALSE(parseCFunction("void f(int) { }").ok());
}

TEST(CfrontParser, EveryBenchmarkPrecedenceShape) {
  // a + b * c parses as a + (b * c).
  CParseResult R = parseCFunction(
      "void f(int N, float* a, float* b, float* c, float* o) {"
      "  for (int i = 0; i < N; i++) o[i] = a[i] + b[i] * c[i]; }");
  ASSERT_TRUE(R.ok());
}

//===----------------------------------------------------------------------===//
// Numeric literals at the edge of the exact range
//===----------------------------------------------------------------------===//

namespace {

/// The one numeric token of \p Literal.
CToken lexLiteral(const std::string &Literal) {
  std::vector<CToken> Tokens = lexC(Literal);
  EXPECT_EQ(Tokens.size(), 2u) << Literal; // the literal, then End
  return Tokens.front();
}

/// parseCFunction on a kernel storing \p Literal.
CParseResult parseStoring(const std::string &Literal) {
  return parseCFunction("void k(int N, float* out) {\n"
                        "  for (int i = 0; i < N; i++) out[i] = " +
                        Literal + "; }");
}

} // namespace

TEST(CfrontParser, IntegerLiteralsBeyondInt64AreParseErrors) {
  CToken Max = lexLiteral("9223372036854775807");
  EXPECT_EQ(Max.Kind, CTokKind::Integer);
  EXPECT_EQ(Max.IntValue, INT64_MAX);
  EXPECT_EQ(lexLiteral("007").IntValue, 7);
  EXPECT_TRUE(parseStoring("9223372036854775807").ok());

  for (const char *Literal : {"9223372036854775808", "99999999999999999999",
                              "340282366920938463463374607431768211456"}) {
    CToken Tok = lexLiteral(Literal);
    EXPECT_EQ(Tok.Kind, CTokKind::Invalid) << Literal;
    EXPECT_EQ(Tok.Spelling, Literal);
    CParseResult R = parseStoring(Literal);
    EXPECT_FALSE(R.ok()) << Literal;
    EXPECT_EQ(R.Error, std::string("numeric literal '") + Literal +
                           "' is out of range (line 2, column 40)");
  }
  // As an array parameter extent, too.
  CParseResult R =
      parseCFunction("void k(float x[99999999999999999999]) { x[0] = 1; }");
  EXPECT_EQ(R.Error, "numeric literal '99999999999999999999' is out of range "
                     "(line 1, column 16)");
}

TEST(CfrontParser, FloatLiteralsBeyondTheExactRangeAreParseErrors) {
  // Digits and scale that fit: mantissa / 10^scale.
  for (auto [Literal, Mantissa, Scale] :
       std::vector<std::tuple<const char *, int64_t, int>>{
           {"2.", 20, 1},
           {"2.5f", 25, 1},
           {"0.000000000000000001", 1, 18},
           {"9.223372036854775807", INT64_MAX, 18},
           {"922337203685477580.7", INT64_MAX, 1}}) {
    CToken Tok = lexLiteral(Literal);
    EXPECT_EQ(Tok.Kind, CTokKind::Float) << Literal;
    EXPECT_EQ(Tok.FloatMantissa, Mantissa) << Literal;
    EXPECT_EQ(Tok.FloatScale, Scale) << Literal;
    EXPECT_TRUE(parseStoring(Literal).ok()) << Literal;
  }
  // Digits that overflow int64, and a scale past 10^18.
  for (const char *Literal :
       {"1.99999999999999999999", "9.223372036854775808",
        "99999999999999999999.", "0.0000000000000000001",
        "0.0000000000000000000f"}) {
    CToken Tok = lexLiteral(Literal);
    EXPECT_EQ(Tok.Kind, CTokKind::Invalid) << Literal;
    CParseResult R = parseStoring(Literal);
    EXPECT_FALSE(R.ok()) << Literal;
    EXPECT_EQ(R.Error, std::string("numeric literal '") + Literal +
                           "' is out of range (line 2, column 40)");
  }
}
