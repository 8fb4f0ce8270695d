//===- tests/ApiTest.cpp - The first-class lift API -----------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Pins down the public API layer: the JSON reader/writer round-trip
// (escaping, nesting, error positions), kernel ingestion across the kernel
// shapes the walker must handle (elementwise, scalar parameters, reductions
// into linearized 2-D outputs, accumulator dot products, transposed
// accesses, constant extents, pointer walking via oracle hints), config
// patch precedence and its cache-fingerprint coverage, the wire protocol's
// auto-detection and field validation, and a full serve round-trip of an
// inline kernel — including the regression test for the old raw-pointer
// lifetime hazard (requests must outlive any caller buffer).
//
//===----------------------------------------------------------------------===//

#include "api/Endpoint.h"
#include "api/KernelIngest.h"
#include "api/Protocol.h"

#include "support/Json.h"
#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <optional>
#include <random>

using namespace stagg;
using support::Json;
using support::JsonParseResult;
using support::parseJson;
using support::JsonNumber;

namespace {

//===----------------------------------------------------------------------===//
// support::Json
//===----------------------------------------------------------------------===//

TEST(Json, RoundTripsEscapingAndNesting) {
  Json Inner = Json::object();
  Inner.set("text", Json::str("a \"quoted\"\nline\twith \\ and \x01"));
  Inner.set("pi", Json::number(3.25));
  Json Root = Json::object();
  Root.set("v", Json::integer(1));
  Root.set("flags", Json::array().push(Json::boolean(true))
                        .push(Json::null())
                        .push(std::move(Inner)));

  std::string Dumped = Root.dump();
  JsonParseResult Parsed = parseJson(Dumped);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error.describe();
  EXPECT_EQ(Parsed.Value.dump(), Dumped); // stable fixed point

  const Json *Flags = Parsed.Value.find("flags");
  ASSERT_TRUE(Flags && Flags->isArray());
  ASSERT_EQ(Flags->items().size(), 3u);
  EXPECT_TRUE(Flags->items()[1].isNull());
  const Json *Text = Flags->items()[2].find("text");
  ASSERT_TRUE(Text);
  EXPECT_EQ(Text->asString(), "a \"quoted\"\nline\twith \\ and \x01");
  EXPECT_DOUBLE_EQ(Flags->items()[2].find("pi")->asNumber(), 3.25);
}

TEST(Json, IntegersStayIntegral) {
  JsonParseResult Parsed = parseJson("{\"n\":-42,\"d\":1.5,\"big\":1e3}");
  ASSERT_TRUE(Parsed.ok());
  EXPECT_TRUE(Parsed.Value.find("n")->isInteger());
  EXPECT_EQ(Parsed.Value.find("n")->asInteger(), -42);
  EXPECT_FALSE(Parsed.Value.find("d")->isInteger());
  EXPECT_FALSE(Parsed.Value.find("big")->isInteger()); // exponent form
  EXPECT_EQ(Json::integer(9000000000000LL).dump(), "9000000000000");
}

TEST(Json, UnicodeEscapes) {
  JsonParseResult Parsed = parseJson("\"a\\u00e9\\u20ac\\ud83d\\ude00b\"");
  ASSERT_TRUE(Parsed.ok());
  EXPECT_EQ(Parsed.Value.asString(),
            "a\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"
            "b");
}

TEST(Json, OutputStaysValidUtf8UnderHostileBytes) {
  // Raw invalid bytes and lone surrogates must not leak into responses —
  // strict clients would fail to decode the whole line.
  EXPECT_EQ(Json::str("a\xff"
                      "b")
                .dump(),
            "\"a\xEF\xBF\xBD"
            "b\"");
  EXPECT_EQ(Json::str("ok \xc3\xa9 \xe2\x82\xac").dump(),
            "\"ok \xc3\xa9 \xe2\x82\xac\""); // valid UTF-8 passes verbatim
  EXPECT_EQ(Json::str("trunc\xe2\x82").dump(),
            "\"trunc\xEF\xBF\xBD\xEF\xBF\xBD\"");
  JsonParseResult Lone = parseJson("\"x\\ud800y\"");
  ASSERT_TRUE(Lone.ok());
  EXPECT_EQ(Lone.Value.asString(), "x\xEF\xBF\xBDy");
}

TEST(Json, ErrorPositionsPointAtTheProblem) {
  JsonParseResult Parsed = parseJson("{\"a\": 1,\n  \"b\" 2}");
  ASSERT_FALSE(Parsed.ok());
  EXPECT_EQ(Parsed.Error.Line, 2);
  EXPECT_EQ(Parsed.Error.Column, 7);
  EXPECT_NE(Parsed.Error.describe().find("expected ':'"), std::string::npos);

  EXPECT_FALSE(parseJson("{\"a\":1}{").ok());   // trailing content
  EXPECT_FALSE(parseJson("{\"a\":1,\"a\":2}").ok()); // duplicate key
  EXPECT_FALSE(parseJson("[1,]").ok());
  EXPECT_FALSE(parseJson("\"unterminated").ok());
  EXPECT_FALSE(parseJson("01").ok()); // "0" then trailing "1"
  std::string Deep(100, '[');
  EXPECT_FALSE(parseJson(Deep).ok()); // nesting cap, not a stack overflow
}

/// The reference rendering appendJsonNumber must reproduce byte for byte.
std::string printfNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.12g", V);
  return Buffer;
}

std::string formatted(double V) {
  std::string Out;
  support::appendJsonNumber(Out, V);
  return Out;
}

/// Bitwise double equality (tells -0.0 from +0.0).
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

TEST(Json, NumberFormatterMatchesPrintf) {
  const double Inf = std::numeric_limits<double>::infinity();
  for (double V :
       {0.0, -0.0, 1e-07, -1e-07, 1e-05, 1e-04, 0.0001234, 0.1, 0.3, 2.5,
        -2.5, 1.0 / 3, 123456.789, 999999999999.0, -999999999999.0,
        999999999999.4, 999999999999.5, 1e12, -1e12, 1e12 + 1, 1e15,
        9007199254740993.0, 9.2233720368547758e18, 1e21, 1e22, DBL_MAX,
        -DBL_MAX, DBL_MIN, std::numeric_limits<double>::denorm_min(), Inf,
        -Inf, std::nan("")}) {
    EXPECT_EQ(formatted(V), printfNumber(V)) << std::hexfloat << V;
    EXPECT_EQ(Json::number(V).dump(), printfNumber(V)) << std::hexfloat << V;
  }

  std::mt19937_64 Rng(0x5EEDF00Du);
  for (int I = 0; I < 200000; ++I) {
    uint64_t Bits = Rng();
    double Random;
    std::memcpy(&Random, &Bits, sizeof(double));
    double Integer =
        static_cast<double>(static_cast<int64_t>(Rng() % 2000000000003ull) -
                            1000000000001);
    double Scaled = static_cast<double>(static_cast<int64_t>(Rng() % 2000001) -
                                        1000000) *
                    std::pow(10.0, static_cast<int>(Rng() % 41) - 20);
    for (double V : {Random, Integer, Scaled})
      ASSERT_EQ(formatted(V), printfNumber(V)) << std::hexfloat << V;
  }

  // Zero takes the integer path; negative zero keeps its sign.
  EXPECT_EQ(formatted(0.0), "0");
  EXPECT_EQ(formatted(-0.0), "-0");

  // The span form spells every cell as appendJsonNumber does, at lengths
  // around its chunk (4,096 bytes: about 2,000 one-digit cells, about 200
  // of the longest spellings), appending after what Out already holds.
  std::vector<double> Short, Long, Mixed;
  for (int I = 0; I < 5000; ++I) {
    Short.push_back(static_cast<double>(I % 9 - 4) * (I % 3 ? 1 : 0));
    Long.push_back((I % 2 ? -1.23456789012345e-300 : 1.23456789012345e-300) *
                   static_cast<double>(I % 7 + 1));
    double Pick[] = {-0.0, 0.0, 7.0, -1e12, 0.1, std::nan(""), Inf,
                     -999999999999.0, DBL_MIN};
    Mixed.push_back(Pick[Rng() % 9]);
  }
  for (const std::vector<double> *Cells : {&Short, &Long, &Mixed})
    for (size_t N : {0, 1, 2, 161, 162, 163, 170, 171, 199, 200, 201, 204,
                     205, 2047, 2048, 2049, 4096, 5000}) {
      std::string Want = "[", Got = "[";
      for (size_t I = 0; I < N; ++I) {
        if (I)
          Want += ',';
        support::appendJsonNumber(Want, (*Cells)[I]);
      }
      support::appendJsonNumbers(Got, Cells->data(), N);
      ASSERT_EQ(Got, Want) << N;
    }
}

TEST(Json, NumberDecodingMatchesStrtollAndStrtod) {
  for (const char *Token :
       {"0", "-0", "-0.0", "7", "-42", "0.1", "1E5", "1e+5", "-7.5E-2",
        "-9223372036854775808", "9223372036854775807", "9223372036854775808",
        "-9223372036854775809", "18446744073709551616",
        "123456789012345678901234567890", "9007199254740993", "1e400",
        "-1e400", "1e-400", "-1e-400", "4.9e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308",
        // The borders of the short-integer path: 15, 16 and 17 digits,
        // and integral values spelled as floats.
        "123456789012345", "-123456789012345", "1234567890123456",
        "-1234567890123456", "9999999999999999", "-9999999999999999",
        "12345678901234567", "-12345678901234567", "99999999999999999",
        "1000000000000000", "10000000000000000", "1e5", "2.0", "-0e0"}) {
    JsonParseResult Parsed = parseJson(Token);
    ASSERT_TRUE(Parsed.ok()) << Token;
    const Json &V = Parsed.Value;
    errno = 0;
    long long Integer = std::strtoll(Token, nullptr, 10);
    if (!std::strpbrk(Token, ".eE") && errno == 0) {
      EXPECT_TRUE(V.isInteger()) << Token;
      EXPECT_EQ(V.asInteger(), Integer) << Token;
      EXPECT_TRUE(sameBits(V.asNumber(), static_cast<double>(Integer)))
          << Token;
    } else {
      EXPECT_FALSE(V.isInteger()) << Token;
      EXPECT_TRUE(sameBits(V.asNumber(), std::strtod(Token, nullptr)))
          << Token << " decoded as " << std::hexfloat << V.asNumber();
    }
  }

  // Malformed numbers keep their diagnostics and columns.
  for (auto [Text, Error] : std::vector<std::pair<const char *, const char *>>{
           {"-x", "line 1 column 1: invalid number"},
           {"-", "line 1 column 1: invalid number"},
           {"[1,-]", "line 1 column 4: invalid number"},
           {"00", "line 1 column 2: leading zeros are not allowed"},
           {"-01", "line 1 column 3: leading zeros are not allowed"},
           {"[-00,1]", "line 1 column 4: leading zeros are not allowed"},
           {"1234567890123456.", "line 1 column 18: digits must follow "
                                 "the decimal point"},
           {"[7-]", "line 1 column 3: expected ',' or ']'"},
           {"012", "line 1 column 2: leading zeros are not allowed"},
           {"1.", "line 1 column 3: digits must follow the decimal point"},
           {"1.e5", "line 1 column 3: digits must follow the decimal point"},
           {"2e+", "line 1 column 4: digits must follow the exponent"},
           {"+1", "line 1 column 1: unexpected character '+'"}}) {
    JsonParseResult Parsed = parseJson(Text);
    ASSERT_FALSE(Parsed.ok()) << Text;
    EXPECT_EQ(Parsed.Error.describe(),
              std::string("malformed JSON at ") + Error)
        << Text;
  }
}

TEST(Json, ShortIntegerPathTakesExactlyItsTokens) {
  // Every border token followed by every byte (and by the end of input):
  // the short path takes the text exactly when it starts with a match of
  // -?(0|[1-9][0-9]{0,15}) that the next byte cannot continue, stops right
  // after the match, and yields strtoll's value.
  auto MatchLength = [](const std::string &T) -> size_t {
    const size_t Sign = !T.empty() && T[0] == '-';
    size_t Digits = 0;
    while (Sign + Digits < T.size() &&
           std::isdigit(static_cast<unsigned char>(T[Sign + Digits])))
      ++Digits;
    if (Digits == 0)
      return 0;
    return Sign + (T[Sign] == '0' ? 1 : std::min<size_t>(Digits, 16));
  };
  for (std::string Token :
       {"0", "-0", "00", "-", "-01", "7", "-42", "10", "123456789012345",
        "1234567890123456", "-1234567890123456", "9999999999999999",
        "12345678901234567", "9007199254740993", "9223372036854775808",
        "-9223372036854775808", "1.", "2.0", "1e5", "1E5", "x", ""}) {
    for (int Byte = -1; Byte < 256; ++Byte) {
      std::string Text = Token;
      if (Byte >= 0)
        Text += static_cast<char>(Byte);
      const char *Begin = Text.data();
      int64_t Value = 12345;
      const char *Past =
          support::scanShortJsonInteger(Begin, Begin + Text.size(), Value);
      const size_t Length = MatchLength(Text);
      bool Taken = Length > 0;
      if (Taken && Length < Text.size()) {
        char C = Text[Length];
        Taken = Taken && !std::isdigit(static_cast<unsigned char>(C)) &&
                C != '.' && C != 'e' && C != 'E';
      }
      std::string Label = Token + " + byte " + std::to_string(Byte);
      if (!Taken) {
        EXPECT_EQ(Past, nullptr) << Label;
        continue;
      }
      ASSERT_EQ(Past, Begin + Length) << Label;
      EXPECT_EQ(Value, std::strtoll(Text.substr(0, Length).c_str(), nullptr,
                                    10))
          << Label;
      // scanJsonNumber agrees, +0.0 for "-0" included.
      const char *Next = nullptr;
      JsonNumber N;
      ASSERT_EQ(support::scanJsonNumber(Begin, Begin + Text.size(), Next, N),
                nullptr)
          << Label;
      EXPECT_EQ(Next, Past) << Label;
      EXPECT_TRUE(N.IsInteger) << Label;
      EXPECT_EQ(N.Integer, Value) << Label;
      EXPECT_TRUE(sameBits(N.Value, static_cast<double>(Value))) << Label;
    }
  }
}

//===----------------------------------------------------------------------===//
// api::ingestKernel
//===----------------------------------------------------------------------===//

/// Shorthand: ingest and require success.
bench::Benchmark ingested(const std::string &Source,
                          const std::string &Hint = "") {
  api::IngestResult Result = api::ingestKernel(Source, "", Hint);
  EXPECT_TRUE(Result.ok()) << Result.Error;
  return std::move(Result.Kernel);
}

std::vector<std::string> shapeOf(const bench::Benchmark &B,
                                 const std::string &Arg) {
  const bench::ArgSpec *Spec = B.findArg(Arg);
  EXPECT_NE(Spec, nullptr) << Arg;
  return Spec ? Spec->Shape : std::vector<std::string>();
}

TEST(IngestKernel, ElementwiseKernelAbsentFromRegistry) {
  // Not one of the 77 registry kernels.
  bench::Benchmark B = ingested(
      "void kernel(int N, float* a, float* b, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    out[i] = a[i] * b[i] + a[i];"
      "}");
  EXPECT_EQ(bench::findBenchmark(B.Name), nullptr);
  EXPECT_EQ(B.Category, "inline");
  ASSERT_EQ(B.Args.size(), 4u);
  EXPECT_EQ(B.Args[0].K, bench::ArgSpec::Kind::SizeScalar);
  EXPECT_EQ(shapeOf(B, "a"), std::vector<std::string>{"N"});
  EXPECT_EQ(shapeOf(B, "out"), std::vector<std::string>{"N"});
  EXPECT_TRUE(B.findArg("out")->IsOutput);
  EXPECT_EQ(B.GroundTruth, "out(i) = a(i) * b(i) + a(i)");
}

TEST(IngestKernel, ScalarParameterBecomesNumericData) {
  bench::Benchmark B = ingested(
      "void kernel(int N, float alpha, float* x, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    out[i] = alpha * x[i];"
      "}");
  EXPECT_EQ(B.findArg("alpha")->K, bench::ArgSpec::Kind::NumScalar);
  EXPECT_EQ(B.GroundTruth, "out(i) = alpha * x(i)");
}

TEST(IngestKernel, MatmulDelinearizesAndReduces) {
  bench::Benchmark B = ingested(
      "void kernel(int N, int M, int K, float* A, float* B, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    for (int j = 0; j < M; j++) {"
      "      out[i * M + j] = 0;"
      "      for (int k = 0; k < K; k++)"
      "        out[i * M + j] += A[i * K + k] * B[k * M + j];"
      "    }"
      "}");
  EXPECT_EQ(shapeOf(B, "A"), (std::vector<std::string>{"N", "K"}));
  EXPECT_EQ(shapeOf(B, "B"), (std::vector<std::string>{"K", "M"}));
  EXPECT_EQ(shapeOf(B, "out"), (std::vector<std::string>{"N", "M"}));
  // The zero-initialization store is setup, not semantics.
  EXPECT_EQ(B.GroundTruth, "out(i,j) = A(i,k) * B(k,j)");
}

TEST(IngestKernel, DotProductAccumulatorAndScalarOutput) {
  bench::Benchmark B = ingested(
      "void kernel(int N, float* x, float* y, float* out) {"
      "  float acc = 0;"
      "  for (int i = 0; i < N; i++)"
      "    acc += x[i] * y[i];"
      "  out[0] = acc;"
      "}");
  EXPECT_EQ(shapeOf(B, "out"), std::vector<std::string>());
  EXPECT_EQ(B.GroundTruth, "out = x(i) * y(i)");
}

TEST(IngestKernel, TransposedAccessOrdersDimsByStride) {
  bench::Benchmark B = ingested(
      "void kernel(int N, int M, float* A, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    for (int j = 0; j < M; j++)"
      "      out[i * M + j] = A[j * N + i];"
      "}");
  // A is indexed j-major: its leading dimension spans j's loop (M).
  EXPECT_EQ(shapeOf(B, "A"), (std::vector<std::string>{"M", "N"}));
  EXPECT_EQ(shapeOf(B, "out"), (std::vector<std::string>{"N", "M"}));
  EXPECT_EQ(B.GroundTruth, "out(i,j) = A(j,i)");
}

TEST(IngestKernel, ConstantExtentDimensions) {
  bench::Benchmark B = ingested(
      "void kernel(int N, float* x, float* w, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    for (int j = 0; j < 4; j++)"
      "      out[i * 4 + j] = x[i] * w[j];"
      "}");
  EXPECT_EQ(shapeOf(B, "out"), (std::vector<std::string>{"N", "4"}));
  EXPECT_EQ(shapeOf(B, "w"), std::vector<std::string>{"4"});
}

TEST(IngestKernel, PointerWalkingIngestsWithoutAHint) {
  // The symbolic executor's closed forms recover pointer-bumped iteration,
  // so the model-based emission needs no oracle_hint for these kernels.
  const char *Source =
      "void kernel(int N, float* x, float* out) {"
      "  float* p = x;"
      "  float* q = out;"
      "  for (int i = 0; i < N; i++)"
      "    *q++ = 3 * *p++;"
      "}";
  api::IngestResult Bare = api::ingestKernel(Source);
  ASSERT_TRUE(Bare.ok()) << Bare.Error;
  EXPECT_EQ(Bare.Class, analysis::KernelClass::PointerWalking);
  EXPECT_EQ(shapeOf(Bare.Kernel, "x"), std::vector<std::string>{"N"});
  EXPECT_EQ(shapeOf(Bare.Kernel, "out"), std::vector<std::string>{"N"});
  EXPECT_EQ(Bare.Kernel.GroundTruth, "out(i) = 3 * x(i)");
  ASSERT_EQ(Bare.ReferenceStatements.size(), 1u);
  EXPECT_EQ(taco::printProgram(Bare.ReferenceStatements[0]),
            "out(i) = 3 * x(i)");

  // Bumping the output parameter itself works too (`*out++ = ...`).
  api::IngestResult Bumped = api::ingestKernel(
      "void kernel(int N, float x, float* a, float* b, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    *out++ = a[i] * x + b[i];"
      "}");
  ASSERT_TRUE(Bumped.ok()) << Bumped.Error;
  EXPECT_EQ(Bumped.Kernel.GroundTruth, "out(i) = a(i) * x + b(i)");

  // An explicit hint still wins when the caller supplies one.
  bench::Benchmark B = ingested(Source, "out(i) = 3 * x(i)");
  EXPECT_EQ(shapeOf(B, "x"), std::vector<std::string>{"N"});
  EXPECT_EQ(B.GroundTruth, "out(i) = 3 * x(i)");
}

TEST(IngestKernel, ReluFamilyConditionalsLowerToMax) {
  // if/else over a comparison of the stored values lowers to max(...).
  api::IngestResult IfElse = api::ingestKernel(
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) {"
      "    if (x[i] > 0) out[i] = x[i];"
      "    else out[i] = 0;"
      "  }"
      "}");
  ASSERT_TRUE(IfElse.ok()) << IfElse.Error;
  EXPECT_EQ(IfElse.Class, analysis::KernelClass::Conditional);
  EXPECT_EQ(IfElse.Kernel.GroundTruth, "out(i) = max(x(i), 0)");

  // Zero-init followed by a guarded overwrite folds the same way.
  api::IngestResult Folded = api::ingestKernel(
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) {"
      "    out[i] = 0;"
      "    if (x[i] > 0) out[i] = x[i];"
      "  }"
      "}");
  ASSERT_TRUE(Folded.ok()) << Folded.Error;
  EXPECT_EQ(Folded.Kernel.GroundTruth, "out(i) = max(x(i), 0)");

  // A `<` guard selecting the larger side is still a max.
  api::IngestResult Clamp = api::ingestKernel(
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) {"
      "    out[i] = x[i];"
      "    if (x[i] < 0) out[i] = 0;"
      "  }"
      "}");
  ASSERT_TRUE(Clamp.ok()) << Clamp.Error;
  EXPECT_EQ(Clamp.Kernel.GroundTruth, "out(i) = max(0, x(i))");

  // Elementwise max of two arrays.
  api::IngestResult Two = api::ingestKernel(
      "void kernel(int N, float* a, float* b, float* out) {"
      "  for (int i = 0; i < N; i++) {"
      "    if (a[i] > b[i]) out[i] = a[i];"
      "    else out[i] = b[i];"
      "  }"
      "}");
  ASSERT_TRUE(Two.ok()) << Two.Error;
  EXPECT_EQ(Two.Kernel.GroundTruth, "out(i) = max(a(i), b(i))");

  // A min-shaped select has no TACO form; the refusal cites the position.
  api::IngestResult Min = api::ingestKernel(
      "void kernel(int N, float* a, float* b, float* out) {\n"
      "  for (int i = 0; i < N; i++) {\n"
      "    if (a[i] < b[i]) out[i] = a[i];\n"
      "    else out[i] = b[i];\n"
      "  }\n"
      "}");
  EXPECT_FALSE(Min.ok());
  EXPECT_NE(Min.Error.find("max/select"), std::string::npos) << Min.Error;
  EXPECT_NE(Min.Error.find("line 3"), std::string::npos) << Min.Error;
}

TEST(IngestKernel, MultiStatementBodiesComposeInOrder) {
  // Fused body: two stores in one loop compose by store forwarding.
  api::IngestResult Fused = api::ingestKernel(
      "void kernel(int N, float* x, float* y, float* out) {"
      "  for (int i = 0; i < N; i++) {"
      "    out[i] = x[i] * x[i];"
      "    out[i] = out[i] + y[i];"
      "  }"
      "}");
  ASSERT_TRUE(Fused.ok()) << Fused.Error;
  EXPECT_EQ(Fused.Class, analysis::KernelClass::MultiStatement);
  EXPECT_EQ(Fused.Kernel.GroundTruth, "out(i) = x(i) * x(i) + y(i)");
  ASSERT_EQ(Fused.ReferenceStatements.size(), 2u);
  EXPECT_EQ(taco::printProgram(Fused.ReferenceStatements[0]),
            "out(i) = x(i) * x(i)");
  EXPECT_EQ(taco::printProgram(Fused.ReferenceStatements[1]),
            "out(i) = out(i) + y(i)");

  // Sequential loops with different loop variables align on the output's
  // index tuple.
  api::IngestResult TwoLoops = api::ingestKernel(
      "void kernel(int N, float a, float* x, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    out[i] = a * x[i];"
      "  for (int j = 0; j < N; j++)"
      "    out[j] = out[j] + 1;"
      "}");
  ASSERT_TRUE(TwoLoops.ok()) << TwoLoops.Error;
  EXPECT_EQ(TwoLoops.Kernel.GroundTruth, "out(i) = a * x(i) + 1");
}

TEST(IngestKernel, UnmodeledStatementsPoisonTheReference) {
  // The loop store alone transliterates, but the conditional changes the
  // kernel's semantics — a reference built from the modeled part would be
  // confidently wrong. Ingestion must demand a hint instead.
  const char *Conditional =
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 0; i < N; i++)"
      "    out[i] = 2 * x[i];"
      "  if (N) out[0] = 0;"
      "}";
  api::IngestResult Result = api::ingestKernel(Conditional);
  EXPECT_FALSE(Result.ok());
  EXPECT_EQ(Result.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(Result.Error.find("conditional"), std::string::npos)
      << Result.Error;

  // Same for loops that skip part of the index space.
  api::IngestResult Offset = api::ingestKernel(
      "void kernel(int N, float* x, float* out) {"
      "  for (int i = 1; i < N; i++)"
      "    out[i] = x[i];"
      "}");
  EXPECT_FALSE(Offset.ok());
  EXPECT_NE(Offset.Error.find("non-zero"), std::string::npos)
      << Offset.Error;
}

TEST(IngestKernel, RejectsUnusableKernels) {
  api::IngestResult NotC = api::ingestKernel("int main( {");
  EXPECT_EQ(NotC.Status, api::IngestStatus::ParseError);

  api::IngestResult NoOutput = api::ingestKernel(
      "void kernel(int N, float* x) { float s = 0; for (int i = 0; i < N; "
      "i++) s += x[i]; }");
  EXPECT_EQ(NoOutput.Status, api::IngestStatus::AnalysisError);

  // Attacker-sized constant extents must be rejected before anything
  // allocates — a serve process cannot die of one hostile request.
  api::IngestResult Huge = api::ingestKernel(
      "void kernel(float* out) { for (int i = 0; i < 2000000000; i++) "
      "out[i] = 0; }");
  EXPECT_EQ(Huge.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(Huge.Error.find("size budget"), std::string::npos) << Huge.Error;

  // A -= store carries semantics the transliterator does not model; it
  // must refuse, not fall back to the zero-init store as the "kernel".
  api::IngestResult SubStore = api::ingestKernel(
      "void kernel(int N, float* x, float* y, float* out) {"
      "  for (int i = 0; i < N; i++) { out[i] = 0; out[i] -= x[i] * y[i]; }"
      "}");
  EXPECT_EQ(SubStore.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(SubStore.Error.find("compound store"), std::string::npos)
      << SubStore.Error;

  // Parameter names colliding with reserved TACO syntax would emit a
  // ground truth that cannot re-parse; a serve process must refuse, not
  // crash (regression test for the `max`-named-parameter segfault).
  api::IngestResult Reserved = api::ingestKernel(
      "void kernel(int N, float* max, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = max[i];"
      "}");
  EXPECT_EQ(Reserved.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(Reserved.Error.find("reserved"), std::string::npos)
      << Reserved.Error;
  api::IngestResult ReservedConst = api::ingestKernel(
      "void kernel(int N, float Const, float* x, float* out) {"
      "  for (int i = 0; i < N; i++) out[i] = Const * x[i];"
      "}");
  EXPECT_EQ(ReservedConst.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(ReservedConst.Error.find("reserved"), std::string::npos);

  api::IngestResult BadHint = api::ingestKernel(
      "void kernel(int N, float* x, float* out) { for (int i = 0; i < N; "
      "i++) out[i] = x[i]; }",
      "", "out(i) = sum(j, x(j))");
  EXPECT_EQ(BadHint.Status, api::IngestStatus::AnalysisError);
  EXPECT_NE(BadHint.Error.find("oracle_hint"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// api::ConfigPatch
//===----------------------------------------------------------------------===//

TEST(ConfigPatch, PatchPrecedenceOverBase) {
  core::StaggConfig Base;
  Base.NumCandidates = 10;
  Base.SkipVerification = false;
  Base.Search.TimeoutSeconds = 5.0;

  api::ConfigPatch Patch;
  EXPECT_TRUE(Patch.empty());
  Patch.NumCandidates = 20;
  Patch.SkipVerification = true;
  Patch.Kind = core::SearchKind::BottomUp;
  EXPECT_FALSE(Patch.empty());

  core::StaggConfig Patched = Patch.apply(Base);
  EXPECT_EQ(Patched.NumCandidates, 20);
  EXPECT_TRUE(Patched.SkipVerification);
  EXPECT_EQ(Patched.Kind, core::SearchKind::BottomUp);
  // Unset fields inherit.
  EXPECT_DOUBLE_EQ(Patched.Search.TimeoutSeconds, 5.0);
  EXPECT_EQ(Patched.NumIoExamples, Base.NumIoExamples);
}

TEST(ConfigPatch, FromJsonValidatesKeysAndTypes) {
  api::ConfigPatch Patch;
  JsonParseResult Object = parseJson(
      "{\"search\":\"bu\",\"candidates\":7,\"skip_verify\":true,"
      "\"timeout_s\":2.5,\"example_seed\":99}");
  ASSERT_TRUE(Object.ok());
  EXPECT_EQ(api::ConfigPatch::fromJson(Object.Value, Patch), "");
  EXPECT_EQ(*Patch.Kind, core::SearchKind::BottomUp);
  EXPECT_EQ(*Patch.NumCandidates, 7);
  EXPECT_TRUE(*Patch.SkipVerification);
  EXPECT_DOUBLE_EQ(*Patch.TimeoutSeconds, 2.5);
  EXPECT_EQ(*Patch.ExampleSeed, 99u);

  api::ConfigPatch Bad;
  EXPECT_NE(api::ConfigPatch::fromJson(parseJson("{\"candidats\":7}").Value,
                                       Bad),
            "");
  EXPECT_NE(api::ConfigPatch::fromJson(parseJson("{\"candidates\":0}").Value,
                                       Bad),
            "");
  EXPECT_NE(
      api::ConfigPatch::fromJson(parseJson("{\"search\":\"dfs\"}").Value, Bad),
      "");
  // Engine and thread-count knobs never change an answer, so the wire
  // does not carry them: they are unknown keys like any misspelling.
  for (const char *Key : {"use_vm", "use_vm_opt", "search_threads"})
    EXPECT_EQ(api::ConfigPatch::fromJson(
                  parseJson(std::string("{\"") + Key + "\":1}").Value, Bad),
              std::string("unknown config key \"") + Key + "\"");
}

TEST(ConfigPatch, FingerprintCoversResultAffectingKnobs) {
  // Every result-affecting knob reachable from the wire must change the
  // cache fingerprint, or a patched request could be answered from a run
  // under different settings. The engine and thread-count knobs (CLI-only)
  // must NOT: their answers are bit-identical, so they share cache entries.
  core::StaggConfig Base;
  std::string Baseline = core::configFingerprint(Base);

  std::vector<api::ConfigPatch> Patches(12);
  Patches[0].Kind = core::SearchKind::BottomUp;
  Patches[1].NumCandidates = 11;
  Patches[2].NumIoExamples = 4;
  Patches[3].ExampleSeed = 1234;
  Patches[4].SkipVerification = true;
  Patches[5].TimeoutSeconds = 9.5;
  Patches[6].MaxDepth = 7;
  Patches[7].MaxExpansions = 12345;
  Patches[8].MaxAttempts = 77;
  Patches[9].VerifyMaxSize = 3;
  Patches[10].FullGrammar = true;
  Patches[11].EqualProbability = true;

  for (size_t I = 0; I < Patches.size(); ++I)
    EXPECT_NE(core::configFingerprint(Patches[I].apply(Base)), Baseline)
        << "patch #" << I << " is invisible to the cache key";

  std::vector<core::StaggConfig> SpeedOnly(3, Base);
  SpeedOnly[0].UseVm = false;
  SpeedOnly[1].Search.Threads = 4;
  SpeedOnly[2].UseVmOpt = false;
  for (size_t I = 0; I < SpeedOnly.size(); ++I)
    EXPECT_EQ(core::configFingerprint(SpeedOnly[I]), Baseline)
        << "speed-only knob #" << I
        << " splits the cache without changing an answer";
}

//===----------------------------------------------------------------------===//
// api::Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, NonJsonLineIsBadRequest) {
  // A bare registry name is not a request: every line is a v1 object.
  for (const char *Line : {"  blas_axpy  ", "blas_axpy", "", "# note"}) {
    api::ParsedRequest Bare = api::parseRequestLine(Line);
    EXPECT_FALSE(Bare.ok()) << Line;
    EXPECT_TRUE(Bare.Request.RegistryName.empty()) << Line;
    EXPECT_EQ(api::renderProtocolError(Bare.Error).find(
                  "{\"v\":1,\"status\":\"bad_request\",\"error\":"),
              0u)
        << Line;
  }

  api::ParsedRequest V1 = api::parseRequestLine(
      "{\"v\":1,\"name\":\"blas_axpy\",\"config\":{\"skip_verify\":true}}");
  ASSERT_TRUE(V1.ok()) << V1.Error;
  EXPECT_EQ(V1.Request.RegistryName, "blas_axpy");
  EXPECT_TRUE(*V1.Request.Patch.SkipVerification);

  api::ParsedRequest Inline = api::parseRequestLine(
      "{\"v\":1,\"kernel\":\"void kernel(int N, float* x, float* out) {}\","
      "\"name\":\"k\",\"oracle_hint\":\"out(i) = x(i)\"}");
  ASSERT_TRUE(Inline.ok()) << Inline.Error;
  EXPECT_TRUE(Inline.Request.isInline());
  EXPECT_EQ(Inline.Request.Name, "k");
  EXPECT_EQ(Inline.Request.OracleHint, "out(i) = x(i)");
}

TEST(Protocol, RejectsBadRequests) {
  EXPECT_FALSE(api::parseRequestLine("{\"v\":1").ok());
  EXPECT_FALSE(api::parseRequestLine("{\"name\":\"art_copy\"}").ok());
  EXPECT_FALSE(api::parseRequestLine("{\"v\":2,\"name\":\"art_copy\"}").ok());
  EXPECT_FALSE(api::parseRequestLine("{\"v\":1}").ok());
  EXPECT_FALSE(
      api::parseRequestLine("{\"v\":1,\"name\":\"a\",\"nme\":\"b\"}").ok());
  EXPECT_FALSE(
      api::parseRequestLine("{\"v\":1,\"name\":\"a\",\"config\":[]}").ok());
  // A hint on a registry request would be silently ignored; reject it.
  EXPECT_FALSE(api::parseRequestLine(
                   "{\"v\":1,\"name\":\"art_copy\",\"oracle_hint\":\"o = "
                   "x(i)\"}")
                   .ok());
}

TEST(Protocol, ResponsesAreValidV1Json) {
  api::LiftResponse Response;
  Response.Name = "k";
  Response.Category = "inline";
  Response.Result.Solved = true;
  Response.Result.Verified = true;
  Response.Applied.SkipVerification = false;
  std::string Line = api::renderResponse(Response);
  JsonParseResult Parsed = parseJson(Line);
  ASSERT_TRUE(Parsed.ok()) << Line;
  EXPECT_EQ(Parsed.Value.find("v")->asInteger(), 1);
  EXPECT_EQ(Parsed.Value.find("status")->asString(), "ok");
  EXPECT_TRUE(Parsed.Value.find("timings")->find("total_s") != nullptr);

  Response.St = api::Status::UnknownBenchmark;
  Response.Error = "unknown benchmark 'k'";
  Parsed = parseJson(api::renderResponse(Response));
  ASSERT_TRUE(Parsed.ok());
  EXPECT_EQ(Parsed.Value.find("status")->asString(), "unknown_benchmark");
  EXPECT_NE(Parsed.Value.find("error"), nullptr);
}

void expectSameRequest(const api::LiftRequest &A, const api::LiftRequest &B,
                       const std::string &Line) {
  EXPECT_EQ(A.RegistryName, B.RegistryName) << Line;
  EXPECT_EQ(A.KernelSource, B.KernelSource) << Line;
  EXPECT_EQ(A.Name, B.Name) << Line;
  EXPECT_EQ(A.OracleHint, B.OracleHint) << Line;
  EXPECT_EQ(A.Patch.toJson().dump(), B.Patch.toJson().dump()) << Line;
}

/// Field-by-field SocketFrame equality, every posted cell bit for bit.
void expectSameFrame(const api::SocketFrame &A, const api::SocketFrame &B,
                     const std::string &Line) {
  EXPECT_EQ(A.K, B.K) << Line;
  EXPECT_EQ(A.IdJson, B.IdJson) << Line;
  EXPECT_EQ(A.Error, B.Error) << Line;
  EXPECT_EQ(A.Progress, B.Progress) << Line;
  EXPECT_EQ(A.V1.Error, B.V1.Error) << Line;
  expectSameRequest(A.V1.Request, B.V1.Request, Line);
  ASSERT_EQ(A.Items.size(), B.Items.size()) << Line;
  for (size_t I = 0; I < A.Items.size(); ++I) {
    EXPECT_EQ(A.Items[I].Error, B.Items[I].Error) << Line;
    expectSameRequest(A.Items[I].Request, B.Items[I].Request, Line);
  }
  expectSameRequest(A.Exec, B.Exec, Line);
  EXPECT_EQ(A.Io.Sizes, B.Io.Sizes) << Line;
  ASSERT_EQ(A.Io.Scalars.size(), B.Io.Scalars.size()) << Line;
  for (auto ItA = A.Io.Scalars.begin(), ItB = B.Io.Scalars.begin();
       ItA != A.Io.Scalars.end(); ++ItA, ++ItB) {
    EXPECT_EQ(ItA->first, ItB->first) << Line;
    EXPECT_TRUE(sameBits(ItA->second, ItB->second)) << Line;
  }
  ASSERT_EQ(A.Io.Arrays.size(), B.Io.Arrays.size()) << Line;
  for (auto ItA = A.Io.Arrays.begin(), ItB = B.Io.Arrays.begin();
       ItA != A.Io.Arrays.end(); ++ItA, ++ItB) {
    EXPECT_EQ(ItA->first, ItB->first) << Line;
    ASSERT_EQ(ItA->second.size(), ItB->second.size()) << Line;
    EXPECT_EQ(std::memcmp(ItA->second.data(), ItB->second.data(),
                          ItA->second.size() * sizeof(double)),
              0)
        << Line;
  }
}

/// Parses \p Line both ways, checks they agree, and reports whether the
/// typed decoder took it.
bool sameOnBothPaths(const std::string &Line) {
  std::optional<api::SocketFrame> Typed =
      api::detail::parseExecuteFrameTyped(Line);
  api::SocketFrame Dom = api::detail::parseSocketFrameDom(Line);
  expectSameFrame(api::parseSocketFrame(Line), Dom, Line);
  if (Typed)
    expectSameFrame(*Typed, Dom, Line);
  return Typed.has_value();
}

TEST(Protocol, TypedExecuteDecoderMatchesTheDomPath) {
  // Execute frames the way the benchmark client builds them (integer cells
  // in [-4, 4] and small integer scalars), plus non-integral cells.
  std::mt19937_64 Rng(77);
  auto Cell = [&Rng](bool Integral) {
    int64_t N = static_cast<int64_t>(Rng() % 9) - 4;
    if (Integral)
      return Json::integer(N);
    return Json::number(static_cast<double>(N) / 3 +
                        static_cast<double>(Rng() % 1000) * 1e-7);
  };
  for (const char *Name : {"blas_gemm", "dsp_matvec", "ll_matmul",
                           "misc_hadamard", "dk_add_bias", "misc_matscale",
                           "blas_ger", "relu_forward", "blas_axpy"}) {
    for (bool Integral : {true, false}) {
      Json Sizes = Json::object();
      Sizes.set("N", Json::integer(static_cast<int64_t>(Rng() % 64) + 1));
      Sizes.set("M", Json::integer(16));
      Json Inputs = Json::object();
      for (const char *Arg : {"A", "x", "b"}) {
        Json Values = Json::array();
        for (uint64_t I = 0, E = 1 + Rng() % 300; I < E; ++I)
          Values.push(Cell(Integral));
        Inputs.set(Arg, std::move(Values));
      }
      Inputs.set("alpha", Cell(Integral));
      Json Body = Json::object();
      Body.set("name", Json::str(Name));
      Body.set("sizes", std::move(Sizes));
      Body.set("inputs", std::move(Inputs));
      std::string Line = "{\"v\":2,\"id\":" + std::to_string(Rng() % 9999) +
                         ",\"execute\":" + Body.dump() + "}";
      EXPECT_TRUE(sameOnBothPaths(Line)) << Line;
    }
  }

  // The README example, line break included.
  EXPECT_TRUE(sameOnBothPaths(
      "{\"v\":2, \"id\":9, \"execute\":{\"name\":\"art_add\", "
      "\"sizes\":{\"N\":4},\n \"inputs\":{\"a\":[1,2,3,4], "
      "\"b\":[10,20,30,40]}}}"));

  // Number tokens at the borders of the short-integer path as the first, a
  // middle and the last cell, with and without whitespace around commas:
  // well-formed ones are typed, malformed ones are left to the DOM path.
  for (const char *Token :
       {"0", "-0", "00", "-", "-01", "123456789012345", "1234567890123456",
        "12345678901234567", "9007199254740993", "9223372036854775808",
        "-9223372036854775808", "1.", "1e5", "1E5", "2.0"}) {
    const bool WellFormed = support::parseJson(Token).ok();
    for (const char *Comma : {",", " , ", "\t,\n", ",  "})
      for (int Position = 0; Position < 3; ++Position) {
        std::string Cells[3] = {"1", "-2", "3"};
        Cells[Position] = Token;
        std::string Line = "{\"v\":2,\"execute\":{\"name\":\"k\","
                           "\"inputs\":{\"a\":[" +
                           Cells[0] + Comma + Cells[1] + Comma + Cells[2] +
                           "],\"s\":" + Token + "}}}";
        EXPECT_EQ(sameOnBothPaths(Line), WellFormed) << Line;
      }
  }

  // One step outside the typed shape at a time: each of these is either
  // taken by the typed decoder with the DOM path's result, or left to it.
  for (const char *Line :
       {"{\"v\":2.0,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2e0,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":-2,\"execute\":{\"name\":\"k\"}}",
        "{\"execute\":{\"name\":\"k\"}}", "{\"v\":2}",
        "{\"v\":2,\"execute\":{}}",
        "{\"v\":2,\"execute\":{\"name\":\"\"}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\"},\"stats\":false}",
        "{\"v\":2,\"execute\":{\"name\":\"k\"},\"progress\":false}",
        "{\"v\":2,\"id\":1.5,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2,\"id\":\"x\",\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2,\"id\":null,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2,\"id\":-0,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2,\"id\":9223372036854775808,\"execute\":{\"name\":\"k\"}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"config\":{}}}",
        "{\"v\":2,\"execute\":{\"kernel\":\"void kernel() {}\"}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"oracle_hint\":\"o = 1\"}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\\u0041\"}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"sizes\":{\"N\":-0}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"sizes\":{\"N\":1e1}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"sizes\":{\"N\":1,\"N\":1}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"sizes\":{\"N\":"
        "9223372036854775808}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"sizes\":[]}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"inputs\":{\"a\":1,\"a\":[1]}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"inputs\":{\"a\":[1,]}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"inputs\":{\"a\":[[1]]}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"inputs\":{\"a\":[1e400,-0,"
        "-0.0,4.9e-324]}}}",
        "{\"v\":2,\"execute\":{\"name\":\"k\",\"inputs\":{\"\\u0061\":1}}}",
        "\v{\"v\":2,\"execute\":{\"name\":\"k\"}}\f",
        "{\"v\":2,\"execute\":{\"name\":\"k\"}\v}",
        "{\"v\":2,\"execute\":{\"name\":\"k\"}}x"})
    sameOnBothPaths(Line);

  // Every truncation and every single-byte mutation of a small frame.
  const std::string Small =
      " {\"v\":2,\"id\":-0,\"execute\":{\"name\":\"art_add\","
      "\"sizes\":{\"N\":2},\"inputs\":{\"a\":[1.5,-2e-1],\"b\":[30,4],"
      "\"s\":0.25}}}\t";
  ASSERT_TRUE(sameOnBothPaths(Small));
  for (size_t Len = 0; Len < Small.size(); ++Len)
    sameOnBothPaths(Small.substr(0, Len));
  int Typed = 0, Total = 0;
  for (size_t At = 0; At < Small.size(); ++At)
    for (int Byte = 0; Byte < 256; ++Byte) {
      if (static_cast<char>(Byte) == Small[At])
        continue;
      std::string Mutant = Small;
      Mutant[At] = static_cast<char>(Byte);
      Typed += sameOnBothPaths(Mutant);
      ++Total;
      if (HasFailure())
        return; // one diverging mutant is enough to read
    }
  // Both paths saw a share of the mutants (digits and spaces keep many
  // of them well-formed).
  EXPECT_GT(Typed, 100);
  EXPECT_LT(Typed, Total);
}

TEST(Protocol, SocketFrameParsesV1LinesLikeParseRequestLine) {
  for (const char *Line :
       {"{\"v\":1,\"name\":\"blas_axpy\"}", "  {\"v\":1,\"name\":\"x\"}  ",
        "{\"v\":1,\"name\":\"a\",\"nme\":\"b\"}", "{\"v\":1", "[1]", "",
        "blas_axpy", "{\"name\":\"art_copy\"}", "{\"v\":2.0,\"name\":\"a\"}",
        "{\"v\":1,\"kernel\":\"void kernel(int N, float* x, float* out) "
        "{}\",\"oracle_hint\":\"out(i) = x(i)\"}"}) {
    api::SocketFrame Frame = api::parseSocketFrame(Line);
    api::ParsedRequest Direct = api::parseRequestLine(Line);
    EXPECT_EQ(Frame.K, api::SocketFrame::Kind::V1) << Line;
    EXPECT_EQ(Frame.V1.Error, Direct.Error) << Line;
    expectSameRequest(Frame.V1.Request, Direct.Request, Line);
  }
}

TEST(Protocol, ResultEventRendersCellsLikeTheJsonWriter) {
  api::ExecuteOutcome Outcome;
  Outcome.Ok = true;
  Outcome.Cached = true;
  Outcome.Expr = "out(i,j) = A(i,j) * \"x\"";
  Outcome.Shape = {3, 4};
  Outcome.Data = {0.0, -0.0, 1e-07, 1e12, 999999999999.0, 1e300 * 1e300,
                  -2.5, 1.0 / 3, 42, -7, 1e15, std::nan("")};
  Json Shape = Json::array();
  for (int64_t D : Outcome.Shape)
    Shape.push(Json::integer(D));
  Json Data = Json::array();
  for (double V : Outcome.Data)
    Data.push(Json::number(V));
  EXPECT_EQ(api::renderResultEvent("\"r\"", "k", Outcome),
            "{\"v\":2,\"event\":\"result\",\"id\":\"r\",\"name\":\"k\","
            "\"status\":\"ok\",\"cached\":true,\"expr\":" +
                Json::str(Outcome.Expr).dump() + ",\"shape\":" + Shape.dump() +
                ",\"data\":" + Data.dump() + "}");

  Outcome.Shape.clear();
  Outcome.Data = {32};
  EXPECT_NE(api::renderResultEvent("", "k", Outcome)
                .find(",\"shape\":[],\"data\":[32]}"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// api::Endpoint — the full round trip
//===----------------------------------------------------------------------===//

serve::ServiceConfig miniService(int Threads) {
  serve::ServiceConfig Config;
  Config.Threads = Threads;
  // Generous so no lift times out on a loaded CI machine (timeouts are
  // deliberately uncacheable and would break the cache assertions).
  Config.Config.Search.TimeoutSeconds = 30;
  return Config;
}

const char *InlineKernel =
    "void kernel(int N, float* a, float* b, float* out) {"
    "  for (int i = 0; i < N; i++)"
    "    out[i] = a[i] * b[i] + a[i];"
    "}";

TEST(Endpoint, InlineKernelFullRoundTrip) {
  api::Endpoint Endpoint(miniService(2));

  api::LiftRequest Request;
  Request.KernelSource = InlineKernel;
  Request.Name = "user_kernel";

  api::LiftResponse Response = Endpoint.lift(Request);
  ASSERT_TRUE(Response.ok()) << Response.Error;
  EXPECT_TRUE(Response.Result.Solved);
  EXPECT_TRUE(Response.Result.Verified);
  EXPECT_EQ(Response.Name, "user_kernel");
  EXPECT_EQ(Response.Category, "inline");
  EXPECT_FALSE(taco::printProgram(Response.Result.Concrete).empty());

  // Identical resubmission: served from the cache, same result.
  api::LiftResponse Again = Endpoint.lift(Request);
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(taco::printProgram(Again.Result.Concrete),
            taco::printProgram(Response.Result.Concrete));
}

TEST(Endpoint, PerRequestOverridesChangeBehaviorAndNeverAliasInCache) {
  api::Endpoint Endpoint(miniService(1));

  api::LiftRequest Plain;
  Plain.KernelSource = InlineKernel;
  api::LiftResponse Verified = Endpoint.lift(Plain);
  ASSERT_TRUE(Verified.Result.Solved);
  EXPECT_TRUE(Verified.Result.Verified);

  // The same kernel under skip_verify must NOT be served from the verified
  // run's cache entry — the override is part of the cache key.
  api::LiftRequest Skipping = Plain;
  Skipping.Patch.SkipVerification = true;
  api::LiftResponse Unverified = Endpoint.lift(Skipping);
  ASSERT_TRUE(Unverified.Result.Solved);
  EXPECT_FALSE(Unverified.CacheHit);
  EXPECT_FALSE(Unverified.Result.Verified);
  EXPECT_TRUE(*Unverified.Applied.SkipVerification);

  // But re-running the same override hits its own entry.
  EXPECT_TRUE(Endpoint.lift(Skipping).CacheHit);
}

TEST(Endpoint, AdmissionErrorsResolveImmediately) {
  api::Endpoint Endpoint(miniService(1));

  api::LiftRequest Unknown;
  Unknown.RegistryName = "blas_axpi";
  api::LiftResponse Response = Endpoint.lift(Unknown);
  EXPECT_EQ(Response.St, api::Status::UnknownBenchmark);
  EXPECT_NE(Response.Error.find("blas_axpy"), std::string::npos)
      << "expected a did-you-mean hint, got: " << Response.Error;

  api::LiftRequest Broken;
  Broken.KernelSource = "void kernel(int N float* x) {";
  EXPECT_EQ(Endpoint.lift(Broken).St, api::Status::KernelParseError);

  api::LiftRequest Both;
  Both.RegistryName = "art_copy";
  Both.KernelSource = InlineKernel;
  EXPECT_EQ(Endpoint.lift(Both).St, api::Status::BadRequest);

  api::LiftRequest Neither;
  EXPECT_EQ(Endpoint.lift(Neither).St, api::Status::BadRequest);
}

TEST(Endpoint, SubmittedKernelOutlivesItsSourceBuffer) {
  // Regression test for the raw-pointer lifetime hazard: requests own their
  // benchmark, so the caller's buffers can die before the lift even starts.
  api::Endpoint Endpoint(miniService(1));
  std::future<api::LiftResponse> Pending;
  {
    std::string Ephemeral(InlineKernel);
    api::LiftRequest Request;
    Request.KernelSource = Ephemeral;
    Request.Name = "ephemeral";
    Pending = Endpoint.submit(Request);
    // Scribble over the buffer before destroying it, so stale pointers
    // into it cannot accidentally still read the right bytes.
    std::fill(Ephemeral.begin(), Ephemeral.end(), 'x');
  }
  api::LiftResponse Response = Pending.get();
  ASSERT_TRUE(Response.ok()) << Response.Error;
  EXPECT_TRUE(Response.Result.Solved);
  EXPECT_EQ(Response.Name, "ephemeral");
}

//===----------------------------------------------------------------------===//
// api::Endpoint — execute
//===----------------------------------------------------------------------===//

TEST(Endpoint, VmCacheCountsCompilesAndHits) {
  api::Endpoint Endpoint(miniService(1));
  api::Endpoint::VmCacheStats Fresh = Endpoint.vmCacheStats();
  EXPECT_EQ(Fresh.Entries, 0u);
  EXPECT_EQ(Fresh.Capacity, 256u);

  api::LiftRequest Request;
  Request.RegistryName = "art_add";
  api::LiftResponse Lift = Endpoint.lift(Request);
  ASSERT_TRUE(Lift.ok()) << Lift.Error;

  api::ExecuteIo Io;
  Io.Sizes["N"] = 3;
  Io.Arrays["a"] = {1, 2, 3};
  Io.Arrays["b"] = {10, 20, 30};
  ASSERT_TRUE(Endpoint.executeLifted(Request, Io, Lift).Ok);
  api::Endpoint::VmCacheStats One = Endpoint.vmCacheStats();
  EXPECT_EQ(One.Misses, 1u); // first execute compiles
  EXPECT_EQ(One.Hits, 0u);
  EXPECT_EQ(One.Entries, 1u);

  ASSERT_TRUE(Endpoint.executeLifted(Request, Io, Lift).Ok);
  api::Endpoint::VmCacheStats Two = Endpoint.vmCacheStats();
  EXPECT_EQ(Two.Misses, 1u); // same program: served from the cache
  EXPECT_EQ(Two.Hits, 1u);
  EXPECT_EQ(Two.Entries, 1u);
}

TEST(Endpoint, ExecuteReadsPostedArraysInPlace) {
  api::Endpoint Endpoint(miniService(1));
  api::LiftRequest Request;
  Request.RegistryName = "art_add";
  api::LiftResponse Lift = Endpoint.lift(Request);
  ASSERT_TRUE(Lift.ok()) << Lift.Error;

  // The posted arrays are read where they lie and left as posted; the
  // result lands in a buffer of its own, whatever the output pre-state.
  api::ExecuteIo Io;
  Io.Sizes["N"] = 3;
  Io.Arrays["a"] = {1, 2, 3};
  Io.Arrays["b"] = {10, 20, 30};
  Io.Arrays["out"] = {7, 7, 7};
  const api::ExecuteIo Posted = Io;
  api::ExecuteOutcome Outcome = Endpoint.executeLifted(Request, Io, Lift);
  ASSERT_TRUE(Outcome.Ok) << Outcome.Error;
  EXPECT_EQ(Outcome.Shape, std::vector<int64_t>{3});
  EXPECT_EQ(Outcome.Data, (std::vector<double>{11, 22, 33}));
  EXPECT_EQ(Io.Arrays, Posted.Arrays);

  // An input that is not posted reads as zero.
  Io.Arrays.erase("b");
  Outcome = Endpoint.executeLifted(Request, Io, Lift);
  ASSERT_TRUE(Outcome.Ok) << Outcome.Error;
  EXPECT_EQ(Outcome.Data, (std::vector<double>{1, 2, 3}));

  // A missing scalar the program reads is still unbound.
  api::LiftRequest Scal;
  Scal.RegistryName = "blas_scal";
  api::LiftResponse ScalLift = Endpoint.lift(Scal);
  ASSERT_TRUE(ScalLift.ok()) << ScalLift.Error;
  api::ExecuteIo NoAlpha;
  NoAlpha.Sizes["N"] = 2;
  NoAlpha.Arrays["x"] = {1, 2};
  api::ExecuteOutcome Unbound = Endpoint.executeLifted(Scal, NoAlpha, ScalLift);
  EXPECT_FALSE(Unbound.Ok);
  EXPECT_EQ(Unbound.Error, "failed to bind inputs: unbound tensor 'alpha'");
}

} // namespace
