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

using namespace stagg;
using support::Json;
using support::JsonParseResult;
using support::parseJson;

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
  api::PendingLift Pending;
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

} // namespace
