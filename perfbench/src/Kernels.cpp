//===- perfbench/src/Kernels.cpp - Generated request streams --------------===//

#include "Kernels.h"

#include "cfront/Interp.h"
#include "cfront/Parser.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "validate/IoExamples.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>

using namespace stagg;
using namespace perfbench;
using support::Json;

namespace {

/// Above this many expected attempts a kernel's lift is search-bound, which
/// is lift-registry's concern, not the ingest path's.
constexpr int LightAttempts = 250;

/// Registry kernels whose inline ingestion does not reproduce the registry
/// row: dsp_mm_acc ingests to a different reference translation and lifts
/// with other counters, and the checker refuses misc_trace's diagonal
/// access under the synthesized shapes.
const std::set<std::string> IngestExcluded = {"dsp_mm_acc", "misc_trace"};

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// A C token: an identifier or a single other non-blank character (the
/// renamer needs nothing finer).
struct Token {
  std::string Text;
  size_t Pos = 0;
  bool Ident = false;
};

std::vector<Token> tokenize(const std::string &S) {
  std::vector<Token> Out;
  for (size_t I = 0; I < S.size();) {
    if (std::isspace(static_cast<unsigned char>(S[I]))) {
      ++I;
    } else if (isIdentStart(S[I])) {
      size_t J = I;
      while (J < S.size() && isIdentChar(S[J]))
        ++J;
      Out.push_back({S.substr(I, J - I), I, true});
      I = J;
    } else if (std::isdigit(static_cast<unsigned char>(S[I]))) {
      size_t J = I;
      while (J < S.size() && (isIdentChar(S[J]) || S[J] == '.'))
        ++J;
      Out.push_back({S.substr(I, J - I), I, false});
      I = J;
    } else {
      Out.push_back({std::string(1, S[I]), I, false});
      ++I;
    }
  }
  return Out;
}

const std::set<std::string> TypeWords = {"int",   "float",    "double",
                                         "long",  "unsigned", "char",
                                         "short", "signed",   "const"};

} // namespace

std::vector<const bench::Benchmark *>
perfbench::ingestPool(const std::map<std::string, ExpectedRow> &Expected) {
  std::vector<const bench::Benchmark *> Pool;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    auto It = Expected.find(B.Name);
    if (It == Expected.end())
      throw FatalError{"no expected sweep row for " + B.Name};
    if (It->second.Solved && It->second.Attempts <= LightAttempts &&
        !IngestExcluded.count(B.Name))
      Pool.push_back(&B);
  }
  return Pool;
}

std::string perfbench::renameLocals(const std::string &Source,
                                    const std::string &Suffix) {
  std::vector<Token> Toks = tokenize(Source);
  // The body starts after the parameter list's closing parenthesis.
  size_t BodyStart = 0;
  int Depth = 0;
  for (size_t I = 0; I < Toks.size(); ++I) {
    if (Toks[I].Text == "(")
      ++Depth;
    if (Toks[I].Text == ")" && --Depth == 0) {
      BodyStart = I + 1;
      break;
    }
  }
  // Declarations in the body: a type word, then declarators separated by
  // top-level commas up to ';' (or the ')' closing a for-header).
  std::set<std::string> Locals;
  for (size_t I = BodyStart; I < Toks.size(); ++I) {
    if (!Toks[I].Ident || !TypeWords.count(Toks[I].Text))
      continue;
    bool ExpectName = true;
    int Nest = 0;
    for (size_t J = I + 1; J < Toks.size(); ++J) {
      const std::string &T = Toks[J].Text;
      if (Nest == 0 && (T == ";" || T == ")"))
        break;
      if (T == "(" || T == "[")
        ++Nest;
      else if (T == ")" || T == "]")
        --Nest;
      else if (Nest == 0 && T == ",")
        ExpectName = true;
      else if (Toks[J].Ident && TypeWords.count(T))
        continue;
      else if (ExpectName && Toks[J].Ident) {
        Locals.insert(T);
        ExpectName = false;
      }
    }
  }
  std::string Out;
  size_t Last = 0;
  for (size_t I = BodyStart; I < Toks.size(); ++I) {
    if (!Toks[I].Ident || !Locals.count(Toks[I].Text))
      continue;
    Out.append(Source, Last, Toks[I].Pos + Toks[I].Text.size() - Last);
    Out += '_';
    Out += Suffix;
    Last = Toks[I].Pos + Toks[I].Text.size();
  }
  Out.append(Source, Last, std::string::npos);
  return Out;
}

std::vector<IngestRequest>
perfbench::ingestStream(const std::vector<const bench::Benchmark *> &Pool,
                        size_t Count, uint64_t Seed, const std::string &Tag) {
  std::vector<IngestRequest> Out;
  Out.reserve(Count);
  std::vector<size_t> Order;
  for (size_t I = 0; I < Count; ++I) {
    if (I % Pool.size() == 0)
      Order = seededPermutation(Pool.size(), Seed + I);
    const bench::Benchmark *B = Pool[Order[I % Pool.size()]];
    Out.push_back({B, renameLocals(B->CSource, Tag + std::to_string(I))});
  }
  return Out;
}

std::string perfbench::ingestFrame(const IngestRequest &R, int64_t Id) {
  return "{\"v\":2,\"id\":" + std::to_string(Id) +
         ",\"requests\":[{\"kernel\":" + Json::str(R.Source).dump() +
         ",\"name\":" + Json::str(R.Kernel->Name).dump() + "}]}";
}

namespace {

using SizeMap = std::map<std::string, int64_t>;

/// One kernel of the execute table: its size parameters at three nominal
/// rungs (outputs of about 256, 1-4k and 2-16k cells, inputs of at most 32k
/// cells), and the multiply-accumulate count of one evaluation.
struct ExecuteKernel {
  const char *Name;
  std::vector<const char *> Params;
  std::vector<std::vector<int64_t>> Rungs;
  std::function<int64_t(const SizeMap &)> Macs;
};

int64_t cellsOf(const SizeMap &Z, const char *A, const char *B) {
  return Z.at(A) * Z.at(B);
}

const std::vector<ExecuteKernel> &executeTable() {
  static const std::vector<ExecuteKernel> Table = {
      {"blas_gemm", {"N", "M", "K"}, {{16, 16, 16}, {48, 48, 16}, {96, 96, 24}},
       [](const SizeMap &Z) { return cellsOf(Z, "N", "M") * Z.at("K"); }},
      {"dsp_matvec", {"N", "M"}, {{256, 16}, {1024, 16}, {2048, 16}},
       [](const SizeMap &Z) { return cellsOf(Z, "N", "M"); }},
      {"ll_matmul", {"D", "Nw"}, {{256, 32}, {512, 32}, {1024, 32}},
       [](const SizeMap &Z) { return cellsOf(Z, "D", "Nw"); }},
      {"misc_hadamard", {"N", "M"}, {{16, 16}, {64, 64}, {128, 128}},
       [](const SizeMap &Z) { return cellsOf(Z, "N", "M"); }},
      {"dk_add_bias", {"C", "S"}, {{16, 16}, {48, 64}, {128, 96}},
       [](const SizeMap &Z) { return cellsOf(Z, "C", "S"); }},
      {"misc_matscale", {"N", "M"}, {{16, 16}, {64, 64}, {128, 128}},
       [](const SizeMap &Z) { return cellsOf(Z, "N", "M"); }},
      {"blas_ger", {"N", "M"}, {{16, 16}, {64, 64}, {128, 128}},
       [](const SizeMap &Z) { return cellsOf(Z, "N", "M"); }},
      {"relu_forward", {"N"}, {{256}, {4096}, {16384}},
       [](const SizeMap &Z) { return Z.at("N"); }},
  };
  return Table;
}

/// The largest rung keeps its nominal sizes: its buffers set the server's
/// peak memory, which must not depend on the seed.
constexpr size_t FixedRung = 2;

/// A case at \p Rung of \p K. Below FixedRung the seed moves every size by
/// at most 1/16 of its nominal value, so sizes differ between seeds while
/// the work of the case set, and hence every timing, stays comparable.
ExecuteCase makeCase(const ExecuteKernel &K, size_t Rung, Rng &R) {
  ExecuteCase C;
  C.Kernel = bench::findBenchmark(K.Name);
  if (!C.Kernel)
    throw FatalError{std::string("execute kernel missing: ") + K.Name};
  for (size_t P = 0; P < K.Params.size(); ++P) {
    int64_t Nominal = K.Rungs[Rung][P];
    int64_t Jitter = Rung < FixedRung ? Nominal / 16 : 0;
    C.Io.Sizes[K.Params[P]] = Nominal + R.range(-Jitter, Jitter);
  }
  C.Macs = K.Macs(C.Io.Sizes);

  cfront::ExecEnv<double> Env;
  for (const auto &[Name, V] : C.Io.Sizes)
    Env.IntScalars[Name] = V;
  Json Inputs = Json::object();
  for (const bench::ArgSpec &Arg : C.Kernel->Args) {
    if (Arg.K == bench::ArgSpec::Kind::NumScalar) {
      double V = static_cast<double>(R.range(1, 3));
      C.Io.Scalars[Arg.Name] = V;
      Env.NumScalars[Arg.Name] = V;
      Inputs.set(Arg.Name, Json::integer(static_cast<int64_t>(V)));
    } else if (Arg.K == bench::ArgSpec::Kind::Array) {
      std::vector<int64_t> Shape = validate::resolveShape(Arg, C.Io.Sizes);
      int64_t Cells = 1;
      for (int64_t D : Shape)
        Cells *= D;
      std::vector<double> Data(static_cast<size_t>(Cells), 0.0);
      if (!Arg.IsOutput) {
        Json Values = Json::array();
        for (double &V : Data) {
          V = static_cast<double>(R.range(-4, 4));
          Values.push(Json::integer(static_cast<int64_t>(V)));
        }
        C.Io.Arrays[Arg.Name] = Data;
        Inputs.set(Arg.Name, std::move(Values));
      }
      Env.Arrays[Arg.Name] = std::move(Data);
    }
  }

  cfront::CParseResult Parsed = cfront::parseCFunction(C.Kernel->CSource);
  if (!Parsed.ok())
    throw FatalError{"cannot parse " + C.Kernel->Name + ": " + Parsed.Error};
  cfront::ExecStatus St =
      cfront::runCFunction<double>(*Parsed.Function, Env, int64_t(1) << 40);
  if (!St.Ok)
    throw FatalError{"reference run of " + C.Kernel->Name +
                     " failed: " + St.Error};
  C.Expected = Env.Arrays.at(C.Kernel->outputArg()->Name);
  Json Data = Json::array();
  for (double V : C.Expected)
    Data.push(Json::number(V));
  C.ExpectedData = "\"data\":" + Data.dump() + "}";

  Json Sizes = Json::object();
  for (const auto &[Name, V] : C.Io.Sizes)
    Sizes.set(Name, Json::integer(V));
  Json Body = Json::object();
  Body.set("name", Json::str(C.Kernel->Name));
  Body.set("sizes", std::move(Sizes));
  Body.set("inputs", std::move(Inputs));
  C.Body = Body.dump();
  return C;
}

} // namespace

std::vector<ExecuteCase> perfbench::executeCases(uint64_t Seed) {
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<ExecuteCase> Out;
  for (const ExecuteKernel &K : executeTable())
    for (size_t Rung = 0; Rung < K.Rungs.size(); ++Rung)
      Out.push_back(makeCase(K, Rung, R));
  return Out;
}

std::string perfbench::executeFrame(const ExecuteCase &C, int64_t Id) {
  return "{\"v\":2,\"id\":" + std::to_string(Id) + ",\"execute\":" + C.Body +
         "}";
}

std::string perfbench::checkExecuteResult(const std::string &Line,
                                          const ExecuteCase &C) {
  if (Line.find("\"status\":\"ok\"") == std::string::npos)
    return "execute failed: " + Line.substr(0, 300);
  size_t Pos = Line.find("\"data\":[");
  if (Pos == std::string::npos)
    return "result has no data";
  // Fast path: the cells as the expected values render. Any other spelling
  // of the same numbers is compared cell by cell below.
  if (Line.size() - Pos == C.ExpectedData.size() &&
      Line.compare(Pos, std::string::npos, C.ExpectedData) == 0)
    return "";
  const char *P = Line.c_str() + Pos + 8;
  size_t Cell = 0;
  while (*P && *P != ']') {
    char *End = nullptr;
    double V = std::strtod(P, &End);
    if (End == P)
      return "unparseable cell " + std::to_string(Cell);
    if (Cell >= C.Expected.size())
      return "too many cells";
    if (V != C.Expected[Cell])
      return "cell " + std::to_string(Cell) + " is " + std::to_string(V) +
             ", expected " + std::to_string(C.Expected[Cell]);
    ++Cell;
    P = End;
    if (*P == ',')
      ++P;
  }
  if (Cell != C.Expected.size())
    return "got " + std::to_string(Cell) + " cells, expected " +
           std::to_string(C.Expected.size());
  return "";
}
