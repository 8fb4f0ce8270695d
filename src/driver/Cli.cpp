//===- driver/Cli.cpp - stagg CLI flag parsing ----------------------------===//

#include "driver/Cli.h"

#include "analysis/KernelModel.h"
#include "cfront/Parser.h"
#include "support/StringUtils.h"
#include "taco/Parser.h"
#include "vm/Compiler.h"
#include "vm/Optimizer.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

using namespace stagg;
using namespace stagg::driver;

namespace {

/// One consumed flag: name plus optional inline `=value` part.
struct Flag {
  std::string Name;
  std::string Inline;
  bool HasInline = false;
};

Flag splitFlag(const std::string &Arg) {
  Flag F;
  std::string::size_type Eq = Arg.find('=');
  if (Eq == std::string::npos) {
    F.Name = Arg;
  } else {
    F.Name = Arg.substr(0, Eq);
    F.Inline = Arg.substr(Eq + 1);
    F.HasInline = true;
  }
  return F;
}

bool parseInt(const std::string &Text, long long &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtoll(Text.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtod(Text.c_str(), &End);
  return errno == 0 && End && *End == '\0';
}

/// Every flag the parser understands, for the did-you-mean hint.
const std::vector<std::string> &knownFlags() {
  static const std::vector<std::string> Flags = {
      "--help",          "-h",
      "--list",          "--verbose",
      "-v",              "--no-verify",
      "--no-vm",         "--no-vm-opt",
      "--full-grammar",  "--equal-probability",
      "--cache-stats",   "--suite",
      "--repeat",
      "--search",        "--drop-penalty",
      "--format",        "--csv",
      "--input",         "--limit",
      "--threads",       "--search-threads",
      "--candidates",
      "--io-examples",   "--max-depth",
      "--max-size",      "--seed",
      "--example-seed",  "--queue-depth",
      "--cache-capacity", "--cache-shards",
      "--timeout",        "--json",
      "--min-time",       "--Werror",
      "--listen",         "--max-conns",
      "--max-inflight",   "--idle-timeout",
      "--cache-file",     "--max-execute-cells"};
  return Flags;
}

/// The closest known spelling of \p Unknown, or "" when nothing is near
/// enough to be a plausible typo.
std::string suggestFor(const std::string &Unknown,
                       const std::vector<std::string> &Candidates) {
  return closestMatch(Unknown, Candidates);
}

/// Applies one `--drop-penalty` selector; returns false for unknown names.
bool dropPenalty(search::SearchConfig &Search, const std::string &Which) {
  if (Which == "all") {
    Search.dropAllTopDownPenalties();
    Search.dropAllBottomUpPenalties();
    return true;
  }
  if (Which == "a") {
    Search.dropAllTopDownPenalties();
    return true;
  }
  if (Which == "b") {
    Search.dropAllBottomUpPenalties();
    return true;
  }
  if (Which == "a1")
    return Search.PenaltyA1 = false, true;
  if (Which == "a2")
    return Search.PenaltyA2 = false, true;
  if (Which == "a3")
    return Search.PenaltyA3 = false, true;
  if (Which == "a4")
    return Search.PenaltyA4 = false, true;
  if (Which == "a5")
    return Search.PenaltyA5 = false, true;
  if (Which == "b1")
    return Search.PenaltyB1 = false, true;
  if (Which == "b2")
    return Search.PenaltyB2 = false, true;
  return false;
}

} // namespace

const std::vector<std::string> &driver::knownSuites() {
  static const std::vector<std::string> Suites = {
      "all",  "real", "paper", "artificial", "blas",
      "darknet", "dsp", "misc", "llama", "pointer"};
  return Suites;
}

std::vector<const bench::Benchmark *>
driver::selectSuite(const std::string &Suite, int Limit, std::string &Error) {
  std::vector<const bench::Benchmark *> Selected;
  const std::vector<std::string> &Known = knownSuites();
  if (std::find(Known.begin(), Known.end(), Suite) == Known.end()) {
    Error = "unknown suite '" + Suite + "'";
    return Selected;
  }

  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    bool Take = Suite == "all" ||
                (Suite == "real" && B.isRealWorld() &&
                 B.Category != "pointer") ||
                (Suite == "paper" && B.Category != "pointer") ||
                B.Category == Suite;
    if (Take)
      Selected.push_back(&B);
  }
  if (Limit >= 0 && static_cast<int>(Selected.size()) > Limit)
    Selected.resize(static_cast<size_t>(Limit));
  return Selected;
}

CliParse driver::parseArgs(const std::vector<std::string> &Args) {
  CliParse Parse;
  CliOptions &O = Parse.Options;

  size_t I = 0;
  // Fetches the flag's value from `=value` or the next argument; returns
  // false (and sets the error) when it is missing.
  auto takeValue = [&](const Flag &F, std::string &Out) {
    if (F.HasInline) {
      Out = F.Inline;
      return true;
    }
    if (I + 1 < Args.size()) {
      Out = Args[++I];
      return true;
    }
    Parse.Error = F.Name + " expects a value";
    return false;
  };

  bool SawCommand = false;
  // First flag of each applicability class seen, for the mode cross-checks
  // after the loop: RunOnly flags belong to the batch table run, SuiteFlags
  // to any suite-selecting mode (batch or bench), BenchOnly to `stagg
  // bench`.
  std::string RunOnly;
  std::string SuiteFlag;
  std::string BenchOnly;
  std::string FormatFlag;
  std::string CheckOnly;
  std::string ServeOnly;
  for (; I < Args.size(); ++I) {
    // Positional arguments are subcommands: `serve` or `bench`.
    if (!Args[I].empty() && Args[I][0] != '-') {
      if (!SawCommand && Args[I] == "serve") {
        O.Mode = DriverMode::Serve;
        SawCommand = true;
        continue;
      }
      if (!SawCommand && Args[I] == "bench") {
        O.Mode = DriverMode::Bench;
        SawCommand = true;
        continue;
      }
      if (!SawCommand && Args[I] == "list") {
        O.Mode = DriverMode::List;
        SawCommand = true;
        continue;
      }
      if (!SawCommand && Args[I] == "check") {
        O.Mode = DriverMode::Check;
        SawCommand = true;
        continue;
      }
      if (!SawCommand && Args[I] == "disasm") {
        O.Mode = DriverMode::Disasm;
        SawCommand = true;
        continue;
      }
      if (O.Mode == DriverMode::Check || O.Mode == DriverMode::Disasm) {
        // `stagg check` / `stagg disasm` targets: registry names (check
        // also accepts C source paths).
        O.Targets.push_back(Args[I]);
        continue;
      }
      Parse.Error = "unknown command '" + Args[I] + "'";
      std::string Hint =
          suggestFor(Args[I], {"serve", "bench", "list", "check", "disasm"});
      if (!Hint.empty())
        Parse.Error += " — did you mean '" + Hint + "'?";
      Parse.Error += " (see --help)";
      break;
    }

    Flag F = splitFlag(Args[I]);
    std::string Value;

    bool IsBoolean = F.Name == "--help" || F.Name == "-h" ||
                     F.Name == "--list" || F.Name == "--verbose" ||
                     F.Name == "-v" || F.Name == "--no-verify" ||
                     F.Name == "--no-vm" || F.Name == "--no-vm-opt" ||
                     F.Name == "--full-grammar" ||
                     F.Name == "--equal-probability" ||
                     F.Name == "--cache-stats" || F.Name == "--Werror";
    if (IsBoolean && F.HasInline) {
      Parse.Error = F.Name + " does not take a value";
      break;
    }

    if (F.Name == "--help" || F.Name == "-h") {
      O.ShowHelp = true;
    } else if (F.Name == "--list") {
      O.ListOnly = true;
      RunOnly = F.Name;
    } else if (F.Name == "--verbose" || F.Name == "-v") {
      O.Verbose = true;
    } else if (F.Name == "--no-verify") {
      O.Config.SkipVerification = true;
    } else if (F.Name == "--no-vm") {
      O.Config.UseVm = false;
    } else if (F.Name == "--no-vm-opt") {
      O.Config.UseVmOpt = false;
    } else if (F.Name == "--full-grammar") {
      O.Config.Grammar.FullGrammar = true;
    } else if (F.Name == "--equal-probability") {
      O.Config.Grammar.EqualProbability = true;
    } else if (F.Name == "--cache-stats") {
      O.ShowCacheStats = true;
    } else if (F.Name == "--Werror") {
      O.CheckWerror = true;
      CheckOnly = F.Name;
    } else if (F.Name == "--input") {
      if (!takeValue(F, O.InputPath))
        break;
    } else if (F.Name == "--suite") {
      SuiteFlag = F.Name;
      if (!takeValue(F, O.Suite))
        break;
      const std::vector<std::string> &Known = knownSuites();
      if (std::find(Known.begin(), Known.end(), O.Suite) == Known.end()) {
        std::string Choices;
        for (const std::string &S : Known)
          Choices += (Choices.empty() ? "" : ", ") + S;
        Parse.Error =
            "unknown suite '" + O.Suite + "' (choices: " + Choices + ")";
        break;
      }
    } else if (F.Name == "--search") {
      if (!takeValue(F, Value))
        break;
      if (Value == "td" || Value == "top-down") {
        O.Config.Kind = core::SearchKind::TopDown;
      } else if (Value == "bu" || Value == "bottom-up") {
        O.Config.Kind = core::SearchKind::BottomUp;
      } else {
        Parse.Error = "--search expects td|bu, got '" + Value + "'";
        break;
      }
    } else if (F.Name == "--drop-penalty") {
      if (!takeValue(F, Value))
        break;
      if (!dropPenalty(O.Config.Search, Value)) {
        Parse.Error =
            "--drop-penalty expects a1..a5, b1, b2, a, b or all, got '" +
            Value + "'";
        break;
      }
    } else if (F.Name == "--format") {
      FormatFlag = F.Name;
      if (!takeValue(F, Value))
        break;
      if (Value == "table") {
        O.Format = OutputFormat::Table;
      } else if (Value == "csv") {
        O.Format = OutputFormat::Csv;
      } else if (Value == "tsv") {
        O.Format = OutputFormat::Tsv;
      } else if (Value == "json") {
        O.Format = OutputFormat::Json;
      } else {
        Parse.Error =
            "--format expects table|csv|tsv (or json for `stagg check`), "
            "got '" + Value + "'";
        break;
      }
    } else if (F.Name == "--csv") {
      RunOnly = F.Name;
      if (!takeValue(F, O.CsvPath))
        break;
    } else if (F.Name == "--limit" || F.Name == "--threads" ||
               F.Name == "--search-threads" ||
               F.Name == "--candidates" || F.Name == "--io-examples" ||
               F.Name == "--max-depth" || F.Name == "--max-size" ||
               F.Name == "--seed" || F.Name == "--example-seed") {
      if (!takeValue(F, Value))
        break;
      long long N = 0;
      if (!parseInt(Value, N)) {
        Parse.Error = F.Name + " expects an integer, got '" + Value + "'";
        break;
      }
      bool Seed = F.Name == "--seed" || F.Name == "--example-seed";
      if (N < 0 || (!Seed && F.Name != "--limit" && N == 0) ||
          (!Seed && F.Name != "--max-size" &&
           N > std::numeric_limits<int>::max())) {
        Parse.Error = F.Name + " expects a positive value, got '" + Value +
                      "'";
        break;
      }
      if (F.Name == "--limit") {
        O.Limit = static_cast<int>(N);
        SuiteFlag = F.Name;
      }
      else if (F.Name == "--threads")
        O.Threads = static_cast<int>(N);
      else if (F.Name == "--search-threads")
        O.Config.Search.Threads = static_cast<int>(N);
      else if (F.Name == "--candidates")
        O.Config.NumCandidates = static_cast<int>(N);
      else if (F.Name == "--io-examples")
        O.Config.NumIoExamples = static_cast<int>(N);
      else if (F.Name == "--max-depth")
        O.Config.Search.MaxDepth = static_cast<int>(N);
      else if (F.Name == "--max-size")
        O.Config.Verify.MaxSize = N;
      else if (F.Name == "--seed")
        O.OracleSeed = static_cast<uint64_t>(N);
      else // --example-seed
        O.Config.ExampleSeed = static_cast<uint64_t>(N);
    } else if (F.Name == "--queue-depth" || F.Name == "--cache-capacity" ||
               F.Name == "--cache-shards") {
      if (!takeValue(F, Value))
        break;
      long long N = 0;
      if (!parseInt(Value, N)) {
        Parse.Error = F.Name + " expects an integer, got '" + Value + "'";
        break;
      }
      // Zero means "off" for the cache; the structural knobs (queue
      // depth, shard count) need at least one.
      bool ZeroOk = F.Name == "--cache-capacity";
      if (N < 0 || (!ZeroOk && N == 0) ||
          (F.Name != "--cache-capacity" &&
           N > std::numeric_limits<int>::max())) {
        Parse.Error =
            F.Name + " expects a positive value, got '" + Value + "'";
        break;
      }
      if (F.Name == "--queue-depth")
        O.Config.Serve.QueueDepth = static_cast<int>(N);
      else if (F.Name == "--cache-capacity")
        O.Config.Serve.CacheCapacity = static_cast<size_t>(N);
      else // --cache-shards
        O.Config.Serve.CacheShards = static_cast<int>(N);
    } else if (F.Name == "--listen") {
      ServeOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      // Validate the shape here so a typo fails at startup, not at bind
      // time: "<addr>:<port>" with a numeric port (0 picks a free one).
      std::string::size_type Colon = Value.rfind(':');
      long long Port = 0;
      if (Colon == std::string::npos || Colon == 0 ||
          !parseInt(Value.substr(Colon + 1), Port) || Port < 0 ||
          Port > 65535) {
        Parse.Error = "--listen expects <addr>:<port> (port 0 picks a free "
                      "one), got '" + Value + "'";
        break;
      }
      O.Config.Serve.ListenAddr = Value;
    } else if (F.Name == "--max-conns" || F.Name == "--max-inflight") {
      ServeOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      long long N = 0;
      if (!parseInt(Value, N) || N <= 0 ||
          N > std::numeric_limits<int>::max()) {
        Parse.Error =
            F.Name + " expects a positive value, got '" + Value + "'";
        break;
      }
      if (F.Name == "--max-conns")
        O.Config.Serve.MaxConns = static_cast<int>(N);
      else
        O.Config.Serve.MaxInFlight = static_cast<int>(N);
    } else if (F.Name == "--idle-timeout") {
      ServeOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      double Seconds = 0;
      if (!parseDouble(Value, Seconds) || !std::isfinite(Seconds) ||
          Seconds < 0) {
        Parse.Error =
            "--idle-timeout expects seconds >= 0 (0 disables), got '" +
            Value + "'";
        break;
      }
      O.Config.Serve.IdleTimeoutSeconds = Seconds;
    } else if (F.Name == "--cache-file") {
      ServeOnly = F.Name;
      if (!takeValue(F, O.Config.Serve.CachePath))
        break;
    } else if (F.Name == "--max-execute-cells") {
      ServeOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      long long N = 0;
      if (!parseInt(Value, N) || N < 0) {
        Parse.Error = "--max-execute-cells expects a value >= 0 (0 "
                      "disables the cap), got '" + Value + "'";
        break;
      }
      O.Config.Serve.MaxExecuteCells = static_cast<int64_t>(N);
    } else if (F.Name == "--timeout") {
      if (!takeValue(F, Value))
        break;
      double Seconds = 0;
      if (!parseDouble(Value, Seconds) || !std::isfinite(Seconds) ||
          Seconds <= 0) {
        Parse.Error = "--timeout expects seconds > 0, got '" + Value + "'";
        break;
      }
      O.Config.Search.TimeoutSeconds = Seconds;
    } else if (F.Name == "--json") {
      BenchOnly = F.Name;
      if (!takeValue(F, O.JsonPath))
        break;
    } else if (F.Name == "--min-time") {
      BenchOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      double Seconds = 0;
      if (!parseDouble(Value, Seconds) || !std::isfinite(Seconds) ||
          Seconds <= 0) {
        Parse.Error = "--min-time expects seconds > 0, got '" + Value + "'";
        break;
      }
      O.BenchMinTime = Seconds;
    } else if (F.Name == "--repeat") {
      BenchOnly = F.Name;
      if (!takeValue(F, Value))
        break;
      long long N = 0;
      if (!parseInt(Value, N) || N <= 0 || N > 1000) {
        Parse.Error =
            "--repeat expects a repetition count in 1..1000, got '" + Value +
            "'";
        break;
      }
      O.BenchRepeat = static_cast<int>(N);
    } else {
      Parse.Error = "unknown flag '" + Args[I] + "'";
      std::string Hint = suggestFor(F.Name, knownFlags());
      if (!Hint.empty())
        Parse.Error += " — did you mean '" + Hint + "'?";
      Parse.Error += " (see --help)";
      break;
    }
  }

  // Silently ignoring a mode-mismatched flag would do the wrong large
  // thing: --input without `serve` runs the whole default suite; --csv
  // with `serve` writes nothing the user asked for.
  if (Parse.ok() && !O.ShowHelp) {
    // --format is mode-checked separately from the other RunOnly flags
    // because `stagg check` shares it (table|json).
    std::string TableOnly = !RunOnly.empty() ? RunOnly : FormatFlag;
    if (O.Mode != DriverMode::Serve && !O.InputPath.empty())
      Parse.Error = "--input only applies to `stagg serve`";
    else if (O.Mode == DriverMode::Serve && !TableOnly.empty())
      Parse.Error = TableOnly + " only applies to batch mode, not `stagg "
                                "serve` (requests come from the input "
                                "stream)";
    else if (O.Mode == DriverMode::Serve && !SuiteFlag.empty())
      Parse.Error = SuiteFlag + " only applies to batch mode, not `stagg "
                                "serve` (requests come from the input "
                                "stream)";
    else if (O.Mode != DriverMode::Bench && !BenchOnly.empty())
      Parse.Error = BenchOnly + " only applies to `stagg bench`";
    else if (O.Mode == DriverMode::Bench && !TableOnly.empty())
      Parse.Error =
          TableOnly + " does not apply to `stagg bench` (see --help)";
    else if (O.Mode == DriverMode::List && !TableOnly.empty())
      Parse.Error =
          TableOnly + " does not apply to `stagg list` (see --help)";
    else if (O.Mode == DriverMode::Disasm && !TableOnly.empty())
      Parse.Error =
          TableOnly + " does not apply to `stagg disasm` (see --help)";
    else if (O.Mode != DriverMode::Serve && !ServeOnly.empty())
      Parse.Error = ServeOnly + " only applies to `stagg serve`";
    else if (!O.Config.Serve.ListenAddr.empty() && !O.InputPath.empty())
      Parse.Error = "--listen and --input are mutually exclusive (requests "
                    "arrive over the socket)";
    else if (O.Mode != DriverMode::Check && !CheckOnly.empty())
      Parse.Error = CheckOnly + " only applies to `stagg check`";
    else if (O.Mode != DriverMode::Check && O.Format == OutputFormat::Json)
      Parse.Error = "--format json only applies to `stagg check`";
    else if (O.Mode == DriverMode::Check && !RunOnly.empty())
      Parse.Error =
          RunOnly + " does not apply to `stagg check` (see --help)";
    else if (O.Mode == DriverMode::Check && (O.Format == OutputFormat::Csv ||
                                             O.Format == OutputFormat::Tsv))
      Parse.Error = "`stagg check` renders table or json, not csv/tsv";
  }

  return Parse;
}

std::string driver::usage() {
  std::ostringstream Os;
  Os << "stagg — guided tensor lifting pipeline driver\n"
     << "\n"
     << "Runs the full lift pipeline (C parse -> kernel analysis -> "
        "LLM-seeded\n"
     << "PCFG -> weighted A* search -> TACO codegen -> I/O validation -> "
        "bounded\n"
     << "verification) over a benchmark suite on a worker pool.\n"
     << "\n"
     << "Usage: stagg [options]         batch suite run\n"
     << "       stagg bench [options]   performance report: runs the micro\n"
     << "                               benchmarks (TACO parse, einsum,\n"
     << "                               C interpreter, grammar, search,\n"
     << "                               validator, verifier) plus an\n"
     << "                               end-to-end lift-latency sweep over\n"
     << "                               the selected suite; prints a table\n"
     << "                               and, with --json PATH, writes the\n"
     << "                               versioned JSON report consumed by\n"
     << "                               scripts/bench_compare.py and the CI\n"
     << "                               perf job\n"
     << "       stagg serve [options]   persistent serving loop: reads\n"
     << "                               newline-delimited requests from\n"
     << "                               stdin (or --input FILE) and streams\n"
     << "                               one result line each. A request is\n"
     << "                               a protocol-v1 JSON object — e.g.\n"
     << "                               {\"v\":1,\"kernel\":\"void kernel("
        "...){...}\",\n"
     << "                               \"config\":{\"skip_verify\":true}} "
        "— carrying\n"
     << "                               a registry name or an inline C\n"
     << "                               kernel plus per-request config\n"
     << "                               overrides (see README, \"Wire\n"
     << "                               protocol v1\"), or a legacy bare\n"
     << "                               benchmark name. Exit codes: 0 ok,\n"
     << "                               2 unknown name, 3 bad JSON,\n"
     << "                               4 kernel ingestion failure,\n"
     << "                               5 static checker refused a kernel\n"
     << "       stagg check [targets]   static safety & liftability lint:\n"
     << "                               runs analysis::Checker (bounds\n"
     << "                               proofs, loop-carried dependences,\n"
     << "                               aliasing, uninitialized\n"
     << "                               accumulators; SK001..SK007) over\n"
     << "                               registry names and/or C source\n"
     << "                               files, or the --suite selection\n"
     << "                               when no targets are given. Exit\n"
     << "                               codes: 0 clean, 1 hard findings\n"
     << "                               (or warnings with --Werror),\n"
     << "                               2 bad target\n"
     << "\n"
     << "Commands:\n"
     << "  stagg [flags]       batch suite run (default)\n"
     << "  stagg serve         persistent request-serving loop\n"
     << "  stagg bench         micro + end-to-end performance report\n"
     << "  stagg list          print registry kernels with suite tags and\n"
     << "                      ingestion-class labels (subscript |\n"
     << "                      pointer-walking | conditional |\n"
     << "                      multi-statement)\n"
     << "  stagg check         static safety lint over kernels (see the\n"
     << "                      README's diagnostics catalog)\n"
     << "  stagg disasm        print the VM instruction stream of each\n"
     << "                      target's ground-truth lifted program —\n"
     << "                      optimized by default, raw with --no-vm-opt\n"
     << "                      (targets: registry names, or the --suite\n"
     << "                      selection when none are given)\n"
     << "\n"
     << "Suite selection:\n"
     << "  --suite NAME        all | real | paper | artificial | blas | "
        "darknet |\n"
     << "                      dsp | misc | llama | pointer (default: real;\n"
     << "                      paper = the original 77, pointer = the\n"
     << "                      post-paper pointer/conditional/fused suite)\n"
     << "  --limit N           run only the first N selected benchmarks\n"
     << "  --list              print the selection and exit\n"
     << "\n"
     << "Pipeline configuration:\n"
     << "  --search td|bu      top-down (default) or bottom-up search\n"
     << "  --timeout SECONDS   per-benchmark search budget (default 5)\n"
     << "  --candidates N      oracle candidates per query (default 10)\n"
     << "  --io-examples N     I/O examples for validation (default 3)\n"
     << "  --max-depth N       top-down expression depth cap (default 6)\n"
     << "  --max-size N        bounded-verifier size bound (default 2)\n"
     << "  --seed N            simulated-LLM oracle seed\n"
     << "  --example-seed N    I/O example generator seed\n"
     << "  --search-threads N  parallel candidate-probing workers per lift\n"
     << "                      (default 1 = serial; results are bit-identical\n"
     << "                      for every N, and the serving layer caps N so\n"
     << "                      pool width x N never oversubscribes the host)\n"
     << "\n"
     << "Ablations (paper Tables 2/3):\n"
     << "  --no-verify         accept on I/O validation only (C2TACO-style)\n"
     << "  --no-vm             evaluate candidates with the tree-walking\n"
     << "                      evaluator instead of the bytecode VM (A/B;\n"
     << "                      results are bit-identical, just slower)\n"
     << "  --no-vm-opt         run the raw VM instruction stream in the\n"
     << "                      verifier and execute, skipping vm::optimize\n"
     << "                      (fused spans, constant dedup, dead-register\n"
     << "                      elimination; A/B — results are bit-identical,\n"
     << "                      just slower). The validator never optimizes.\n"
     << "  --full-grammar      FullGrammar: skip dimension refinement\n"
     << "  --equal-probability EqualProbability: uniform rule weights\n"
     << "  --drop-penalty P    disable penalty a1..a5|b1|b2, or a|b|all;\n"
     << "                      repeatable\n"
     << "\n"
     << "Serving layer (both modes run on it):\n"
     << "  --queue-depth N     request-queue bound; full = backpressure\n"
     << "                      (default 64)\n"
     << "  --cache-capacity N  kernel-text result-cache entries; 0 "
        "disables\n"
     << "                      (default 1024)\n"
     << "  --cache-shards N    independently locked cache shards (default "
        "8)\n"
     << "  --cache-stats       print cache counters to stderr\n"
     << "  --input PATH        serve: read requests from PATH, not stdin\n"
     << "\n"
     << "Socket transport (stagg serve --listen):\n"
     << "  --listen ADDR:PORT  serve over TCP instead of stdin: newline-\n"
     << "                      delimited v1 requests or v2 batch frames\n"
     << "                      (see README, \"Running as a network "
        "service\").\n"
     << "                      Port 0 picks a free port; the bound address\n"
     << "                      is printed as `listening on HOST:PORT`\n"
     << "  --max-conns N       concurrent connection cap; extra clients are\n"
     << "                      refused with an error event (default 64)\n"
     << "  --max-inflight N    per-connection fairness cap: reads pause\n"
     << "                      while a client has this many requests\n"
     << "                      admitted or queued (default 8)\n"
     << "  --idle-timeout S    close connections quiet for S seconds;\n"
     << "                      0 disables (default 300)\n"
     << "  --cache-file PATH   persist the result cache to an append-only\n"
     << "                      journal at PATH, reloaded on restart\n"
     << "  --max-execute-cells N  total tensor cells one v2 execute frame\n"
     << "                      may materialize (inputs + output); larger\n"
     << "                      requests answer a result error instead of\n"
     << "                      allocating. 0 disables (default 4194304)\n"
     << "\n"
     << "Benchmarking (stagg bench):\n"
     << "  --json PATH         write the versioned JSON report to PATH\n"
     << "  --min-time SECONDS  minimum measured time per micro benchmark\n"
     << "                      (default 0.1)\n"
     << "  --repeat N          measure each micro N times and report the\n"
     << "                      median, stabilizing the --min-speedup perf\n"
     << "                      gates (default 1)\n"
     << "\n"
     << "Linting (stagg check):\n"
     << "  [targets]           registry names and/or C files; default is\n"
     << "                      the --suite selection\n"
     << "  --format table|json human table (default) or one JSON report\n"
     << "  --Werror            warnings also fail the lint (exit 1)\n"
     << "\n"
     << "Execution and output:\n"
     << "  --threads N         worker pool width (default: hardware)\n"
     << "  --format F          table (default) | csv | tsv on stdout\n"
     << "  --csv PATH          also write per-benchmark rows to PATH\n"
     << "  --verbose, -v       one progress line per finished benchmark\n"
     << "  --help, -h          this text\n"
     << "\n"
     << "Examples:\n"
     << "  stagg --suite blas --limit 3\n"
     << "  stagg --suite real --search bu --threads 8 --csv results.csv\n"
     << "  stagg --suite all --drop-penalty a --equal-probability\n"
     << "  stagg serve --threads 4 --cache-stats < requests.txt\n"
     << "  stagg serve --listen 127.0.0.1:0 --cache-file lift-cache.jsonl\n"
     << "  stagg bench --suite real --threads 1 --json bench.json\n"
     << "  stagg list --suite pointer\n"
     << "  stagg check --suite all\n"
     << "  stagg check blas_gemv mykernel.c --Werror --format json\n"
     << "  stagg disasm blas_dot misc_sum2d\n"
     << "  stagg disasm --suite blas --no-vm-opt\n";
  return Os.str();
}

int driver::runDisasmCommand(const CliOptions &Options) {
  // Resolve the targets: explicit registry names, else the --suite
  // selection (only kernels whose ground truth lowers to VM code).
  std::vector<const bench::Benchmark *> Targets;
  if (Options.Targets.empty()) {
    std::string Error;
    Targets = selectSuite(Options.Suite, Options.Limit, Error);
    if (!Error.empty()) {
      std::cerr << "stagg: " << Error << "\n";
      return 2;
    }
  } else {
    for (const std::string &Name : Options.Targets) {
      const bench::Benchmark *B = bench::findBenchmark(Name);
      if (!B) {
        std::vector<std::string> Names;
        for (const bench::Benchmark &Known : bench::allBenchmarks())
          Names.push_back(Known.Name);
        std::cerr << "stagg: unknown benchmark '" << Name << "'";
        std::string Hint = closestMatch(Name, Names);
        if (!Hint.empty())
          std::cerr << " — did you mean '" << Hint << "'?";
        std::cerr << "\n";
        return 2;
      }
      Targets.push_back(B);
    }
  }

  // --no-vm-opt prints the raw compiler output; the default prints the
  // stream every consumer of a concrete program actually runs (optimized,
  // constants frozen).
  vm::OptimizeOptions OptOpts;
  OptOpts.FreezeConstants = true;
  for (const bench::Benchmark *B : Targets) {
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B->GroundTruth);
    std::cout << "== " << B->Name << ": " << B->GroundTruth << "\n";
    if (!GT.ok() || GT.Programs.empty()) {
      std::cout << "  <ground truth does not parse: " << GT.Error << ">\n";
      continue;
    }
    vm::Code Code = vm::compileStatements(GT.Programs);
    if (!Code.ok()) {
      std::cout << "  <does not lower to VM code: " << Code.error() << ">\n";
      continue;
    }
    if (Options.Config.UseVmOpt)
      Code = vm::optimize(Code, OptOpts);
    std::cout << vm::disassemble(Code);
  }
  return 0;
}

int driver::runListCommand(const CliOptions &Options) {
  std::string Error;
  std::vector<const bench::Benchmark *> Suite =
      selectSuite(Options.Suite, Options.Limit, Error);
  if (!Error.empty()) {
    std::cerr << "stagg: " << Error << "\n";
    return 2;
  }

  struct Row {
    const bench::Benchmark *B;
    std::string Class;
    std::string Vm;
  };
  std::vector<Row> Rows;
  std::map<std::string, int> PerClass;
  for (const bench::Benchmark *B : Suite) {
    cfront::CParseResult Parsed = cfront::parseCFunction(B->CSource);
    std::string Label = "unparseable";
    if (Parsed.ok()) {
      analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
      Label = analysis::kernelClassName(analysis::classifyKernel(Model));
    }
    // Does the ground-truth lifted program lower to vm::Code? "-" marks
    // programs the VM cannot take (the pipeline falls back to the
    // tree-walk for them, so this is informational, not an error).
    std::string Vm = "-";
    taco::ParseStatementsResult GT = taco::parseTacoStatements(B->GroundTruth);
    if (GT.ok() && !GT.Programs.empty() &&
        vm::compileStatements(GT.Programs).ok())
      Vm = "yes";
    ++PerClass[Label];
    Rows.push_back({B, std::move(Label), std::move(Vm)});
  }

  size_t NameW = 9, CatW = 5, ClassW = 5;
  for (const Row &R : Rows) {
    NameW = std::max(NameW, R.B->Name.size());
    CatW = std::max(CatW, R.B->Category.size());
    ClassW = std::max(ClassW, R.Class.size());
  }
  std::cout << std::left << std::setw(static_cast<int>(NameW) + 2)
            << "benchmark" << std::setw(static_cast<int>(CatW) + 2) << "suite"
            << std::setw(static_cast<int>(ClassW) + 2) << "class"
            << std::setw(5) << "vm"
            << "ground truth\n";
  for (const Row &R : Rows)
    std::cout << std::left << std::setw(static_cast<int>(NameW) + 2)
              << R.B->Name << std::setw(static_cast<int>(CatW) + 2)
              << R.B->Category << std::setw(static_cast<int>(ClassW) + 2)
              << R.Class << std::setw(5) << R.Vm << R.B->GroundTruth << "\n";

  std::cout << Rows.size() << " benchmarks (";
  bool First = true;
  for (const auto &[Label, Count] : PerClass) {
    if (!First)
      std::cout << ", ";
    First = false;
    std::cout << Count << " " << Label;
  }
  std::cout << ")\n";
  return 0;
}
