//===- tests/DriverTest.cpp - stagg CLI and suite runner ------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Covers the flag -> core::StaggConfig mapping, suite selection, error
// diagnostics, the results-table renderers, a miniature parallel run
// checked for schedule independence (2 threads == 1 thread, bit for bit),
// and the stdin serve session's answers to lines that are not requests.
//
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"
#include "driver/ServeCommand.h"
#include "driver/SuiteRunner.h"

#include "taco/Printer.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace stagg;
using namespace stagg::driver;

namespace {

CliParse parse(std::initializer_list<std::string> Args) {
  return parseArgs(std::vector<std::string>(Args));
}

//===----------------------------------------------------------------------===//
// Defaults and the flag -> config mapping
//===----------------------------------------------------------------------===//

TEST(DriverCli, DefaultsMatchStaggConfig) {
  CliParse P = parse({});
  ASSERT_TRUE(P.ok()) << P.Error;

  core::StaggConfig Reference;
  EXPECT_EQ(P.Options.Suite, "real");
  EXPECT_EQ(P.Options.Limit, -1);
  EXPECT_EQ(P.Options.Threads, 0);
  EXPECT_FALSE(P.Options.Verbose);
  EXPECT_FALSE(P.Options.ListOnly);
  EXPECT_FALSE(P.Options.ShowHelp);
  EXPECT_EQ(P.Options.Format, OutputFormat::Table);

  EXPECT_EQ(P.Options.Config.Kind, Reference.Kind);
  EXPECT_EQ(P.Options.Config.NumCandidates, Reference.NumCandidates);
  EXPECT_EQ(P.Options.Config.NumIoExamples, Reference.NumIoExamples);
  EXPECT_EQ(P.Options.Config.SkipVerification, Reference.SkipVerification);
  EXPECT_EQ(P.Options.Config.Search.MaxDepth, Reference.Search.MaxDepth);
  EXPECT_EQ(P.Options.Config.Verify.MaxSize, Reference.Verify.MaxSize);
}

TEST(DriverCli, SearchKindMapping) {
  CliParse P = parse({"--search", "bu"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Config.Kind, core::SearchKind::BottomUp);

  P = parse({"--search=top-down"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Config.Kind, core::SearchKind::TopDown);

  EXPECT_FALSE(parse({"--search", "sideways"}).ok());
}

TEST(DriverCli, PipelineKnobsReachConfig) {
  CliParse P = parse({"--candidates", "25", "--io-examples=5", "--max-depth",
                      "4", "--max-size", "3", "--timeout", "0.5", "--seed",
                      "7", "--example-seed=11"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Config.NumCandidates, 25);
  EXPECT_EQ(P.Options.Config.NumIoExamples, 5);
  EXPECT_EQ(P.Options.Config.Search.MaxDepth, 4);
  EXPECT_EQ(P.Options.Config.Verify.MaxSize, 3);
  EXPECT_DOUBLE_EQ(P.Options.Config.Search.TimeoutSeconds, 0.5);
  EXPECT_EQ(P.Options.OracleSeed, 7u);
  EXPECT_EQ(P.Options.Config.ExampleSeed, 11u);
}

TEST(DriverCli, AblationFlags) {
  CliParse P = parse({"--no-verify", "--full-grammar", "--equal-probability"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_TRUE(P.Options.Config.SkipVerification);
  EXPECT_TRUE(P.Options.Config.Grammar.FullGrammar);
  EXPECT_TRUE(P.Options.Config.Grammar.EqualProbability);
}

TEST(DriverCli, DropPenaltySelectors) {
  CliParse P = parse({"--drop-penalty", "a2", "--drop-penalty=b1"});
  ASSERT_TRUE(P.ok()) << P.Error;
  const search::SearchConfig &S = P.Options.Config.Search;
  EXPECT_TRUE(S.PenaltyA1);
  EXPECT_FALSE(S.PenaltyA2);
  EXPECT_TRUE(S.PenaltyA3);
  EXPECT_FALSE(S.PenaltyB1);
  EXPECT_TRUE(S.PenaltyB2);

  P = parse({"--drop-penalty", "a"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_FALSE(P.Options.Config.Search.PenaltyA1);
  EXPECT_FALSE(P.Options.Config.Search.PenaltyA5);
  EXPECT_TRUE(P.Options.Config.Search.PenaltyB1);

  P = parse({"--drop-penalty", "all"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_FALSE(P.Options.Config.Search.PenaltyA1);
  EXPECT_FALSE(P.Options.Config.Search.PenaltyB2);

  EXPECT_FALSE(parse({"--drop-penalty", "c9"}).ok());
}

TEST(DriverCli, ExecutionAndOutputFlags) {
  CliParse P = parse({"--suite", "blas", "--limit", "3", "--threads=2",
                      "--format", "tsv", "--csv", "/tmp/out.csv", "-v"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Suite, "blas");
  EXPECT_EQ(P.Options.Limit, 3);
  EXPECT_EQ(P.Options.Threads, 2);
  EXPECT_EQ(P.Options.Format, OutputFormat::Tsv);
  EXPECT_EQ(P.Options.CsvPath, "/tmp/out.csv");
  EXPECT_TRUE(P.Options.Verbose);
}

TEST(DriverCli, ServeModeAndServingKnobs) {
  CliParse P = parse({"serve", "--queue-depth", "16", "--cache-capacity",
                      "32", "--cache-shards=2", "--cache-stats", "--input",
                      "/tmp/requests.txt"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Mode, DriverMode::Serve);
  EXPECT_EQ(P.Options.Config.Serve.QueueDepth, 16);
  EXPECT_EQ(P.Options.Config.Serve.CacheCapacity, 32u);
  EXPECT_EQ(P.Options.Config.Serve.CacheShards, 2);
  EXPECT_TRUE(P.Options.ShowCacheStats);
  EXPECT_EQ(P.Options.InputPath, "/tmp/requests.txt");

  // Defaults leave batch-mode execution untouched.
  P = parse({});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Mode, DriverMode::Run);
  core::ServeOptions Reference;
  EXPECT_EQ(P.Options.Config.Serve.QueueDepth, Reference.QueueDepth);
  EXPECT_EQ(P.Options.Config.Serve.CacheCapacity, Reference.CacheCapacity);

  // Zero means "off" for the cache, but the structural knobs reject it.
  EXPECT_TRUE(parse({"--cache-capacity", "0"}).ok());
  EXPECT_FALSE(parse({"--queue-depth", "0"}).ok());
  EXPECT_FALSE(parse({"--cache-shards", "0"}).ok());
  EXPECT_FALSE(parse({"--queue-depth", "-1"}).ok());

  // --input without the serve subcommand would silently run the default
  // suite; reject it instead.
  P = parse({"--input", "/tmp/requests.txt"});
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("serve"), std::string::npos) << P.Error;

  // And the mirror image: batch-only flags are meaningless under `serve`
  // (requests come from the input stream), so ignoring them would lie.
  EXPECT_FALSE(parse({"serve", "--suite", "blas"}).ok());
  EXPECT_FALSE(parse({"serve", "--limit", "3"}).ok());
  EXPECT_FALSE(parse({"serve", "--csv", "/tmp/out.csv"}).ok());
  EXPECT_FALSE(parse({"serve", "--format", "csv"}).ok());
  EXPECT_FALSE(parse({"serve", "--list"}).ok());
  P = parse({"serve", "--csv", "/tmp/out.csv"});
  EXPECT_NE(P.Error.find("--csv"), std::string::npos) << P.Error;
  // Shared flags stay valid in both modes.
  EXPECT_TRUE(parse({"serve", "--threads", "2", "--seed", "3"}).ok());
  EXPECT_TRUE(parse({"serve", "--help"}).ok());
}

TEST(DriverCli, BenchRepeatKnob) {
  // Default: a single bench measurement.
  CliParse P = parse({});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.BenchRepeat, 1);

  P = parse({"bench", "--repeat", "5"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.BenchRepeat, 5);
  EXPECT_FALSE(parse({"bench", "--repeat", "0"}).ok());
  EXPECT_FALSE(parse({"bench", "--repeat", "1001"}).ok());
  EXPECT_FALSE(parse({"bench", "--repeat", "median"}).ok());
  // Bench-only: a repeat count is meaningless for a suite run.
  EXPECT_FALSE(parse({"--repeat", "3"}).ok());
}

TEST(DriverCli, DisasmSubcommand) {
  CliParse P = parse({"disasm", "blas_dot", "misc_sum2d"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Mode, DriverMode::Disasm);
  ASSERT_EQ(P.Options.Targets.size(), 2u);
  EXPECT_EQ(P.Options.Targets[0], "blas_dot");
  EXPECT_EQ(P.Options.Targets[1], "misc_sum2d");

  EXPECT_FALSE(P.Options.DisasmRaw);

  // Suite selection and the raw-stream toggle stay valid...
  P = parse({"disasm", "--suite", "blas", "--raw"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Options.Suite, "blas");
  EXPECT_TRUE(P.Options.DisasmRaw);
  EXPECT_FALSE(parse({"disasm", "--raw=1"}).ok()); // boolean, no value
  // ...batch-table output flags do not, and --raw is disasm-only.
  EXPECT_FALSE(parse({"disasm", "--csv", "/tmp/out.csv"}).ok());
  P = parse({"--raw"});
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("only applies to `stagg disasm`"), std::string::npos)
      << P.Error;
}

TEST(DriverCli, UnknownFlagSuggestsNearestSpelling) {
  // A typo close to a real flag gets a "did you mean" hint...
  CliParse P = parse({"--thread", "2"});
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("did you mean '--threads'"), std::string::npos)
      << P.Error;

  P = parse({"--cach-stats"});
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("did you mean '--cache-stats'"), std::string::npos)
      << P.Error;

  // ...gibberish does not.
  P = parse({"--zzzzqqqq"});
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.Error.find("did you mean"), std::string::npos) << P.Error;

  // Unknown subcommands are errors too, with the same courtesy.
  P = parse({"srve"});
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("did you mean 'serve'"), std::string::npos)
      << P.Error;
  EXPECT_FALSE(parse({"frobnicate"}).ok());
}

TEST(DriverCli, DeletedFlagsAreUnknown) {
  // No oracle batching, no in-lift search threads and no second evaluator
  // exist, so these spellings must fail like any other unknown flag.
  for (const char *Flag : {"--batch", "--batch-wait-us", "--search-threads",
                           "--no-vm", "--no-vm-opt"}) {
    CliParse P = parse({"serve", Flag, "2"});
    ASSERT_FALSE(P.ok()) << Flag;
    EXPECT_NE(P.Error.find(std::string("unknown flag '") + Flag + "'"),
              std::string::npos)
        << P.Error;
  }
}

TEST(DriverCli, Diagnostics) {
  EXPECT_FALSE(parse({"--no-such-flag"}).ok());
  EXPECT_FALSE(parse({"--suite"}).ok());          // missing value
  EXPECT_FALSE(parse({"--suite", "fortran"}).ok());
  EXPECT_FALSE(parse({"--limit", "many"}).ok());
  EXPECT_FALSE(parse({"--threads", "-3"}).ok());
  EXPECT_FALSE(parse({"--threads", "0"}).ok());   // 0 only via default
  EXPECT_FALSE(parse({"--timeout", "0"}).ok());
  EXPECT_FALSE(parse({"--timeout", "nan"}).ok());
  EXPECT_FALSE(parse({"--timeout", "inf"}).ok());
  EXPECT_FALSE(parse({"--format", "xml"}).ok());
  // Boolean flags take no value; silently ignoring one would invert intent.
  EXPECT_FALSE(parse({"--verbose=0"}).ok());
  EXPECT_FALSE(parse({"--list=false"}).ok());
  // int-sized knobs must reject values that would truncate.
  EXPECT_FALSE(parse({"--candidates", "4294967296"}).ok());
  EXPECT_FALSE(parse({"--limit", "4294967296"}).ok());

  CliParse P = parse({"--suite", "fortran"});
  EXPECT_NE(P.Error.find("fortran"), std::string::npos);
}

TEST(DriverCli, HelpAndUsage) {
  CliParse P = parse({"--help"});
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_TRUE(P.Options.ShowHelp);

  std::string Text = usage();
  for (const std::string &Suite : knownSuites())
    EXPECT_NE(Text.find(Suite), std::string::npos) << Suite;
  EXPECT_NE(Text.find("--drop-penalty"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Suite selection
//===----------------------------------------------------------------------===//

TEST(DriverSuite, SelectionSizes) {
  std::string Error;
  EXPECT_EQ(selectSuite("all", -1, Error).size(), 87u) << Error;
  EXPECT_EQ(selectSuite("paper", -1, Error).size(), 77u) << Error;
  EXPECT_EQ(selectSuite("real", -1, Error).size(), 67u) << Error;
  EXPECT_EQ(selectSuite("artificial", -1, Error).size(), 10u) << Error;
  EXPECT_GE(selectSuite("pointer", -1, Error).size(), 8u) << Error;
  EXPECT_TRUE(Error.empty()) << Error;

  size_t Categorized = 0;
  for (const char *Category : {"blas", "darknet", "dsp", "misc", "llama"})
    Categorized += selectSuite(Category, -1, Error).size();
  EXPECT_EQ(Categorized, 67u);
}

TEST(DriverSuite, LimitAndOrderStable) {
  std::string Error;
  std::vector<const bench::Benchmark *> All = selectSuite("blas", -1, Error);
  std::vector<const bench::Benchmark *> Three = selectSuite("blas", 3, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Three.size(), 3u);
  for (size_t I = 0; I < Three.size(); ++I) {
    EXPECT_EQ(Three[I], All[I]);
    EXPECT_EQ(Three[I]->Category, "blas");
  }
}

TEST(DriverSuite, UnknownSuiteReportsError) {
  std::string Error;
  EXPECT_TRUE(selectSuite("cobol", -1, Error).empty());
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Suite runner
//===----------------------------------------------------------------------===//

CliOptions miniRunOptions(int Threads) {
  // Small artificial kernels lift in milliseconds; keep the budget tight so
  // the suite stays fast even under load.
  CliParse P = parse({"--suite", "artificial", "--limit", "2", "--timeout",
                      "2", "--threads", std::to_string(Threads)});
  EXPECT_TRUE(P.ok()) << P.Error;
  return P.Options;
}

TEST(DriverRunner, RunsSelectionInOrder) {
  CliOptions Options = miniRunOptions(1);
  std::string Error;
  std::vector<const bench::Benchmark *> Suite =
      selectSuite(Options.Suite, Options.Limit, Error);
  ASSERT_TRUE(Error.empty()) << Error;

  SuiteReport Report = runSuite(Suite, Options, nullptr);
  ASSERT_EQ(Report.Rows.size(), Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    EXPECT_EQ(Report.Rows[I].Benchmark, Suite[I]->Name);
    EXPECT_EQ(Report.Rows[I].Category, "artificial");
    EXPECT_GE(Report.Rows[I].Result.Seconds, 0.0);
  }
  EXPECT_GT(Report.WallSeconds, 0.0);
  EXPECT_GE(Report.solvedCount(), 1); // easy artificial kernels lift
}

TEST(DriverRunner, ParallelMatchesSequential) {
  std::string Error;
  CliOptions Sequential = miniRunOptions(1);
  std::vector<const bench::Benchmark *> Suite =
      selectSuite(Sequential.Suite, Sequential.Limit, Error);
  ASSERT_TRUE(Error.empty()) << Error;

  SuiteReport One = runSuite(Suite, Sequential, nullptr);
  SuiteReport Two = runSuite(Suite, miniRunOptions(2), nullptr);
  ASSERT_EQ(One.Rows.size(), Two.Rows.size());
  for (size_t I = 0; I < One.Rows.size(); ++I) {
    EXPECT_EQ(One.Rows[I].Result.Solved, Two.Rows[I].Result.Solved)
        << One.Rows[I].Benchmark;
    EXPECT_EQ(One.Rows[I].Result.Attempts, Two.Rows[I].Result.Attempts)
        << One.Rows[I].Benchmark;
    EXPECT_EQ(taco::printProgram(One.Rows[I].Result.Concrete),
              taco::printProgram(Two.Rows[I].Result.Concrete))
        << One.Rows[I].Benchmark;
  }
}

TEST(DriverRunner, ReportRenderers) {
  SuiteReport Report;
  Report.Threads = 1;
  Report.WallSeconds = 0.5;
  RunRow Row;
  Row.Benchmark = "mini";
  Row.Category = "artificial";
  Row.Result.Solved = false;
  Row.Result.FailReason = "a, \"quoted\" reason";
  Row.Result.Seconds = 0.25;
  Report.Rows.push_back(Row);

  std::ostringstream Table;
  printTable(Table, Report);
  EXPECT_NE(Table.str().find("mini"), std::string::npos);
  EXPECT_NE(Table.str().find("FAIL"), std::string::npos);
  EXPECT_NE(Table.str().find("solved 0/1"), std::string::npos);

  std::ostringstream Csv;
  printDelimited(Csv, Report, ',');
  EXPECT_NE(Csv.str().find("benchmark,category,solved"), std::string::npos);
  // The comma-bearing reason must come out quoted with doubled quotes.
  EXPECT_NE(Csv.str().find("\"a, \"\"quoted\"\" reason\""),
            std::string::npos);

  std::ostringstream Tsv;
  printDelimited(Tsv, Report, '\t');
  EXPECT_NE(Tsv.str().find("benchmark\tcategory"), std::string::npos);
}

TEST(DriverRunner, SummaryStatistics) {
  SuiteReport Report;
  for (int I = 0; I < 4; ++I) {
    RunRow Row;
    Row.Benchmark = "b" + std::to_string(I);
    Row.Result.Solved = I < 2;
    Row.Result.Seconds = 1.0 + I;
    Row.Result.Attempts = 10 * (I + 1);
    Report.Rows.push_back(Row);
  }
  EXPECT_EQ(Report.solvedCount(), 2);
  EXPECT_DOUBLE_EQ(Report.solvedPercent(), 50.0);
  EXPECT_DOUBLE_EQ(Report.avgSecondsSolved(), 1.5);  // (1 + 2) / 2
  EXPECT_DOUBLE_EQ(Report.avgAttemptsSolved(), 15.0); // (10 + 20) / 2
}

//===----------------------------------------------------------------------===//
// The stdin serve session
//===----------------------------------------------------------------------===//

TEST(DriverServe, RemovedDialectAndKeysAnswerBadRequestThenServe) {
  CliParse P = parse({"serve", "--threads", "1"});
  ASSERT_TRUE(P.ok()) << P.Error;
  std::istringstream In(
      "art_copy\n"
      "{\"v\":1,\"name\":\"art_copy\",\"config\":{\"use_vm\":false}}\n"
      "{\"v\":1,\"name\":\"art_copy\",\"config\":{\"use_vm_opt\":false}}\n"
      "{\"v\":1,\"name\":\"art_copy\",\"config\":{\"search_threads\":2}}\n"
      "{\"v\":1,\"name\":\"art_copy\"}\n");
  std::ostringstream Out, Err;
  EXPECT_EQ(runServeLoop(P.Options, In, Out, Err), ServeExitBadRequest);

  std::istringstream Lines(Out.str());
  std::string Line;
  std::vector<std::string> Got;
  while (std::getline(Lines, Line))
    Got.push_back(Line);
  ASSERT_EQ(Got.size(), 5u) << Out.str();
  EXPECT_EQ(Got[0].find("{\"v\":1,\"status\":\"bad_request\""), 0u) << Got[0];
  const char *Keys[] = {"use_vm", "use_vm_opt", "search_threads"};
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(Got[I + 1], std::string("{\"v\":1,\"status\":\"bad_request\","
                                      "\"error\":\"unknown config key \\\"") +
                              Keys[I] + "\\\"\"}");
  EXPECT_NE(Got[4].find("\"solved\":true"), std::string::npos) << Got[4];
}

TEST(DriverServe, OutOfRangeLiteralsAnswerParseErrorThenServe) {
  CliParse P = parse({"serve", "--threads", "1"});
  ASSERT_TRUE(P.ok()) << P.Error;
  const char *Literals[] = {"99999999999999999999", "1.99999999999999999999",
                            "0.0000000000000000001"};
  std::string Input;
  for (const char *Literal : Literals)
    Input += std::string("{\"v\":1,\"kernel\":\"void k(int N, float* out) "
                         "{ for (int i = 0; i < N; i++) out[i] = ") +
             Literal + "; }\"}\n";
  // A TACO oracle hint with such a literal is refused too.
  Input += "{\"v\":1,\"kernel\":\"void k(int N, float* x, float* out) { for "
           "(int i = 0; i < N; i++) out[i] = x[i]; }\",\"oracle_hint\":"
           "\"out(i) = 99999999999999999999 * x(i)\"}\n";
  Input += "{\"v\":1,\"name\":\"art_copy\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out, Err;
  runServeLoop(P.Options, In, Out, Err);

  std::istringstream Lines(Out.str());
  std::string Line;
  std::vector<std::string> Got;
  while (std::getline(Lines, Line))
    Got.push_back(Line);
  ASSERT_EQ(Got.size(), 5u) << Out.str();
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(Got[I], std::string("{\"v\":1,\"status\":\"c_parse_error\","
                                  "\"name\":\"inline\",\"error\":\"C parse error: "
                                  "numeric literal '") +
                          Literals[I] +
                          "' is out of range (line 1, column 66)\"}");
  EXPECT_EQ(Got[3], "{\"v\":1,\"status\":\"ingest_error\",\"name\":\"inline\","
                    "\"error\":\"oracle_hint is not a TACO program: expected "
                    "identifier at offset 9\"}");
  EXPECT_NE(Got[4].find("\"solved\":true"), std::string::npos) << Got[4];
}

} // namespace
