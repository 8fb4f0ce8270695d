//===- driver/Main.cpp - stagg CLI entry point ----------------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Exit codes: 0 the run completed (individual benchmarks may still FAIL —
// that is a result, not an error), 1 an output file could not be written,
// 2 bad command line. `stagg serve` additionally distinguishes its request
// failures: 2 unknown registry name, 3 malformed JSON / protocol violation,
// 4 inline-kernel parse or ingestion failure, 5 static-checker refusal
// (driver/ServeCommand.h). `stagg check` returns 0 clean, 1 findings,
// 2 bad target (driver/CheckCommand.h).
//
//===----------------------------------------------------------------------===//

#include "driver/BenchCommand.h"
#include "driver/CheckCommand.h"
#include "driver/Cli.h"
#include "driver/ServeCommand.h"
#include "driver/SuiteRunner.h"

#include <iostream>
#include <vector>

using namespace stagg;

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  driver::CliParse Parse = driver::parseArgs(Args);
  if (!Parse.ok()) {
    std::cerr << "stagg: " << Parse.Error << "\n\n" << driver::usage();
    return 2;
  }
  const driver::CliOptions &Options = Parse.Options;
  if (Options.ShowHelp) {
    std::cout << driver::usage();
    return 0;
  }

  if (Options.Mode == driver::DriverMode::Serve)
    return driver::runServeCommand(Options);

  if (Options.Mode == driver::DriverMode::Bench)
    return driver::runBenchCommand(Options);

  if (Options.Mode == driver::DriverMode::List)
    return driver::runListCommand(Options);

  if (Options.Mode == driver::DriverMode::Check)
    return driver::runCheckCommand(Options);

  if (Options.Mode == driver::DriverMode::Disasm)
    return driver::runDisasmCommand(Options);

  std::string SuiteError;
  std::vector<const bench::Benchmark *> Suite =
      driver::selectSuite(Options.Suite, Options.Limit, SuiteError);
  if (!SuiteError.empty()) {
    std::cerr << "stagg: " << SuiteError << "\n";
    return 2;
  }

  if (Options.ListOnly) {
    for (const bench::Benchmark *B : Suite)
      std::cout << B->Name << "  (" << B->Category << ")\n";
    std::cout << Suite.size() << " benchmarks\n";
    return 0;
  }

  driver::SuiteReport Report =
      driver::runSuite(Suite, Options, &std::cerr);

  switch (Options.Format) {
  case driver::OutputFormat::Table:
    driver::printTable(std::cout, Report);
    break;
  case driver::OutputFormat::Csv:
    driver::printDelimited(std::cout, Report, ',');
    break;
  case driver::OutputFormat::Tsv:
    driver::printDelimited(std::cout, Report, '\t');
    break;
  case driver::OutputFormat::Json:
    // Unreachable: parseArgs rejects --format json outside `stagg check`.
    break;
  }

  if (Options.ShowCacheStats)
    driver::printServeStats(std::cerr, Report.Cache);

  if (!Options.CsvPath.empty() &&
      !driver::writeCsv(Options.CsvPath, Report)) {
    std::cerr << "stagg: cannot write '" << Options.CsvPath << "'\n";
    return 1;
  }
  return 0;
}
