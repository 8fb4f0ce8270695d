//===- driver/Cli.h - stagg CLI flag parsing --------------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag parsing for the `stagg` pipeline driver. Every evaluation knob of
/// core::StaggConfig (search kind, grammar and penalty ablations,
/// verification bounds, per-query budget) is reachable from the command
/// line, plus execution controls that belong to the driver itself: which
/// suite to run, how many benchmarks, how many worker threads, and the
/// output format. Parsing is pure (no I/O, no exit) so the mapping is unit
/// testable.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_DRIVER_CLI_H
#define STAGG_DRIVER_CLI_H

#include "benchsuite/Benchmark.h"
#include "core/Stagg.h"

#include <string>
#include <vector>

namespace stagg {
namespace driver {

/// Output renderings of the results table. Json applies to `stagg check`
/// only (one machine-readable report object).
enum class OutputFormat { Table, Csv, Tsv, Json };

/// What this invocation does: a batch suite run (default), the persistent
/// request-serving loop (`stagg serve`), the performance-report run
/// (`stagg bench`), the registry listing with per-kernel ingestion-class
/// labels (`stagg list`), the static safety lint (`stagg check`), or the
/// VM bytecode listing (`stagg disasm`).
enum class DriverMode { Run, Serve, Bench, List, Check, Disasm };

/// Everything the driver needs for one invocation.
struct CliOptions {
  /// The pipeline configuration assembled from the ablation flags,
  /// including the serving-layer knobs in Config.Serve (--queue-depth,
  /// --cache-capacity, --cache-shards).
  core::StaggConfig Config;

  DriverMode Mode = DriverMode::Run;

  /// `stagg serve`: read newline-delimited requests from this file instead
  /// of stdin when non-empty.
  std::string InputPath;

  /// `stagg bench`: also write the versioned JSON report here when
  /// non-empty.
  std::string JsonPath;

  /// `stagg bench`: minimum measured wall time per micro benchmark.
  double BenchMinTime = 0.1;

  /// `stagg bench --repeat N`: independent measurement repetitions per
  /// micro benchmark; the reported time is the median of N, so the perf
  /// gates do not ride on a single timing sample. Default 1.
  int BenchRepeat = 1;

  /// Print cache counters to stderr after the run.
  bool ShowCacheStats = false;

  /// Suite selector: "all" (full registry), "paper" (the original 77),
  /// "real" (the paper's 67), or one category ("artificial", "blas",
  /// "darknet", "dsp", "misc", "llama", "pointer").
  std::string Suite = "real";

  /// Run only the first N benchmarks of the selection; < 0 means all.
  int Limit = -1;

  /// Worker-pool width; 0 means hardware concurrency.
  int Threads = 0;

  /// Seed of the simulated LLM oracle (one "GPT-4 session").
  uint64_t OracleSeed = 20250411;

  OutputFormat Format = OutputFormat::Table;

  /// Also write the per-benchmark rows to this CSV path when non-empty.
  std::string CsvPath;

  /// Print the selected benchmark names and exit.
  bool ListOnly = false;

  /// Print one line per finished benchmark while running.
  bool Verbose = false;

  /// `stagg check` / `stagg disasm`: positional targets — registry kernel
  /// names and/or (for check) paths to C source files (anything with a '/'
  /// or a ".c"/".h" suffix is read as a file). Empty means "the --suite
  /// selection".
  std::vector<std::string> Targets;

  /// `stagg check --Werror`: warnings also fail the lint (exit 1).
  bool CheckWerror = false;

  /// `stagg disasm --raw`: print the compiler output instead of the
  /// vm::optimize'd stream.
  bool DisasmRaw = false;

  bool ShowHelp = false;
};

/// Outcome of parsing an argument vector.
struct CliParse {
  CliOptions Options;

  /// Empty on success; a one-line diagnostic otherwise.
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Parses \p Args (argv[1..argc-1]). Accepts both `--flag value` and
/// `--flag=value` spellings.
CliParse parseArgs(const std::vector<std::string> &Args);

/// The --help text.
std::string usage();

/// Resolves a --suite selector against the benchmark registry, applying
/// \p Limit. Returns an empty vector and sets \p Error for unknown names.
std::vector<const bench::Benchmark *>
selectSuite(const std::string &Suite, int Limit, std::string &Error);

/// `stagg list`: prints the selected registry kernels with their suite tag
/// and ingestion-class label (subscript / pointer-walking / conditional /
/// multi-statement, from the kernel's analysis::KernelModel). Returns the
/// process exit code.
int runListCommand(const CliOptions &Options);

/// `stagg disasm`: prints the optimized (default) or raw (--raw) VM
/// instruction stream of each target's ground-truth lifted program, via
/// vm::disassemble. Returns the process exit code (0 ok, 2 bad target).
int runDisasmCommand(const CliOptions &Options);

/// Valid --suite values, for diagnostics and --help.
const std::vector<std::string> &knownSuites();

} // namespace driver
} // namespace stagg

#endif // STAGG_DRIVER_CLI_H
