//===- driver/BenchCommand.h - stagg bench subcommand -----------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `stagg bench` subcommand: the performance surface of the lift
/// pipeline as one machine-readable artifact. Two layers run back to back:
///
///  * *Micro benchmarks* over the hot primitives (TACO parsing, einsum
///    evaluation, the mini-C interpreter, grammar construction, search
///    enumeration, validator substitution enumeration, and the bounded
///    verifier with and without its reference cache), driven by a
///    self-contained adaptive harness.
///  * An *end-to-end lift-latency sweep* over a named benchmark suite
///    (--suite/--limit), reporting per-benchmark lift wall time and the
///    total.
///
/// Results print as an aligned table on stdout; `--json PATH` additionally
/// writes the versioned report consumed by scripts/bench_compare.py and the
/// CI perf job (see README, "stagg bench"):
///
///   { "schema": "stagg-bench", "version": 1,
///     "config_fingerprint": "...", "suite": "real", "threads": N,
///     "host": { "hardware_concurrency": 4, "compiler_id": "GNU",
///               "compiler_version": "12.2.0", "build_type": "Release" },
///     "benchmarks": [ { "name": "micro/taco_parse",
///                       "wall_seconds": 0.1, "iterations": 123456,
///                       "per_iter_seconds": 8.1e-7 }, ... ] }
///
/// Lift entries are named "lift/<benchmark>" with iterations = 1 and a
/// "solved" flag; "lift/_total" carries the sweep's wall clock.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_DRIVER_BENCHCOMMAND_H
#define STAGG_DRIVER_BENCHCOMMAND_H

#include "driver/Cli.h"

#include <iosfwd>

namespace stagg {
namespace driver {

/// One measured benchmark (micro or end-to-end).
struct BenchEntry {
  std::string Name;
  double WallSeconds = 0;
  int64_t Iterations = 0;

  /// Lift entries only: whether the lift succeeded (-1 = not a lift).
  int Solved = -1;

  double perIterSeconds() const {
    return Iterations > 0 ? WallSeconds / static_cast<double>(Iterations) : 0;
  }
};

/// The whole report.
struct BenchReport {
  std::vector<BenchEntry> Entries;
  std::string ConfigFingerprint;
  std::string Suite;
  int Threads = 1;
};

/// Runs the micro suite plus the lift sweep under \p Options. Progress
/// lines go to \p Progress (nullptr for silence).
BenchReport runBench(const CliOptions &Options, std::ostream *Progress);

/// Renders the aligned human-readable table.
void printBenchTable(std::ostream &Os, const BenchReport &Report);

/// Serializes the versioned JSON report (schema above, single line).
std::string benchReportJson(const BenchReport &Report);

/// Entry point used by Main: runs, prints the table, writes --json when
/// requested. Returns 0, or 1 when the JSON file cannot be written.
int runBenchCommand(const CliOptions &Options);

} // namespace driver
} // namespace stagg

#endif // STAGG_DRIVER_BENCHCOMMAND_H
