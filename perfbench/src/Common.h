//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the command line, the
/// report (metrics, attempted/failed ops, provenance), order statistics,
/// process accounting read from /proc and getrusage, and the expected
/// registry sweep (tests/expected_sweep.csv) every lift is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The perfbench command line plus the paths run.py resolves.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  std::string RepoRoot = ".";  ///< Checkout root (expected sweep lives here).
  std::string StaggBin;        ///< The `stagg` binary under test.
  std::string WorkDir;         ///< Scratch space inside the build tree.
  std::string SourceDigest;    ///< Content hash of the sources, from run.py.
  std::string GitCommit;       ///< HEAD when the checkout is a repository.
};

/// The process-start time point, taken before main's first statement.
Clock::time_point processStart();

/// One metric as printed: value and unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// A workload's result: the last stdout line of the run.
struct Report {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Extra facts printed on the provenance line (not metrics).
  std::map<std::string, std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
};

/// Prints the provenance line and then the result line, which is the last
/// line of stdout.
void printReport(const Options &Opts, const Report &R);

/// Order statistics over a copy of \p Values (empty input yields 0).
double median(std::vector<double> Values);
double percentile(std::vector<double> Values, double P);

/// The highest whole percentile that leaves at least ten samples beyond
/// it, for \p N samples (the op_tail_ms percentile).
int tailPercentile(size_t N);

/// Restricts this process, and so every thread and child it starts later
/// (the `stagg serve` under test included), to the last CPU it may run on;
/// returns that CPU, or -1 when the affinity cannot be read or set.
///
/// On a shared VM host, an idle virtual CPU that must be woken adds a delay
/// that depends on the host's load. Client and server ping-ponging across
/// CPUs pay it on every op, which made the serve timings move by 25-45%
/// between runs. On one CPU someone is always runnable, so no CPU idles
/// during the timed loop and the spread fell to 5-14% in A/B runs.
int pinToOneCpu();

/// Resident-set high-water mark of \p Pid (0 = this process), in MB.
double peakRssMb(pid_t Pid = 0);

/// User+system CPU seconds of this process (getrusage) or of \p Pid
/// (/proc/<pid>/stat, all threads).
double cpuSecondsSelf();
double cpuSecondsOf(pid_t Pid);

/// One row of tests/expected_sweep.csv.
struct ExpectedRow {
  bool Solved = false;
  int Attempts = 0;
  int64_t Expansions = 0;
  std::string Detail; ///< The lifted program, or the failure reason.
};

/// Loads the expected sweep; throws std::runtime_error when unreadable.
std::map<std::string, ExpectedRow> loadExpectedSweep(const std::string &Path);

/// Fisher-Yates permutation of [0, N) driven by \p Seed.
std::vector<size_t> seededPermutation(size_t N, uint64_t Seed);

/// Thrown for conditions that make a run meaningless (a broken setup, a
/// trace that does not reproduce the pipeline): the run exits non-zero
/// without a result line.
struct FatalError {
  std::string Message;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
