//===- perfbench/src/LiftRegistry.cpp - The lift-registry workload --------===//
//
// An in-process closed loop on one thread: each pass lifts every registry
// kernel, in seed-shuffled order, through core::liftBenchmark under the
// default configuration and one SimulatedLlm, and checks each result
// against tests/expected_sweep.csv.
//
//===----------------------------------------------------------------------===//

#include "Reconstruct.h"
#include "Trace.h"
#include "Workloads.h"

#include "llm/SimulatedLlm.h"
#include "taco/Printer.h"

#include <iostream>

using namespace stagg;
using namespace perfbench;

namespace {

/// Timed passes per second of --seconds. The count is fixed per run;
/// calibrated so the timed loop takes about 80% of --seconds on a 4-core
/// 2.1 GHz Xeon VM, where one pass takes about 0.85 s.
constexpr double PassesPerSecond = 0.9;

/// Setups per run; setup_s is their median.
constexpr int SetupRepeats = 3;

std::string expectedPath(const Options &Opts) {
  return Opts.RepoRoot + "/tests/expected_sweep.csv";
}

/// Empty when \p Got matches the expected sweep row.
std::string checkRow(const ExpectedRow &Want, const core::LiftResult &Got) {
  std::string Detail =
      Got.Solved ? taco::printProgram(Got.Concrete) : Got.FailReason;
  if (Got.Solved != Want.Solved || Got.Attempts != Want.Attempts ||
      Got.Expansions != Want.Expansions || Detail != Want.Detail)
    return "got (" + std::to_string(Got.Solved) + ", " +
           std::to_string(Got.Attempts) + ", " +
           std::to_string(Got.Expansions) + ", " + Detail + "), expected (" +
           std::to_string(Want.Solved) + ", " +
           std::to_string(Want.Attempts) + ", " +
           std::to_string(Want.Expansions) + ", " + Want.Detail + ")";
  return "";
}

} // namespace

void perfbench::setEndToEnd(Report &R, double SetupS, double PeakRssMb,
                            double WallS, double CpuS,
                            const std::vector<double> &LatencyMs) {
  double Ops = static_cast<double>(R.Attempted);
  int Tail = tailPercentile(LatencyMs.size());
  R.set("setup_s", SetupS, "s");
  R.set("peak_rss_mb", PeakRssMb, "MB");
  R.set("ops_per_s", Ops / WallS, "1/s");
  R.set("op_p50_ms", median(LatencyMs), "ms");
  R.set("op_tail_ms", percentile(LatencyMs, Tail), "ms");
  R.set("cpu_ms_per_op", CpuS * 1e3 / Ops, "ms");
  R.Notes["op_tail_percentile"] = "p" + std::to_string(Tail);
  R.Notes["op_samples"] = std::to_string(LatencyMs.size());
}

Report perfbench::runLiftRegistry(const Options &Opts) {
  Report R;
  std::map<std::string, ExpectedRow> Expected =
      loadExpectedSweep(expectedPath(Opts));
  core::StaggConfig Config = benchConfig();
  llm::SimulatedLlm Oracle(OracleSeed);

  // Setup: registry construction plus one untimed, checked warm pass.
  std::vector<double> Setups;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point Start = Rep == 0 ? processStart() : Clock::now();
    for (const bench::Benchmark &B : bench::allBenchmarks()) {
      std::string Bad =
          checkRow(Expected.at(B.Name), core::liftBenchmark(B, Oracle, Config));
      if (!Bad.empty())
        throw FatalError{"warm-up lift of " + B.Name + ": " + Bad};
    }
    Setups.push_back(secondsSince(Start));
  }

  const std::vector<bench::Benchmark> &All = bench::allBenchmarks();
  int Passes = std::max(1, static_cast<int>(PassesPerSecond * Opts.Seconds));
  std::vector<double> LatencyMs;
  double Cpu0 = cpuSecondsSelf();
  Clock::time_point Start = Clock::now();
  for (int Pass = 0; Pass < Passes; ++Pass) {
    for (size_t Idx : seededPermutation(All.size(), Opts.Seed * 1000 + Pass)) {
      const bench::Benchmark &B = All[Idx];
      ++R.Attempted;
      Clock::time_point T0 = Clock::now();
      core::LiftResult Got = core::liftBenchmark(B, Oracle, Config);
      double Ms = secondsSince(T0) * 1e3;
      std::string Bad = checkRow(Expected.at(B.Name), Got);
      if (!Bad.empty()) {
        ++R.Failed;
        std::cerr << "perfbench: " << B.Name << ": " << Bad << "\n";
        continue;
      }
      LatencyMs.push_back(Ms);
    }
  }
  double Wall = secondsSince(Start);
  double Cpu = cpuSecondsSelf() - Cpu0;
  setEndToEnd(R, median(Setups), peakRssMb(), Wall, Cpu, LatencyMs);
  R.Notes["passes"] = std::to_string(Passes);
  return R;
}

void perfbench::traceLiftRegistry(const Options &Opts, Report &R) {
  std::map<std::string, ExpectedRow> Expected =
      loadExpectedSweep(expectedPath(Opts));
  core::StaggConfig Config = benchConfig();
  llm::SimulatedLlm Oracle(OracleSeed);
  const std::vector<bench::Benchmark> &All = bench::allBenchmarks();

  // One pass. Each kernel is lifted untraced through core::liftBenchmark,
  // then rebuilt under spans; the two must agree exactly.
  std::vector<double> UntracedMs, TracedMs;
  TracedLift Totals;
  int64_t Op = 0;
  for (size_t Idx : seededPermutation(All.size(), Opts.Seed * 1000)) {
    const bench::Benchmark &B = All[Idx];
    Clock::time_point T0 = Clock::now();
    core::LiftResult Plain = core::liftBenchmark(B, Oracle, Config);
    UntracedMs.push_back(secondsSince(T0) * 1e3);

    T0 = Clock::now();
    TracedLift T;
    {
      ScopedSpan S(spans::Op, Op);
      T = tracedLift(B, Oracle, Config, Op);
    }
    TracedMs.push_back(secondsSince(T0) * 1e3);
    ++Op;

    std::string Diff = compareLifts(T.Result, Plain);
    if (!Diff.empty())
      throw FatalError{"traced rebuild of " + B.Name +
                       " diverges from core::liftBenchmark: " + Diff};
    std::string Bad = checkRow(Expected.at(B.Name), Plain);
    if (!Bad.empty())
      throw FatalError{"lift of " + B.Name + ": " + Bad};
    Totals.Result.Attempts += T.Result.Attempts;
    Totals.Result.Expansions += T.Result.Expansions;
    Totals.ValidateCalls += T.ValidateCalls;
    Totals.Instantiations += T.Instantiations;
    Totals.VerifyCalls += T.VerifyCalls;
    Totals.Equivalent += T.Equivalent;
  }

  std::vector<Span> Spans = Tracer::instance().take();
  writeChromeTrace(Opts.WorkDir + "/trace-lift-registry.json", Spans);
  SpanIndex Index(Spans);
  auto PerOpMedianMs = [&](const char *Name) {
    std::vector<double> V;
    for (const auto &[OpId, Sec] : Index.perOp(Name))
      V.push_back(Sec * 1e3);
    return median(V);
  };
  R.set("cfront.parse_ms", PerOpMedianMs(spans::Parse), "ms");
  R.set("analysis.model_check_ms", PerOpMedianMs(spans::ModelCheck),
          "ms");
  R.set("llm.oracle_ms", PerOpMedianMs(spans::Oracle), "ms");
  R.set("grammar.build_ms", PerOpMedianMs(spans::Grammar), "ms");
  R.set("validate.examples_ms", PerOpMedianMs(spans::Examples), "ms");

  // Pass totals: the search's self time is enumeration (its children are
  // the probe's validator and verifier calls).
  R.set("search.enumerate_s", Index.selfTotal(spans::Search), "s");
  R.set("search.expansions",
          static_cast<double>(Totals.Result.Expansions), "count");
  R.set("search.attempts", static_cast<double>(Totals.Result.Attempts),
          "count");
  R.set("validate.probe_s",
          Index.total(spans::ValidatorInit) + Index.total(spans::Validate),
          "s");
  R.set("validate.calls", static_cast<double>(Totals.ValidateCalls),
          "count");
  R.set("validate.yield",
          static_cast<double>(Totals.Instantiations) /
              static_cast<double>(std::max<int64_t>(1, Totals.ValidateCalls)),
          "ratio");
  R.set("verify.verify_s", Index.total(spans::Verify), "s");
  R.set("verify.calls", static_cast<double>(Totals.VerifyCalls), "count");
  R.set("verify.equivalent_ratio",
          static_cast<double>(Totals.Equivalent) /
              static_cast<double>(std::max<int64_t>(1, Totals.VerifyCalls)),
          "ratio");

  R.set("trace.lift_unattributed_share",
          Index.selfTotal(spans::Op) / Index.total(spans::Op), "ratio");
  R.set("trace.lift_overhead_ms", median(TracedMs) - median(UntracedMs),
          "ms");
  R.Attempted += static_cast<int64_t>(All.size());
}
