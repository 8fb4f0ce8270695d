//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           --repo-root DIR --stagg BIN --work-dir DIR
//           [--source-digest HEX] [--git-commit SHA]
//
// Runs one workload. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it replays the workloads under spans and prints the per-layer
// metrics. The last stdout line is the result object; a run that cannot
// produce a meaningful result exits non-zero without one.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <iostream>
#include <map>
#include <stdexcept>
#include <sys/stat.h>

using namespace perfbench;

namespace {

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      throw FatalError{"flag " + Flag + " needs a value"};
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      O.Seconds = std::stoi(Value);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--repo-root")
      O.RepoRoot = Value;
    else if (Flag == "--stagg")
      O.StaggBin = Value;
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else if (Flag == "--source-digest")
      O.SourceDigest = Value;
    else if (Flag == "--git-commit")
      O.GitCommit = Value;
    else
      throw FatalError{"unknown flag " + Flag};
  }
  if (O.Seconds < 1)
    throw FatalError{"--seconds must be at least 1"};
  if (O.StaggBin.empty() || O.WorkDir.empty())
    throw FatalError{"--stagg and --work-dir are required"};
  mkdir(O.WorkDir.c_str(), 0755);
  return O;
}

Report run(const Options &O) {
  using RunFn = Report (*)(const Options &);
  using TraceFn = void (*)(const Options &, Report &);
  const std::map<std::string, std::pair<RunFn, TraceFn>> Workloads = {
      {"lift-registry", {runLiftRegistry, traceLiftRegistry}},
      {"serve-ingest", {runServeIngest, traceServeIngest}},
      {"serve-execute", {runServeExecute, traceServeExecute}}};
  auto It = Workloads.find(O.Workload);
  if (It == Workloads.end())
    throw FatalError{"unknown workload '" + O.Workload + "'"};
  if (!O.Trace)
    return It->second.first(O);
  // Every per-layer metric is owned by one replay, so a traced run replays
  // all three workloads whichever one was named.
  Report R;
  for (const auto &[Name, Fns] : Workloads)
    Fns.second(O, R);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    Options O = parseArgs(Argc, Argv);
    int Cpu = pinToOneCpu();
    Report R = run(O);
    R.Notes["pinned_cpu"] = std::to_string(Cpu);
    printReport(O, R);
    return 0;
  } catch (const FatalError &E) {
    std::cerr << "perfbench: " << E.Message << "\n";
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
  }
  return 2;
}
