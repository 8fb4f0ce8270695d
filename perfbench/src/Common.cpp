//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sched.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using stagg::support::Json;

namespace {
// Initialized during static construction, i.e. before main runs.
const Clock::time_point StartPoint = Clock::now();

std::string numberText(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}
} // namespace

Clock::time_point perfbench::processStart() { return StartPoint; }

void perfbench::printReport(const Options &Opts, const Report &R) {
  Json Prov = Json::object();
  Prov.set("workload", Json::str(Opts.Workload));
  Prov.set("seed", Json::integer(static_cast<int64_t>(Opts.Seed)));
  Prov.set("seconds", Json::integer(Opts.Seconds));
  Prov.set("trace", Json::boolean(Opts.Trace));
  Prov.set("git_commit", Json::str(Opts.GitCommit));
  Prov.set("source_digest", Json::str(Opts.SourceDigest));
  Prov.set("nproc", Json::integer(std::thread::hardware_concurrency()));
  Prov.set("compiler", Json::str(PERFBENCH_COMPILER));
  Prov.set("build_type", Json::str(PERFBENCH_BUILD_TYPE));
  for (const auto &[Key, Value] : R.Notes)
    Prov.set(Key, Json::str(Value));
  std::cout << "{\"provenance\":" << Prov.dump() << "}\n";

  std::string Line = "{\"correct\": ";
  Line += R.Failed == 0 ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    if (!First)
      Line += ", ";
    First = false;
    Line += Json::str(Name).dump() + ": {\"value\": " + numberText(M.Value) +
            ", \"unit\": " + Json::str(M.Unit).dump() + "}";
  }
  Line += "}}";
  std::cout << Line << std::endl;
}

double perfbench::median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  // Linear interpolation between closest ranks.
  double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

int perfbench::tailPercentile(size_t N) {
  for (int P = 99; P > 50; --P)
    if (static_cast<double>(N) * (100 - P) / 100.0 >= 10.0)
      return P;
  return 50;
}

int perfbench::pinToOneCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return -1;
  int Last = -1;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Last = C;
  if (Last < 0)
    return -1;
  CPU_ZERO(&Set);
  CPU_SET(Last, &Set);
  return sched_setaffinity(0, sizeof Set, &Set) == 0 ? Last : -1;
}

double perfbench::peakRssMb(pid_t Pid) {
  std::string Path = Pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(Pid) + "/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB -> MB
  throw FatalError{"cannot read VmHWM from " + Path};
}

double perfbench::cpuSecondsSelf() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::cpuSecondsOf(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    throw FatalError{"cannot read /proc/" + std::to_string(Pid) + "/stat"};
  std::istringstream Rest(Text.substr(Close + 2));
  std::string Field;
  double Ticks = 0;
  for (int I = 3; I <= 15 && Rest >> Field; ++I)
    if (I >= 14)
      Ticks += std::stod(Field);
  return Ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {
/// Splits one CSV line, honouring double-quoted fields.
std::vector<std::string> splitCsv(const std::string &Line) {
  std::vector<std::string> Out(1);
  bool Quoted = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (Quoted) {
      if (C == '"' && I + 1 < Line.size() && Line[I + 1] == '"') {
        Out.back() += '"';
        ++I;
      } else if (C == '"') {
        Quoted = false;
      } else {
        Out.back() += C;
      }
    } else if (C == '"') {
      Quoted = true;
    } else if (C == ',') {
      Out.emplace_back();
    } else {
      Out.back() += C;
    }
  }
  return Out;
}
} // namespace

std::map<std::string, ExpectedRow>
perfbench::loadExpectedSweep(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw FatalError{"cannot read the expected sweep " + Path};
  std::map<std::string, ExpectedRow> Rows;
  std::string Line;
  std::getline(In, Line); // header
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r') // the file has CRLF endings
      Line.pop_back();
    if (Line.empty())
      continue;
    std::vector<std::string> F = splitCsv(Line);
    if (F.size() != 6)
      throw FatalError{"malformed expected-sweep row: " + Line};
    ExpectedRow Row;
    Row.Solved = F[2] == "1";
    Row.Attempts = std::stoi(F[3]);
    Row.Expansions = std::stoll(F[4]);
    Row.Detail = F[5];
    Rows.emplace(F[0], std::move(Row));
  }
  return Rows;
}

std::vector<size_t> perfbench::seededPermutation(size_t N, uint64_t Seed) {
  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  stagg::Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Perm[I - 1], Perm[R.below(I)]);
  return Perm;
}
