//===- driver/SuiteRunner.cpp - Parallel pipeline execution ---------------===//

#include "driver/SuiteRunner.h"

#include "support/Timer.h"
#include "taco/Printer.h"

#include <algorithm>
#include <fstream>
#include <future>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

using namespace stagg;
using namespace stagg::driver;

int SuiteReport::solvedCount() const {
  int Count = 0;
  for (const RunRow &Row : Rows)
    Count += Row.Result.Solved;
  return Count;
}

double SuiteReport::solvedPercent() const {
  if (Rows.empty())
    return 0;
  return 100.0 * solvedCount() / static_cast<double>(Rows.size());
}

double SuiteReport::avgSecondsSolved() const {
  double Total = 0;
  int Count = 0;
  for (const RunRow &Row : Rows)
    if (Row.Result.Solved) {
      Total += Row.Result.Seconds;
      ++Count;
    }
  return Count ? Total / Count : 0;
}

double SuiteReport::avgAttemptsSolved() const {
  double Total = 0;
  int Count = 0;
  for (const RunRow &Row : Rows)
    if (Row.Result.Solved) {
      Total += Row.Result.Attempts;
      ++Count;
    }
  return Count ? Total / Count : 0;
}

SuiteReport driver::runSuite(const std::vector<const bench::Benchmark *> &Suite,
                             const CliOptions &Options,
                             std::ostream *Progress) {
  SuiteReport Report;
  Report.Rows.resize(Suite.size());

  int Threads = Options.Threads;
  if (Threads <= 0)
    Threads = static_cast<int>(std::thread::hardware_concurrency());
  if (Threads <= 0)
    Threads = 1;
  Threads = std::min<int>(Threads, std::max<size_t>(Suite.size(), 1));
  Report.Threads = Threads;

  serve::ServiceConfig Service;
  Service.Config = Options.Config;
  Service.Threads = Threads;
  Service.OracleSeed = Options.OracleSeed;

  Timer Wall;
  api::Endpoint Lifter(Service);

  // Submission applies backpressure: once the bounded queue fills, push
  // blocks until a worker drains a slot. Collection happens in suite order,
  // which is also where verbose progress is emitted — response order is a
  // scheduling artifact, row order never is.
  std::vector<api::PendingLift> Replies;
  Replies.reserve(Suite.size());
  for (const bench::Benchmark *B : Suite) {
    api::LiftRequest Request;
    Request.RegistryName = B->Name;
    Replies.push_back(Lifter.submit(Request));
  }

  for (size_t Index = 0; Index < Replies.size(); ++Index) {
    api::LiftResponse Response = Replies[Index].get();
    RunRow &Row = Report.Rows[Index];
    Row.Benchmark = Response.Name;
    Row.Category = Response.Category;
    Row.Result = std::move(Response.Result);
    Row.CacheHit = Response.CacheHit;
    if (Progress && Options.Verbose)
      *Progress << core::describeResult(*Suite[Index], Row.Result) << "\n";
  }

  Report.WallSeconds = Wall.seconds();
  Report.Cache = Lifter.cacheStats();
  return Report;
}

namespace {

std::string formatSeconds(double Seconds) {
  std::ostringstream Os;
  Os << std::fixed << std::setprecision(3) << Seconds;
  return Os.str();
}

/// The detail column: the lifted program on success, the reason otherwise.
std::string detailOf(const RunRow &Row) {
  if (Row.Result.Solved)
    return taco::printProgram(Row.Result.Concrete);
  return Row.Result.FailReason;
}

/// CSV/TSV field quoting: quote when the separator, a quote or a newline
/// appears (lifted programs contain commas in access expressions).
std::string quoted(const std::string &Field, char Separator) {
  if (Field.find(Separator) == std::string::npos &&
      Field.find('"') == std::string::npos &&
      Field.find('\n') == std::string::npos)
    return Field;
  std::string Out = "\"";
  for (char C : Field) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

} // namespace

void driver::printTable(std::ostream &Os, const SuiteReport &Report) {
  size_t NameWidth = 9; // "benchmark"
  size_t CategoryWidth = 8;
  for (const RunRow &Row : Report.Rows) {
    NameWidth = std::max(NameWidth, Row.Benchmark.size());
    CategoryWidth = std::max(CategoryWidth, Row.Category.size());
  }

  Os << std::left << std::setw(static_cast<int>(NameWidth + 2)) << "benchmark"
     << std::setw(static_cast<int>(CategoryWidth + 2)) << "category"
     << std::setw(8) << "status" << std::right << std::setw(10) << "seconds"
     << std::setw(10) << "attempts" << std::setw(12) << "expansions"
     << "  " << std::left << "detail\n";

  for (const RunRow &Row : Report.Rows) {
    Os << std::left << std::setw(static_cast<int>(NameWidth + 2))
       << Row.Benchmark << std::setw(static_cast<int>(CategoryWidth + 2))
       << Row.Category << std::setw(8)
       << (Row.Result.Solved ? "OK" : "FAIL") << std::right << std::setw(10)
       << formatSeconds(Row.Result.Seconds) << std::setw(10)
       << Row.Result.Attempts << std::setw(12) << Row.Result.Expansions
       << "  " << std::left << detailOf(Row) << "\n";
  }

  Os << "\nsolved " << Report.solvedCount() << "/" << Report.Rows.size()
     << " (" << formatSeconds(Report.solvedPercent()) << "%)"
     << "  avg-time-solved " << formatSeconds(Report.avgSecondsSolved())
     << "s  avg-attempts-solved "
     << formatSeconds(Report.avgAttemptsSolved()) << "  wall "
     << formatSeconds(Report.WallSeconds) << "s  threads " << Report.Threads
     << "\n";
}

void driver::printDelimited(std::ostream &Os, const SuiteReport &Report,
                            char Separator) {
  const char *Header[] = {"benchmark", "category",   "solved", "seconds",
                          "attempts",  "expansions", "detail"};
  for (size_t I = 0; I < sizeof(Header) / sizeof(Header[0]); ++I)
    Os << (I ? std::string(1, Separator) : "") << Header[I];
  Os << "\n";

  for (const RunRow &Row : Report.Rows) {
    Os << quoted(Row.Benchmark, Separator) << Separator
       << quoted(Row.Category, Separator) << Separator
       << (Row.Result.Solved ? 1 : 0) << Separator
       << formatSeconds(Row.Result.Seconds) << Separator
       << Row.Result.Attempts << Separator << Row.Result.Expansions
       << Separator << quoted(detailOf(Row), Separator) << "\n";
  }
}

bool driver::writeCsv(const std::string &Path, const SuiteReport &Report) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  printDelimited(Os, Report, ',');
  return static_cast<bool>(Os);
}
