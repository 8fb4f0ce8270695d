//===- driver/CheckCommand.cpp - stagg check lint -------------------------===//

#include "driver/CheckCommand.h"

#include "analysis/Checker.h"
#include "analysis/KernelModel.h"
#include "api/KernelIngest.h"
#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

using namespace stagg;
using namespace stagg::driver;

namespace {

/// One checked target, however it was named.
struct Row {
  std::string Name;
  bool BoundsProven = false;

  /// Non-empty when the target never reached the checker (unreadable file,
  /// C parse error). Counts as a hard failure.
  std::string Error;

  /// Non-empty when the kernel checked clean(ish) but the ingestion
  /// pipeline still cannot derive a reference translation for it.
  /// Informational: liftability is not a safety defect.
  std::string Note;

  std::vector<analysis::CheckFinding> Findings;

  int hard() const {
    int N = Error.empty() ? 0 : 1;
    for (const analysis::CheckFinding &F : Findings)
      if (F.Severity == analysis::CheckSeverity::Hard)
        ++N;
    return N;
  }
  int warnings() const {
    int N = 0;
    for (const analysis::CheckFinding &F : Findings)
      if (F.Severity == analysis::CheckSeverity::Warning)
        ++N;
    return N;
  }
};

/// A target names a file when it looks like a path rather than a registry
/// kernel; registry names never contain '/' or a ".c"/".h" suffix.
bool looksLikeFile(const std::string &Target) {
  if (Target.find('/') != std::string::npos)
    return true;
  auto EndsWith = [&](const std::string &Suffix) {
    return Target.size() > Suffix.size() &&
           Target.compare(Target.size() - Suffix.size(), Suffix.size(),
                          Suffix) == 0;
  };
  return EndsWith(".c") || EndsWith(".h");
}

/// "mykernels/saxpy.c" -> "saxpy", for the report's name column.
std::string stemOf(const std::string &Path) {
  std::string::size_type Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  std::string::size_type Dot = Base.find_last_of('.');
  if (Dot != std::string::npos && Dot > 0)
    Base.resize(Dot);
  return Base.empty() ? Path : Base;
}

/// Checks one registry kernel against its declared argument shapes — the
/// same authoritative-shape contract the lift pipeline uses in step 2.
Row checkRegistryKernel(const bench::Benchmark &B) {
  Row R;
  R.Name = B.Name;
  cfront::CParseResult Parsed = cfront::parseCFunction(B.CSource);
  if (!Parsed.ok()) {
    R.Error = "C parse error: " + Parsed.Error;
    return R;
  }
  analysis::KernelModel Model = analysis::buildKernelModel(*Parsed.Function);
  analysis::CheckReport Report =
      analysis::checkKernel(Model, core::checkOptionsFor(B));
  R.BoundsProven = Report.BoundsProvenSafe;
  R.Findings = std::move(Report.Findings);
  return R;
}

/// Checks one C source file through api::ingestKernel, so the verdict —
/// including the shapes the checker sees — matches the serving layer's
/// ingestion gate exactly.
Row checkFile(const std::string &Path) {
  Row R;
  R.Name = stemOf(Path);
  std::ifstream In(Path);
  if (!In) {
    R.Error = "cannot read '" + Path + "'";
    return R;
  }
  std::ostringstream Text;
  Text << In.rdbuf();

  api::IngestResult Ingested = api::ingestKernel(Text.str(), R.Name);
  R.BoundsProven = Ingested.BoundsProvenSafe;
  R.Findings = std::move(Ingested.Findings);
  if (Ingested.Status == api::IngestStatus::ParseError)
    R.Error = Ingested.Error;
  else if (!Ingested.ok() && R.hard() == 0)
    R.Note = "not liftable as-is: " + Ingested.Error;
  return R;
}

const char *verdictOf(const Row &R) {
  if (!R.Error.empty())
    return "error";
  if (R.hard() > 0)
    return "unsafe";
  if (R.warnings() > 0)
    return "warnings";
  return R.BoundsProven ? "safe" : "clean";
}

void printTable(std::ostream &Out, const std::vector<Row> &Rows) {
  size_t NameW = 6;
  for (const Row &R : Rows)
    NameW = std::max(NameW, R.Name.size());
  Out << std::left << std::setw(static_cast<int>(NameW) + 2) << "kernel"
      << std::setw(10) << "verdict"
      << "findings\n";
  int Hard = 0, Warnings = 0;
  for (const Row &R : Rows) {
    Hard += R.hard();
    Warnings += R.warnings();
    Out << std::left << std::setw(static_cast<int>(NameW) + 2) << R.Name
        << std::setw(10) << verdictOf(R)
        << (R.Findings.empty() && R.Error.empty() ? "-" : "") << "\n";
    if (!R.Error.empty())
      Out << "    " << R.Error << "\n";
    for (const analysis::CheckFinding &F : R.Findings) {
      Out << "    " << F.Code << " "
          << analysis::checkSeverityName(F.Severity);
      if (F.Loc.valid())
        Out << " (" << F.Loc.str() << ")";
      Out << ": " << F.Message << "\n";
    }
    if (!R.Note.empty())
      Out << "    note: " << R.Note << "\n";
  }
  Out << Rows.size() << " kernels checked: " << Hard << " hard findings, "
      << Warnings << " warnings\n";
}

void printJson(std::ostream &Out, const std::vector<Row> &Rows) {
  using support::Json;
  Json Report = Json::object();
  Report.set("v", Json::integer(1));
  Json Kernels = Json::array();
  int Hard = 0, Warnings = 0;
  for (const Row &R : Rows) {
    Hard += R.hard();
    Warnings += R.warnings();
    Json K = Json::object();
    K.set("name", Json::str(R.Name));
    K.set("verdict", Json::str(verdictOf(R)));
    K.set("bounds_proven", Json::boolean(R.BoundsProven));
    if (!R.Error.empty())
      K.set("error", Json::str(R.Error));
    if (!R.Note.empty())
      K.set("note", Json::str(R.Note));
    Json Findings = Json::array();
    for (const analysis::CheckFinding &F : R.Findings) {
      Json D = Json::object();
      D.set("code", Json::str(F.Code));
      D.set("severity", Json::str(analysis::checkSeverityName(F.Severity)));
      D.set("message", Json::str(F.Message));
      D.set("line", Json::integer(F.Loc.Line));
      D.set("col", Json::integer(F.Loc.Col));
      Findings.push(std::move(D));
    }
    K.set("findings", std::move(Findings));
    Kernels.push(std::move(K));
  }
  Report.set("checked", Json::integer(static_cast<int64_t>(Rows.size())));
  Report.set("hard", Json::integer(Hard));
  Report.set("warnings", Json::integer(Warnings));
  Report.set("kernels", std::move(Kernels));
  Out << Report.dump() << "\n";
}

} // namespace

int driver::runCheckCommand(const CliOptions &Options) {
  std::vector<Row> Rows;

  if (Options.Targets.empty()) {
    std::string Error;
    std::vector<const bench::Benchmark *> Suite =
        selectSuite(Options.Suite, Options.Limit, Error);
    if (!Error.empty()) {
      std::cerr << "stagg: " << Error << "\n";
      return CheckExitBadTarget;
    }
    for (const bench::Benchmark *B : Suite)
      Rows.push_back(checkRegistryKernel(*B));
  } else {
    for (const std::string &Target : Options.Targets) {
      if (looksLikeFile(Target)) {
        Rows.push_back(checkFile(Target));
        if (!Rows.back().Error.empty() &&
            Rows.back().Error.rfind("cannot read", 0) == 0) {
          std::cerr << "stagg: " << Rows.back().Error << "\n";
          return CheckExitBadTarget;
        }
        continue;
      }
      const bench::Benchmark *B = bench::findBenchmark(Target);
      if (!B) {
        std::string Error = "unknown benchmark '" + Target + "'";
        std::vector<std::string> Names;
        for (const bench::Benchmark &Known : bench::allBenchmarks())
          Names.push_back(Known.Name);
        std::string Hint = closestMatch(Target, Names);
        if (!Hint.empty())
          Error += " — did you mean '" + Hint + "'?";
        std::cerr << "stagg: " << Error << "\n";
        return CheckExitBadTarget;
      }
      Rows.push_back(checkRegistryKernel(*B));
    }
  }

  if (Options.Format == OutputFormat::Json)
    printJson(std::cout, Rows);
  else
    printTable(std::cout, Rows);

  for (const Row &R : Rows)
    if (R.hard() > 0 || (Options.CheckWerror && R.warnings() > 0))
      return CheckExitFindings;
  return CheckExitClean;
}
