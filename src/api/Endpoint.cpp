//===- api/Endpoint.cpp - The one entry point into the service ------------===//

#include "api/Endpoint.h"

#include "api/KernelIngest.h"
#include "support/StringUtils.h"
#include "taco/Printer.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Optimizer.h"
#include "vm/Interpreter.h"

#include <chrono>

using namespace stagg;
using namespace stagg::api;

bool PendingLift::ready() {
  if (Immediate || !Raw.valid())
    return true; // get() on an empty pending lift fails fast, not blocks
  return Raw.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

LiftResponse PendingLift::get() {
  if (Immediate)
    return std::move(Resolved);
  if (!Raw.valid()) {
    // Default-constructed or already-consumed: answer deterministically
    // instead of hitting std::future's undefined behavior.
    LiftResponse Response;
    Response.St = Status::BadRequest;
    Response.Error = "empty pending lift (nothing was submitted, or the "
                     "response was already taken)";
    return Response;
  }
  serve::LiftResponse Raw = this->Raw.get();
  LiftResponse Response;
  Response.St = Status::Ok;
  Response.Name = std::move(Raw.Benchmark);
  Response.Category = std::move(Raw.Category);
  Response.Result = std::move(Raw.Result);
  Response.CacheHit = Raw.CacheHit;
  Response.Applied = std::move(Resolved.Applied);
  Response.Diagnostics = std::move(Resolved.Diagnostics);
  return Response;
}

Endpoint::Endpoint(serve::ServiceConfig Config, serve::OracleFactory Factory)
    : Base(Config.Config), Service(std::move(Config), std::move(Factory)) {}

namespace {

/// Overflow-checked cell count of \p Shape. False on a non-positive extent
/// or a product that does not fit int64_t — sizes are client-controlled on
/// the execute path, and a wrapped product would under-allocate the buffer
/// the interpreter then writes a full shape-odometer of cells into.
bool checkedCellCount(const std::vector<int64_t> &Shape, int64_t &Cells) {
  Cells = 1;
  for (int64_t D : Shape)
    if (D <= 0 || __builtin_mul_overflow(Cells, D, &Cells))
      return false;
  return true;
}

/// "did you mean" over the registry, for mistyped names.
std::string nearestBenchmark(const std::string &Name) {
  std::vector<std::string> Names;
  for (const bench::Benchmark &B : bench::allBenchmarks())
    Names.push_back(B.Name);
  return closestMatch(Name, Names);
}

} // namespace

PendingLift Endpoint::immediateError(Status St, std::string Name,
                                     std::string Error,
                                     const ConfigPatch &Applied) {
  PendingLift Pending;
  Pending.Immediate = true;
  Pending.Resolved.St = St;
  Pending.Resolved.Name = std::move(Name);
  Pending.Resolved.Error = std::move(Error);
  Pending.Resolved.Applied = Applied;
  return Pending;
}

Endpoint::Admission Endpoint::admit(const LiftRequest &Request) {
  Admission Out;
  auto Fail = [&](PendingLift Pending) {
    Out.Immediate = true;
    Out.Pending = std::move(Pending);
    return std::move(Out);
  };

  if (!Request.RegistryName.empty() && Request.isInline())
    return Fail(immediateError(Status::BadRequest, Request.Name,
                               "a request carries either a registry name "
                               "or an inline kernel, not both",
                               Request.Patch));
  if (Request.RegistryName.empty() && !Request.isInline())
    return Fail(immediateError(Status::BadRequest, Request.Name,
                               "a request needs a registry \"name\" or an "
                               "inline \"kernel\"",
                               Request.Patch));
  if (!Request.isInline() && !Request.OracleHint.empty())
    return Fail(immediateError(Status::BadRequest, Request.RegistryName,
                               "an oracle hint only applies to an inline "
                               "kernel (registry benchmarks carry their own "
                               "reference)",
                               Request.Patch));

  Out.Effective = Request.Patch.apply(Base);

  if (Request.isInline()) {
    IngestResult Ingested = ingestCached(Request);
    if (!Ingested.ok()) {
      Status St = Status::IngestError;
      if (Ingested.Status == IngestStatus::ParseError)
        St = Status::KernelParseError;
      else if (Ingested.Status == IngestStatus::UnsafeKernel)
        St = Status::UnsafeKernel;
      PendingLift Pending = immediateError(
          St, Request.Name.empty() ? "inline" : Request.Name, Ingested.Error,
          Request.Patch);
      Pending.Resolved.Diagnostics = std::move(Ingested.Findings);
      return Fail(std::move(Pending));
    }
    Out.Query = std::move(Ingested.Kernel);
    Out.Warnings = std::move(Ingested.Findings); // warnings survive clean()
  } else {
    const bench::Benchmark *Found = bench::findBenchmark(Request.RegistryName);
    if (!Found) {
      std::string Error =
          "unknown benchmark '" + Request.RegistryName + "'";
      std::string Hint = nearestBenchmark(Request.RegistryName);
      if (!Hint.empty())
        Error += " — did you mean '" + Hint + "'?";
      return Fail(immediateError(Status::UnknownBenchmark,
                                 Request.RegistryName, Error, Request.Patch));
    }
    Out.Query = *Found;
  }
  return Out;
}

PendingLift Endpoint::submit(const LiftRequest &Request) {
  Admission Admitted = admit(Request);
  if (Admitted.Immediate)
    return std::move(Admitted.Pending);

  PendingLift Pending;
  Pending.Resolved.Applied = Request.Patch;
  Pending.Resolved.Diagnostics = std::move(Admitted.Warnings);
  Pending.Raw =
      Service.submit(std::move(Admitted.Query), Admitted.Effective);
  return Pending;
}

bool Endpoint::trySubmit(const LiftRequest &Request,
                         serve::SubmitHooks Hooks, PendingLift &Out) {
  Admission Admitted = admit(Request);
  if (Admitted.Immediate) {
    Out = std::move(Admitted.Pending);
    return true;
  }

  std::future<serve::LiftResponse> Raw;
  if (!Service.trySubmit(std::move(Admitted.Query), Admitted.Effective,
                         std::move(Hooks), Raw))
    return false; // queue full; the ingest memo keeps the retry cheap

  PendingLift Pending;
  Pending.Resolved.Applied = Request.Patch;
  Pending.Resolved.Diagnostics = std::move(Admitted.Warnings);
  Pending.Raw = std::move(Raw);
  Out = std::move(Pending);
  return true;
}

IngestResult Endpoint::ingestCached(const LiftRequest &Request) {
  std::string Key = normalizeKernelText(Request.KernelSource) + '\x1f' +
                    Request.Name + '\x1f' + Request.OracleHint;
  {
    std::lock_guard<std::mutex> Lock(IngestMutex);
    auto It = IngestMemo.find(Key);
    if (It != IngestMemo.end())
      return It->second;
  }
  IngestResult Ingested =
      ingestKernel(Request.KernelSource, Request.Name, Request.OracleHint);
  {
    std::lock_guard<std::mutex> Lock(IngestMutex);
    if (IngestMemo.size() >= 256)
      IngestMemo.clear();
    IngestMemo.emplace(Key, Ingested);
  }
  return Ingested;
}

LiftResponse Endpoint::lift(const LiftRequest &Request) {
  return submit(Request).get();
}

std::shared_ptr<const Endpoint::CompiledKernel>
Endpoint::compiledFor(const taco::Program &Concrete, const std::string &Key) {
  {
    std::lock_guard<std::mutex> Lock(VmCacheMutex);
    auto It = VmCache.find(Key);
    if (It != VmCache.end()) {
      ++VmStats.Hits;
      return It->second;
    }
    ++VmStats.Misses;
  }
  auto K = std::make_shared<CompiledKernel>();
  K->Program = Concrete; // deep clone; the Code points into *this* copy
  K->Code = vm::compileProgram(K->Program);
  if (Base.UseVmOpt) {
    // A concrete lifted program's constants are literals nothing rewrites,
    // so the optimizer may merge equal-valued constant registers.
    vm::OptimizeOptions OptOpts;
    OptOpts.FreezeConstants = true;
    K->Code = vm::optimize(K->Code, OptOpts);
  }
  std::lock_guard<std::mutex> Lock(VmCacheMutex);
  if (VmCache.size() >= 256) {
    VmCache.clear(); // same wholesale policy as the ingest memo
    ++VmStats.Evictions;
  }
  return VmCache.emplace(Key, std::move(K)).first->second;
}

Endpoint::VmCacheStats Endpoint::vmCacheStats() const {
  std::lock_guard<std::mutex> Lock(VmCacheMutex);
  VmCacheStats Out = VmStats;
  Out.Entries = VmCache.size();
  Out.Capacity = 256;
  return Out;
}

ExecuteOutcome Endpoint::executeLifted(const LiftRequest &Request,
                                       const ExecuteIo &Io,
                                       const LiftResponse &Response) {
  ExecuteOutcome Out;
  Out.Cached = Response.CacheHit;
  if (!Response.ok()) {
    Out.Error = Response.Error;
    return Out;
  }
  const core::LiftResult &R = Response.Result;
  if (!R.Solved) {
    Out.Error = "kernel was not lifted: " +
                (R.FailReason.empty() ? std::string("search failed")
                                      : R.FailReason);
    return Out;
  }
  Out.Expr = taco::printProgram(R.Concrete);

  // The argument specs that shape the posted inputs, resolved the same way
  // admission resolved them (inline kernels hit the ingest memo; registry
  // kernels are read in place).
  IngestResult Ingested;
  const bench::Benchmark *Found = nullptr;
  if (Request.isInline()) {
    Ingested = ingestCached(Request);
    if (!Ingested.ok()) {
      Out.Error = Ingested.Error;
      return Out;
    }
    Found = &Ingested.Kernel;
  } else {
    Found = bench::findBenchmark(Request.RegistryName);
    if (!Found) {
      Out.Error = "unknown benchmark '" + Request.RegistryName + "'";
      return Out;
    }
  }
  const bench::Benchmark &Query = *Found;
  const bench::ArgSpec *OutArg = Query.outputArg();
  if (!OutArg) {
    Out.Error = "kernel has no output argument";
    return Out;
  }

  // Materialize every argument; arrays not posted stay zero (the output
  // buffer's usual pre-state), absent size parameters default to 1. Every
  // cell count is overflow-checked and budgeted *before* its buffer is
  // allocated: sizes come off the wire, and the request must fail as a
  // result error, never as a wrapped allocation or an OOM kill.
  const int64_t MaxCells = Base.Serve.MaxExecuteCells;
  int64_t TotalCells = 0;
  std::map<std::string, taco::Tensor<double>> Operands;
  for (const bench::ArgSpec &Arg : Query.Args) {
    if (Arg.K == bench::ArgSpec::Kind::Array) {
      std::vector<int64_t> Shape = validate::resolveShape(Arg, Io.Sizes);
      int64_t Cells = 0;
      if (!checkedCellCount(Shape, Cells) ||
          __builtin_add_overflow(TotalCells, Cells, &TotalCells)) {
        Out.Error = "argument '" + Arg.Name +
                    "' has an invalid or overflowing cell count for the "
                    "posted sizes";
        return Out;
      }
      if (MaxCells > 0 && TotalCells > MaxCells) {
        Out.Error = "request materializes more than " +
                    std::to_string(MaxCells) +
                    " tensor cells (--max-execute-cells); argument '" +
                    Arg.Name + "' pushed it over the limit";
        return Out;
      }
      auto It = Io.Arrays.find(Arg.Name);
      if (It != Io.Arrays.end() &&
          It->second.size() != static_cast<size_t>(Cells)) {
        Out.Error = "input '" + Arg.Name + "' carries " +
                    std::to_string(It->second.size()) +
                    " values, expected " + std::to_string(Cells);
        return Out;
      }
      taco::Tensor<double> T(Shape);
      if (It != Io.Arrays.end())
        T.flat() = It->second;
      Operands.emplace(Arg.Name, std::move(T));
    } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
      auto It = Io.Sizes.find(Arg.Name);
      Operands.emplace(Arg.Name,
                       taco::Tensor<double>::scalar(
                           It != Io.Sizes.end()
                               ? static_cast<double>(It->second)
                               : 1.0));
    } else {
      auto It = Io.Scalars.find(Arg.Name);
      if (It != Io.Scalars.end())
        Operands.emplace(Arg.Name, taco::Tensor<double>::scalar(It->second));
      // Absent scalars the program reads fail bind() as "unbound tensor".
    }
  }

  std::shared_ptr<const CompiledKernel> K = compiledFor(R.Concrete, Out.Expr);
  if (!K->Code.ok()) {
    Out.Error = "lifted program does not lower to VM code: " +
                K->Code.error();
    return Out;
  }
  std::vector<int64_t> OutShape = validate::resolveShape(*OutArg, Io.Sizes);

  vm::Interpreter<double> Interp(K->Code);
  if (!Interp.bindMap(Operands, OutShape)) {
    Out.Error = "failed to bind inputs: " + Interp.error();
    return Out;
  }
  taco::EinsumResult<double> Result = Interp.evaluate();
  if (!Result.Ok) {
    Out.Error = "execution failed: " + Result.Error;
    return Out;
  }
  Out.Shape = Result.Value.shape();
  Out.Data = Result.Value.flat();
  Out.Ok = true;
  return Out;
}
