//===- api/ConfigPatch.cpp - Per-request config overrides -----------------===//

#include "api/Api.h"

#include <cmath>
#include <limits>

using namespace stagg;
using namespace stagg::api;
using support::Json;

const char *api::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::BadRequest:
    return "bad_request";
  case Status::UnknownBenchmark:
    return "unknown_benchmark";
  case Status::KernelParseError:
    return "c_parse_error";
  case Status::IngestError:
    return "ingest_error";
  case Status::UnsafeKernel:
    return "unsafe_kernel";
  case Status::ShuttingDown:
    return "shutting_down";
  }
  return "unknown";
}

bool ConfigPatch::empty() const {
  return !Kind && !NumCandidates && !NumIoExamples && !ExampleSeed &&
         !SkipVerification && !TimeoutSeconds && !MaxDepth &&
         !MaxExpansions && !MaxAttempts && !VerifyMaxSize && !FullGrammar &&
         !EqualProbability && !UseVm && !UseVmOpt && !SearchThreads;
}

core::StaggConfig ConfigPatch::apply(const core::StaggConfig &Base) const {
  core::StaggConfig Out = Base;
  if (Kind)
    Out.Kind = *Kind;
  if (NumCandidates)
    Out.NumCandidates = *NumCandidates;
  if (NumIoExamples)
    Out.NumIoExamples = *NumIoExamples;
  if (ExampleSeed)
    Out.ExampleSeed = *ExampleSeed;
  if (SkipVerification)
    Out.SkipVerification = *SkipVerification;
  if (TimeoutSeconds)
    Out.Search.TimeoutSeconds = *TimeoutSeconds;
  if (MaxDepth)
    Out.Search.MaxDepth = *MaxDepth;
  if (MaxExpansions)
    Out.Search.MaxExpansions = *MaxExpansions;
  if (MaxAttempts)
    Out.Search.MaxAttempts = *MaxAttempts;
  if (VerifyMaxSize)
    Out.Verify.MaxSize = *VerifyMaxSize;
  if (FullGrammar)
    Out.Grammar.FullGrammar = *FullGrammar;
  if (EqualProbability)
    Out.Grammar.EqualProbability = *EqualProbability;
  if (UseVm)
    Out.UseVm = *UseVm;
  if (UseVmOpt)
    Out.UseVmOpt = *UseVmOpt;
  if (SearchThreads)
    Out.Search.Threads = *SearchThreads;
  return Out;
}

namespace {

std::string expectBool(const Json &Value, const char *Key,
                       std::optional<bool> &Out) {
  if (!Value.isBool())
    return std::string("config.") + Key + " expects true|false";
  Out = Value.asBool();
  return "";
}

/// A strictly positive integer that fits the target width.
template <typename T>
std::string expectPositiveInt(const Json &Value, const char *Key,
                              std::optional<T> &Out, int64_t Max) {
  if (!Value.isInteger() || Value.asInteger() <= 0 ||
      Value.asInteger() > Max)
    return std::string("config.") + Key + " expects a positive integer";
  Out = static_cast<T>(Value.asInteger());
  return "";
}

} // namespace

std::string ConfigPatch::fromJson(const Json &Object, ConfigPatch &Out) {
  if (!Object.isObject())
    return "\"config\" must be an object";
  for (const auto &[Key, Value] : Object.members()) {
    std::string Error;
    if (Key == "search") {
      if (Value.isString() &&
          (Value.asString() == "td" || Value.asString() == "top-down"))
        Out.Kind = core::SearchKind::TopDown;
      else if (Value.isString() &&
               (Value.asString() == "bu" || Value.asString() == "bottom-up"))
        Out.Kind = core::SearchKind::BottomUp;
      else
        Error = "config.search expects \"td\"|\"bu\"";
    } else if (Key == "candidates") {
      Error = expectPositiveInt(Value, "candidates", Out.NumCandidates,
                                std::numeric_limits<int>::max());
    } else if (Key == "io_examples") {
      Error = expectPositiveInt(Value, "io_examples", Out.NumIoExamples,
                                std::numeric_limits<int>::max());
    } else if (Key == "example_seed") {
      if (!Value.isInteger() || Value.asInteger() < 0)
        Error = "config.example_seed expects a non-negative integer";
      else
        Out.ExampleSeed = static_cast<uint64_t>(Value.asInteger());
    } else if (Key == "skip_verify") {
      Error = expectBool(Value, "skip_verify", Out.SkipVerification);
    } else if (Key == "timeout_s") {
      double Seconds = Value.isNumber() ? Value.asNumber() : 0;
      if (!Value.isNumber() || !std::isfinite(Seconds) || Seconds <= 0)
        Error = "config.timeout_s expects seconds > 0";
      else
        Out.TimeoutSeconds = Seconds;
    } else if (Key == "max_depth") {
      Error = expectPositiveInt(Value, "max_depth", Out.MaxDepth,
                                std::numeric_limits<int>::max());
    } else if (Key == "max_expansions") {
      Error = expectPositiveInt(Value, "max_expansions", Out.MaxExpansions,
                                std::numeric_limits<int64_t>::max());
    } else if (Key == "max_attempts") {
      Error = expectPositiveInt(Value, "max_attempts", Out.MaxAttempts,
                                std::numeric_limits<int>::max());
    } else if (Key == "verify_max_size") {
      Error = expectPositiveInt(Value, "verify_max_size", Out.VerifyMaxSize,
                                std::numeric_limits<int64_t>::max());
    } else if (Key == "full_grammar") {
      Error = expectBool(Value, "full_grammar", Out.FullGrammar);
    } else if (Key == "equal_probability") {
      Error = expectBool(Value, "equal_probability", Out.EqualProbability);
    } else if (Key == "use_vm") {
      Error = expectBool(Value, "use_vm", Out.UseVm);
    } else if (Key == "use_vm_opt") {
      Error = expectBool(Value, "use_vm_opt", Out.UseVmOpt);
    } else if (Key == "search_threads") {
      Error = expectPositiveInt(Value, "search_threads", Out.SearchThreads,
                                std::numeric_limits<int>::max());
    } else {
      Error = "unknown config key \"" + Key + "\"";
    }
    if (!Error.empty())
      return Error;
  }
  return "";
}

Json ConfigPatch::toJson() const {
  Json Out = Json::object();
  if (Kind)
    Out.set("search", Json::str(*Kind == core::SearchKind::TopDown ? "td"
                                                                   : "bu"));
  if (NumCandidates)
    Out.set("candidates", Json::integer(*NumCandidates));
  if (NumIoExamples)
    Out.set("io_examples", Json::integer(*NumIoExamples));
  if (ExampleSeed)
    Out.set("example_seed", Json::integer(static_cast<int64_t>(*ExampleSeed)));
  if (SkipVerification)
    Out.set("skip_verify", Json::boolean(*SkipVerification));
  if (TimeoutSeconds)
    Out.set("timeout_s", Json::number(*TimeoutSeconds));
  if (MaxDepth)
    Out.set("max_depth", Json::integer(*MaxDepth));
  if (MaxExpansions)
    Out.set("max_expansions", Json::integer(*MaxExpansions));
  if (MaxAttempts)
    Out.set("max_attempts", Json::integer(*MaxAttempts));
  if (VerifyMaxSize)
    Out.set("verify_max_size", Json::integer(*VerifyMaxSize));
  if (FullGrammar)
    Out.set("full_grammar", Json::boolean(*FullGrammar));
  if (EqualProbability)
    Out.set("equal_probability", Json::boolean(*EqualProbability));
  if (UseVm)
    Out.set("use_vm", Json::boolean(*UseVm));
  if (UseVmOpt)
    Out.set("use_vm_opt", Json::boolean(*UseVmOpt));
  if (SearchThreads)
    Out.set("search_threads", Json::integer(*SearchThreads));
  return Out;
}
