//===- api/Protocol.cpp - Versioned JSON wire protocol --------------------===//

#include "api/Protocol.h"

#include "support/StringUtils.h"
#include "taco/Printer.h"

#include <cctype>
#include <string_view>

using namespace stagg;
using namespace stagg::api;
using support::Json;

namespace {

/// Handles one lift-request field, shared by v1 lines, v2 batch items, and
/// the v2 execute object (so all three speak exactly the same request
/// dialect). Sets \p Handled false for keys it does not know and leaves the
/// error to the caller (each context has its own extra fields). Returns an
/// error message, or "" on success.
std::string parseRequestField(const std::string &Key,
                              const support::Json &Value, LiftRequest &Out,
                              bool &Handled) {
  Handled = true;
  if (Key == "name") {
    if (!Value.isString())
      return "\"name\" must be a string";
    Out.Name = Value.asString();
  } else if (Key == "kernel") {
    if (!Value.isString())
      return "\"kernel\" must be a string of C source";
    Out.KernelSource = Value.asString();
  } else if (Key == "oracle_hint") {
    if (!Value.isString())
      return "\"oracle_hint\" must be a TACO expression string";
    Out.OracleHint = Value.asString();
  } else if (Key == "config") {
    return ConfigPatch::fromJson(Value, Out.Patch);
  } else {
    Handled = false;
  }
  return "";
}

/// The shared request tail checks: name-or-kernel presence and the
/// hint-only-with-kernel rule.
std::string finishRequest(LiftRequest &Out) {
  if (Out.KernelSource.empty()) {
    if (Out.Name.empty())
      return "a request needs a registry \"name\" or an inline \"kernel\"";
    if (!Out.OracleHint.empty())
      // Registry kernels carry their own reference; accepting-and-ignoring
      // the hint would silently run something other than what the client
      // asked for.
      return "\"oracle_hint\" only applies to an inline \"kernel\"";
    Out.RegistryName = Out.Name;
    Out.Name.clear();
  }
  return "";
}

/// Parses the request fields of \p Root (everything but "v", which the
/// caller has already checked) into \p Out.
std::string parseRequestObject(const support::Json &Root, LiftRequest &Out) {
  for (const auto &[Key, Value] : Root.members()) {
    if (Key == "v")
      continue; // checked by the caller
    bool Handled = false;
    std::string Error = parseRequestField(Key, Value, Out, Handled);
    if (Error.empty() && !Handled)
      Error = "unknown field \"" + Key + "\"";
    if (!Error.empty())
      return Error;
  }
  return finishRequest(Out);
}

/// Parses a v2 "execute" object: the lift-request fields plus "sizes" (an
/// object of positive integers) and "inputs" (an object of numbers and/or
/// arrays of numbers).
std::string parseExecuteObject(const support::Json &Root, LiftRequest &Req,
                               ExecuteIo &Io) {
  if (!Root.isObject())
    return "\"execute\" must be an object";
  for (const auto &[Key, Value] : Root.members()) {
    bool Handled = false;
    std::string Error = parseRequestField(Key, Value, Req, Handled);
    if (!Error.empty())
      return Error;
    if (Handled)
      continue;
    if (Key == "sizes") {
      if (!Value.isObject())
        return "\"sizes\" must be an object of positive integers";
      for (const auto &[Name, Size] : Value.members()) {
        if (!Size.isInteger() || Size.asInteger() <= 0)
          return "size \"" + Name + "\" must be a positive integer";
        Io.Sizes[Name] = Size.asInteger();
      }
    } else if (Key == "inputs") {
      if (!Value.isObject())
        return "\"inputs\" must be an object of numbers or number arrays";
      for (const auto &[Name, Input] : Value.members()) {
        if (Input.isNumber()) {
          Io.Scalars[Name] = Input.asNumber();
          continue;
        }
        if (!Input.isArray())
          return "input \"" + Name +
                 "\" must be a number or an array of numbers";
        std::vector<double> Flat;
        for (const support::Json &Cell : Input.items()) {
          if (!Cell.isNumber())
            return "input \"" + Name +
                   "\" must be a number or an array of numbers";
          Flat.push_back(Cell.asNumber());
        }
        Io.Arrays[Name] = std::move(Flat);
      }
    } else {
      return "unknown field \"" + Key + "\"";
    }
  }
  return finishRequest(Req);
}

/// The v1 checks on an already-parsed request line.
ParsedRequest parseRequestJson(const support::JsonParseResult &Json) {
  ParsedRequest Parsed;
  if (!Json.ok()) {
    Parsed.Error = Json.Error.describe();
    return Parsed;
  }
  const support::Json &Root = Json.Value;
  if (!Root.isObject()) {
    Parsed.Error = "a request must be a JSON object";
    return Parsed;
  }

  const support::Json *Version = Root.find("v");
  if (!Version) {
    Parsed.Error = "missing protocol version \"v\" (this build speaks v1)";
    return Parsed;
  }
  if (!Version->isInteger() || Version->asInteger() != ProtocolVersion) {
    Parsed.Error = "unsupported protocol version (this build speaks v1)";
    return Parsed;
  }

  Parsed.Error = parseRequestObject(Root, Parsed.Request);
  return Parsed;
}

} // namespace

ParsedRequest api::parseRequestLine(const std::string &Line) {
  return parseRequestJson(support::parseJson(trim(Line)));
}

namespace {

/// Structured checker findings: [{"code","severity","message","line","col"}].
Json renderFindings(const std::vector<analysis::CheckFinding> &Findings) {
  Json Arr = Json::array();
  for (const analysis::CheckFinding &F : Findings) {
    Json D = Json::object();
    D.set("code", Json::str(F.Code));
    D.set("severity", Json::str(analysis::checkSeverityName(F.Severity)));
    D.set("message", Json::str(F.Message));
    D.set("line", Json::integer(F.Loc.Line));
    D.set("col", Json::integer(F.Loc.Col));
    Arr.push(std::move(D));
  }
  return Arr;
}

} // namespace

std::string api::renderResponse(const LiftResponse &Response) {
  Json Out = Json::object();
  Out.set("v", Json::integer(ProtocolVersion));
  Out.set("status", Json::str(statusName(Response.St)));
  Out.set("name", Json::str(Response.Name));

  if (!Response.ok()) {
    Out.set("error", Json::str(Response.Error));
    if (!Response.Diagnostics.empty())
      Out.set("diagnostics", renderFindings(Response.Diagnostics));
    return Out.dump();
  }

  const core::LiftResult &R = Response.Result;
  Out.set("category", Json::str(Response.Category));
  Out.set("solved", Json::boolean(R.Solved));
  Out.set("verified", Json::boolean(R.Verified));
  Out.set("cached", Json::boolean(Response.CacheHit));
  if (R.Solved) {
    Out.set("expr", Json::str(taco::printProgram(R.Concrete)));
    Out.set("template", Json::str(taco::printProgram(R.Template)));
  } else {
    Out.set("fail_reason", Json::str(R.FailReason));
  }
  Out.set("attempts", Json::integer(R.Attempts));
  Out.set("expansions", Json::integer(R.Expansions));

  Json Timings = Json::object();
  Timings.set("total_s", Json::number(R.Seconds));
  Timings.set("parse_s", Json::number(R.ParseSeconds));
  Timings.set("oracle_s", Json::number(R.OracleSeconds));
  Timings.set("grammar_s", Json::number(R.GrammarSeconds));
  Timings.set("search_s", Json::number(R.SearchSeconds));
  Out.set("timings", std::move(Timings));

  if (!Response.Diagnostics.empty())
    Out.set("warnings", renderFindings(Response.Diagnostics));
  if (!Response.Applied.empty())
    Out.set("config", Response.Applied.toJson());
  return Out.dump();
}

std::string api::renderProtocolError(const std::string &Message) {
  return renderStatusError(Status::BadRequest, Message);
}

std::string api::renderStatusError(Status St, const std::string &Message) {
  Json Out = Json::object();
  Out.set("v", Json::integer(ProtocolVersion));
  Out.set("status", Json::str(statusName(St)));
  Out.set("error", Json::str(Message));
  return Out.dump();
}

namespace {

/// The typed execute decoder: a strict single-pass scanner for the one
/// frame shape that carries bulk tensor data,
///
///   {"v":2[,"id":<integer>],"execute":{"name":"<unescaped>",
///    "sizes":{"<name>":<positive integer>,...},
///    "inputs":{"<name>":<number>|[<number>,...],...}}}
///
/// with keys in any order and JSON whitespace between tokens. Cells go
/// straight from the text into ExecuteIo (numbers through
/// support::scanJsonNumber, the DOM parser's own scanner). Anything else —
/// another key, an escape, a duplicate key, a non-positive size, a nested
/// array, a syntax error — makes it give up, and the caller re-parses the
/// line on the DOM path, which owns every error text and position.
class ExecuteFrameScanner {
public:
  ExecuteFrameScanner(const char *Begin, const char *End)
      : At(Begin), End(End) {}

  bool scan(SocketFrame &Frame) {
    constexpr unsigned SawV = 1, SawId = 2, SawExecute = 4;
    unsigned Seen = 0;
    bool Ok = object([&](std::string_view Key) {
      unsigned Bit = Key == "v"         ? SawV
                     : Key == "id"      ? SawId
                     : Key == "execute" ? SawExecute
                                        : 0;
      if (!Bit || (Seen & Bit))
        return false;
      Seen |= Bit;
      support::JsonNumber N;
      if (Bit == SawV)
        return number(N) && N.IsInteger && N.Integer == ProtocolVersionV2;
      if (Bit == SawId) {
        if (!number(N) || !N.IsInteger)
          return false;
        Frame.IdJson = std::to_string(N.Integer);
        return true;
      }
      return execute(Frame.Exec, Frame.Io);
    });
    skipWhitespace();
    if (!Ok || At != End || !(Seen & SawV) || !(Seen & SawExecute))
      return false;
    Frame.K = SocketFrame::Kind::Execute;
    return true;
  }

private:
  void skipWhitespace() {
    while (At < End &&
           (*At == ' ' || *At == '\t' || *At == '\n' || *At == '\r'))
      ++At;
  }

  bool consume(char C) {
    skipWhitespace();
    if (At < End && *At == C) {
      ++At;
      return true;
    }
    return false;
  }

  /// A string without escapes (the DOM parser's bytes verbatim).
  bool string(std::string_view &Out) {
    if (!consume('"'))
      return false;
    const char *Start = At;
    while (At < End && *At != '"') {
      if (*At == '\\' || static_cast<unsigned char>(*At) < 0x20)
        return false;
      ++At;
    }
    if (At == End)
      return false;
    Out = std::string_view(Start, static_cast<size_t>(At - Start));
    ++At;
    return true;
  }

  bool number(support::JsonNumber &Out) {
    skipWhitespace();
    const char *Next = nullptr;
    if (support::scanJsonNumber(At, End, Next, Out))
      return false;
    At = Next;
    return true;
  }

  /// `{` (key `:` member)* `}`, calling \p Member after each key's colon.
  template <typename MemberFn> bool object(MemberFn Member) {
    if (!consume('{'))
      return false;
    if (consume('}'))
      return true;
    do {
      std::string_view Key;
      if (!string(Key) || !consume(':') || !Member(Key))
        return false;
    } while (consume(','));
    return consume('}');
  }

  bool execute(LiftRequest &Req, ExecuteIo &Io) {
    constexpr unsigned SawName = 1, SawSizes = 2, SawInputs = 4;
    unsigned Seen = 0;
    bool Ok = object([&](std::string_view Key) {
      unsigned Bit = Key == "name"     ? SawName
                     : Key == "sizes"  ? SawSizes
                     : Key == "inputs" ? SawInputs
                                       : 0;
      if (!Bit || (Seen & Bit))
        return false;
      Seen |= Bit;
      if (Bit == SawName) {
        std::string_view Name;
        if (!string(Name) || Name.empty())
          return false;
        Req.RegistryName = std::string(Name);
        return true;
      }
      if (Bit == SawSizes)
        return object([&](std::string_view Name) {
          support::JsonNumber N;
          return number(N) && N.IsInteger && N.Integer > 0 &&
                 Io.Sizes.emplace(std::string(Name), N.Integer).second;
        });
      return object([&](std::string_view Name) { return input(Name, Io); });
    });
    return Ok && (Seen & SawName);
  }

  /// One "inputs" member: a number or a flat array of numbers.
  bool input(std::string_view Name, ExecuteIo &Io) {
    std::string Key(Name);
    if (Io.Scalars.count(Key) || Io.Arrays.count(Key))
      return false; // a duplicate key
    support::JsonNumber N;
    if (!consume('[')) {
      if (!number(N))
        return false;
      Io.Scalars.emplace(std::move(Key), N.Value);
      return true;
    }
    std::vector<double> &Cells = Io.Arrays[std::move(Key)];
    if (consume(']'))
      return true;
    do {
      if (!number(N))
        return false;
      Cells.push_back(N.Value);
    } while (consume(','));
    return consume(']');
  }

  const char *At;
  const char *End;
};

/// The typed path: the scanner over trim()'s bounds (without the copy).
std::optional<SocketFrame> decodeExecuteFrame(const std::string &Line) {
  const char *Begin = Line.data();
  const char *End = Begin + Line.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(*Begin)))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(End[-1])))
    --End;
  SocketFrame Frame;
  if (!ExecuteFrameScanner(Begin, End).scan(Frame))
    return std::nullopt;
  return Frame;
}

/// The DOM path: the line parsed into a support::Json first.
SocketFrame decodeFrameDom(const std::string &Line) {
  SocketFrame Frame;

  // Everything but a frame that *announces* v2 flows through the v1
  // checks, which answer non-objects and bad versions with bad_request.
  support::JsonParseResult Json = support::parseJson(trim(Line));
  const support::Json *Version =
      Json.ok() && Json.Value.isObject() ? Json.Value.find("v") : nullptr;
  if (!Version || !Version->isInteger() ||
      Version->asInteger() != ProtocolVersionV2) {
    Frame.K = SocketFrame::Kind::V1;
    Frame.V1 = parseRequestJson(Json);
    return Frame;
  }

  const support::Json &Root = Json.Value;
  bool Stats = false;
  bool SawRequests = false;
  bool SawExecute = false;
  for (const auto &[Key, Value] : Root.members()) {
    std::string Error;
    if (Key == "v") {
      // Checked above.
    } else if (Key == "id") {
      if (Value.isObject() || Value.isArray())
        Error = "\"id\" must be a JSON scalar";
      else
        Frame.IdJson = Value.dump();
    } else if (Key == "stats") {
      if (!Value.isBool())
        Error = "\"stats\" must be a boolean";
      else
        Stats = Value.asBool();
    } else if (Key == "progress") {
      if (!Value.isBool())
        Error = "\"progress\" must be a boolean";
      else
        Frame.Progress = Value.asBool();
    } else if (Key == "requests") {
      if (!Value.isArray()) {
        Error = "\"requests\" must be an array of request objects";
      } else {
        SawRequests = true;
        for (const support::Json &Item : Value.items()) {
          ParsedRequest Parsed;
          if (!Item.isObject())
            Parsed.Error = "a batch item must be a JSON object";
          else
            Parsed.Error = parseRequestObject(Item, Parsed.Request);
          Frame.Items.push_back(std::move(Parsed));
        }
      }
    } else if (Key == "execute") {
      SawExecute = true;
      Error = parseExecuteObject(Value, Frame.Exec, Frame.Io);
    } else {
      Error = "unknown field \"" + Key + "\"";
    }
    if (!Error.empty()) {
      Frame.K = SocketFrame::Kind::Invalid;
      Frame.Error = Error;
      return Frame;
    }
  }

  if (Stats) {
    if (SawRequests || SawExecute || Frame.Progress) {
      Frame.Error = "a stats frame carries only \"v\", \"id\", \"stats\"";
      return Frame;
    }
    Frame.K = SocketFrame::Kind::Stats;
    return Frame;
  }
  if (SawExecute) {
    if (SawRequests || Frame.Progress) {
      Frame.Error = "an execute frame carries only \"v\", \"id\", \"execute\"";
      return Frame;
    }
    Frame.K = SocketFrame::Kind::Execute;
    return Frame;
  }
  if (!SawRequests) {
    Frame.Error =
        "a v2 frame needs \"requests\" (or \"stats\":true, or \"execute\")";
    return Frame;
  }
  Frame.K = SocketFrame::Kind::Batch;
  return Frame;
}

} // namespace

SocketFrame api::parseSocketFrame(const std::string &Line) {
  if (std::optional<SocketFrame> Frame = decodeExecuteFrame(Line))
    return std::move(*Frame);
  return decodeFrameDom(Line);
}

std::optional<SocketFrame>
api::detail::parseExecuteFrameTyped(const std::string &Line) {
  return decodeExecuteFrame(Line);
}

SocketFrame api::detail::parseSocketFrameDom(const std::string &Line) {
  return decodeFrameDom(Line);
}

namespace {

/// `{"v":2,"event":"<event>"[,"id":<id>][,"seq":<seq>]` — the shared head
/// of every v2 event line, spliced as text so embedded ids and responses
/// stay byte-exact.
std::string eventHead(const char *Event, const std::string &IdJson,
                      int Seq) {
  std::string Out = "{\"v\":2,\"event\":\"";
  Out += Event;
  Out += '"';
  if (!IdJson.empty()) {
    Out += ",\"id\":";
    Out += IdJson;
  }
  if (Seq >= 0) {
    Out += ",\"seq\":";
    Out += std::to_string(Seq);
  }
  return Out;
}

} // namespace

std::string api::renderProgressEvent(const std::string &IdJson, int Seq,
                                     const std::string &Name,
                                     const char *Phase) {
  std::string Out = eventHead("progress", IdJson, Seq);
  Out += ",\"name\":";
  Out += Json::str(Name).dump();
  Out += ",\"phase\":\"";
  Out += Phase;
  Out += "\"}";
  return Out;
}

std::string api::renderResponseEvent(const std::string &IdJson, int Seq,
                                     const LiftResponse &Response) {
  std::string Out = eventHead("response", IdJson, Seq);
  Out += ",\"response\":";
  Out += renderResponse(Response);
  Out += '}';
  return Out;
}

std::string api::renderDoneEvent(const std::string &IdJson, int Completed) {
  std::string Out = eventHead("done", IdJson, -1);
  Out += ",\"completed\":";
  Out += std::to_string(Completed);
  Out += '}';
  return Out;
}

std::string api::renderErrorEvent(const std::string &IdJson,
                                  const std::string &Message) {
  std::string Out = eventHead("error", IdJson, -1);
  Out += ",\"error\":";
  Out += Json::str(Message).dump();
  Out += '}';
  return Out;
}

std::string api::renderResultEvent(const std::string &IdJson,
                                   const std::string &Name,
                                   const ExecuteOutcome &Outcome) {
  std::string Out = eventHead("result", IdJson, -1);
  Out += ",\"name\":";
  Out += Json::str(Name).dump();
  if (!Outcome.Ok) {
    Out += ",\"status\":\"error\",\"error\":";
    Out += Json::str(Outcome.Error).dump();
    Out += '}';
    return Out;
  }
  Out += ",\"status\":\"ok\",\"cached\":";
  Out += Outcome.Cached ? "true" : "false";
  Out += ",\"expr\":";
  Out += Json::str(Outcome.Expr).dump();
  // The tensor goes straight into the line, no Json array in between. The
  // reservation covers short cells; longer spellings grow the line.
  Out.reserve(Out.size() + 32 + 8 * Outcome.Data.size());
  Out += ",\"shape\":[";
  for (size_t I = 0; I < Outcome.Shape.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Outcome.Shape[I]);
  }
  Out += "],\"data\":[";
  for (size_t I = 0; I < Outcome.Data.size(); ++I) {
    if (I)
      Out += ',';
    support::appendJsonNumber(Out, Outcome.Data[I]);
  }
  Out += "]}";
  return Out;
}
