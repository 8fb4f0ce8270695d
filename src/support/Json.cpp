//===- support/Json.cpp - Minimal JSON reader/writer ----------------------===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace stagg;
using namespace stagg::support;

//===----------------------------------------------------------------------===//
// Value accessors and builders
//===----------------------------------------------------------------------===//

const Json *Json::find(const std::string &Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

Json &Json::push(Json Value) {
  Items.push_back(std::move(Value));
  return *this;
}

Json &Json::set(const std::string &Key, Json Value) {
  for (auto &[Name, Existing] : Members)
    if (Name == Key) {
      Existing = std::move(Value);
      return *this;
    }
  Members.emplace_back(Key, std::move(Value));
  return *this;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

/// Length of the valid UTF-8 sequence starting at \p At (0 when the bytes
/// there are not well-formed UTF-8: bad lead byte, truncated or wrong
/// continuations, overlong encodings, surrogates, beyond U+10FFFF).
size_t utf8SequenceLength(const std::string &Text, size_t At) {
  unsigned char Lead = static_cast<unsigned char>(Text[At]);
  size_t Length;
  uint32_t Code;
  if (Lead < 0x80)
    return 1;
  if (Lead >= 0xC2 && Lead <= 0xDF) {
    Length = 2;
    Code = Lead & 0x1Fu;
  } else if (Lead >= 0xE0 && Lead <= 0xEF) {
    Length = 3;
    Code = Lead & 0x0Fu;
  } else if (Lead >= 0xF0 && Lead <= 0xF4) {
    Length = 4;
    Code = Lead & 0x07u;
  } else {
    return 0; // continuation byte or 0xC0/0xC1/0xF5+ lead
  }
  if (At + Length > Text.size())
    return 0;
  for (size_t I = 1; I < Length; ++I) {
    unsigned char C = static_cast<unsigned char>(Text[At + I]);
    if ((C & 0xC0) != 0x80)
      return 0;
    Code = (Code << 6) | (C & 0x3Fu);
  }
  if (Length == 3 && (Code < 0x800 || (Code >= 0xD800 && Code <= 0xDFFF)))
    return 0;
  if (Length == 4 && (Code < 0x10000 || Code > 0x10FFFF))
    return 0;
  return Length;
}

} // namespace

std::string support::escapeJsonString(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (size_t At = 0; At < Text.size();) {
    unsigned char C = static_cast<unsigned char>(Text[At]);
    switch (C) {
    case '"':
      Out += "\\\"";
      ++At;
      continue;
    case '\\':
      Out += "\\\\";
      ++At;
      continue;
    case '\b':
      Out += "\\b";
      ++At;
      continue;
    case '\f':
      Out += "\\f";
      ++At;
      continue;
    case '\n':
      Out += "\\n";
      ++At;
      continue;
    case '\r':
      Out += "\\r";
      ++At;
      continue;
    case '\t':
      Out += "\\t";
      ++At;
      continue;
    default:
      break;
    }
    if (C < 0x20) {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
      Out += Buffer;
      ++At;
      continue;
    }
    // Emitted output must stay valid UTF-8 whatever bytes arrived (strings
    // can carry raw kernel text from hostile clients): well-formed
    // sequences pass through verbatim, anything else becomes U+FFFD so the
    // response line always parses downstream.
    size_t Length = utf8SequenceLength(Text, At);
    if (Length == 0) {
      Out += "\xEF\xBF\xBD";
      ++At;
      continue;
    }
    Out.append(Text, At, Length);
    At += Length;
  }
  return Out;
}

void support::appendJsonNumber(std::string &Out, double Value) {
  if (!std::isfinite(Value)) {
    // JSON has no Inf/NaN; null is the least-wrong rendering.
    Out += "null";
    return;
  }
  char Buffer[32]; // "%.12g" needs at most 19 ("-1.23456789012e-308")
  char *End;
  if (Value != 0 && std::fabs(Value) < 1e12 && Value == std::trunc(Value))
    End = std::to_chars(Buffer, Buffer + sizeof(Buffer),
                        static_cast<int64_t>(Value))
              .ptr;
  else
    End = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value,
                        std::chars_format::general, 12)
              .ptr;
  Out.append(Buffer, End);
}

namespace {

void dumpTo(const Json &J, std::string &Out) {
  switch (J.kind()) {
  case Json::Kind::Null:
    Out += "null";
    return;
  case Json::Kind::Bool:
    Out += J.asBool() ? "true" : "false";
    return;
  case Json::Kind::Number:
    if (J.isInteger())
      Out += std::to_string(J.asInteger());
    else
      appendJsonNumber(Out, J.asNumber());
    return;
  case Json::Kind::String:
    Out += '"';
    Out += escapeJsonString(J.asString());
    Out += '"';
    return;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &Item : J.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpTo(Item, Out);
    }
    Out += ']';
    return;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, Value] : J.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += escapeJsonString(Key);
      Out += "\":";
      dumpTo(Value, Out);
    }
    Out += '}';
    return;
  }
  }
}

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpTo(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

std::string JsonError::describe() const {
  return "malformed JSON at line " + std::to_string(Line) + " column " +
         std::to_string(Column) + ": " + Message;
}

namespace {

class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  JsonParseResult run() {
    JsonParseResult Result;
    skipWhitespace();
    if (!parseValue(Result.Value, 0))
      return fail(Result);
    skipWhitespace();
    if (At < Text.size()) {
      setError("unexpected trailing content");
      return fail(Result);
    }
    Result.Ok = true;
    return Result;
  }

private:
  static constexpr int MaxDepth = 64;

  JsonParseResult fail(JsonParseResult &Result) {
    Result.Error = Error;
    Result.Ok = false;
    return Result;
  }

  void setError(const std::string &Message) {
    if (!Error.Message.empty())
      return; // keep the innermost (first) diagnostic
    Error.Message = Message;
    Error.Offset = At;
    Error.Line = 1;
    Error.Column = 1;
    for (size_t I = 0; I < At && I < Text.size(); ++I) {
      if (Text[I] == '\n') {
        ++Error.Line;
        Error.Column = 1;
      } else {
        ++Error.Column;
      }
    }
  }

  void skipWhitespace() {
    while (At < Text.size() &&
           (Text[At] == ' ' || Text[At] == '\t' || Text[At] == '\n' ||
            Text[At] == '\r'))
      ++At;
  }

  bool consume(char C) {
    if (At < Text.size() && Text[At] == C) {
      ++At;
      return true;
    }
    return false;
  }

  bool parseLiteral(const char *Word, size_t Length) {
    if (Text.compare(At, Length, Word) != 0)
      return false;
    At += Length;
    return true;
  }

  bool parseValue(Json &Out, int Depth) {
    if (Depth > MaxDepth) {
      setError("nesting deeper than 64 levels");
      return false;
    }
    skipWhitespace();
    if (At >= Text.size()) {
      setError("unexpected end of input");
      return false;
    }
    char C = Text[At];
    switch (C) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::str(std::move(S));
      return true;
    }
    case 't':
      if (parseLiteral("true", 4)) {
        Out = Json::boolean(true);
        return true;
      }
      setError("expected 'true'");
      return false;
    case 'f':
      if (parseLiteral("false", 5)) {
        Out = Json::boolean(false);
        return true;
      }
      setError("expected 'false'");
      return false;
    case 'n':
      if (parseLiteral("null", 4)) {
        Out = Json::null();
        return true;
      }
      setError("expected 'null'");
      return false;
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      setError(std::string("unexpected character '") + C + "'");
      return false;
    }
  }

  bool parseObject(Json &Out, int Depth) {
    ++At; // '{'
    Out = Json::object();
    skipWhitespace();
    if (consume('}'))
      return true;
    while (true) {
      skipWhitespace();
      if (At >= Text.size() || Text[At] != '"') {
        setError("expected a string key");
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      if (Out.find(Key)) {
        setError("duplicate key \"" + Key + "\"");
        return false;
      }
      skipWhitespace();
      if (!consume(':')) {
        setError("expected ':'");
        return false;
      }
      Json Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      Out.set(Key, std::move(Value));
      skipWhitespace();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      setError("expected ',' or '}'");
      return false;
    }
  }

  bool parseArray(Json &Out, int Depth) {
    ++At; // '['
    Out = Json::array();
    skipWhitespace();
    if (consume(']'))
      return true;
    while (true) {
      Json Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      Out.push(std::move(Value));
      skipWhitespace();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      setError("expected ',' or ']'");
      return false;
    }
  }

  /// Appends \p Code as UTF-8.
  static void appendUtf8(std::string &Out, uint32_t Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (At + 4 > Text.size()) {
      setError("truncated \\u escape");
      return false;
    }
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[At + static_cast<size_t>(I)];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else {
        setError("invalid \\u escape digit");
        return false;
      }
    }
    At += 4;
    return true;
  }

  bool parseString(std::string &Out) {
    ++At; // opening quote
    Out.clear();
    while (true) {
      if (At >= Text.size()) {
        setError("unterminated string");
        return false;
      }
      unsigned char C = static_cast<unsigned char>(Text[At]);
      if (C == '"') {
        ++At;
        return true;
      }
      if (C < 0x20) {
        setError("unescaped control character in string");
        return false;
      }
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++At;
        continue;
      }
      ++At; // backslash
      if (At >= Text.size()) {
        setError("unterminated escape");
        return false;
      }
      char E = Text[At++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Code = 0;
        if (!parseHex4(Code))
          return false;
        // Surrogate pair?
        if (Code >= 0xD800 && Code <= 0xDBFF && At + 1 < Text.size() &&
            Text[At] == '\\' && Text[At + 1] == 'u') {
          size_t Save = At;
          At += 2;
          uint32_t Low = 0;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          else
            At = Save; // lone high surrogate, handled below
        }
        // A lone surrogate has no UTF-8 encoding; substitute U+FFFD so the
        // stored string stays valid UTF-8.
        if (Code >= 0xD800 && Code <= 0xDFFF)
          Code = 0xFFFD;
        appendUtf8(Out, Code);
        break;
      }
      default:
        --At;
        setError(std::string("invalid escape '\\") + E + "'");
        return false;
      }
    }
  }

  bool parseNumber(Json &Out) {
    const char *Begin = Text.data();
    const char *Next = nullptr;
    JsonNumber Number;
    const char *Error =
        scanJsonNumber(Begin + At, Begin + Text.size(), Next, Number);
    At = static_cast<size_t>(Next - Begin);
    if (Error) {
      setError(Error);
      return false;
    }
    Out = Number.IsInteger ? Json::integer(Number.Integer)
                           : Json::number(Number.Value);
    return true;
  }

  const std::string &Text;
  size_t At = 0;
  JsonError Error;
};

} // namespace

const char *support::scanJsonNumber(const char *At, const char *End,
                                    const char *&Next, JsonNumber &Out) {
  const char *Start = At;
  auto IsDigit = [End](const char *P) {
    return P < End && *P >= '0' && *P <= '9';
  };
  auto Fail = [&Next](const char *P, const char *Message) {
    Next = P;
    return Message;
  };
  if (At < End && *At == '-')
    ++At;
  if (!IsDigit(At))
    return Fail(Start, "invalid number");
  if (*At == '0') {
    ++At; // strict JSON: no leading zeros
    if (IsDigit(At))
      return Fail(At, "leading zeros are not allowed");
  } else {
    while (IsDigit(At))
      ++At;
  }
  bool Integral = true;
  if (At < End && *At == '.') {
    Integral = false;
    ++At;
    if (!IsDigit(At))
      return Fail(At, "digits must follow the decimal point");
    while (IsDigit(At))
      ++At;
  }
  if (At < End && (*At == 'e' || *At == 'E')) {
    Integral = false;
    ++At;
    if (At < End && (*At == '+' || *At == '-'))
      ++At;
    if (!IsDigit(At))
      return Fail(At, "digits must follow the exponent");
    while (IsDigit(At))
      ++At;
  }
  Next = At;
  Out = JsonNumber();
  if (Integral) {
    // Integer tokens too wide for int64 degrade to double.
    auto [Ptr, Ec] = std::from_chars(Start, At, Out.Integer);
    if (Ec == std::errc() && Ptr == At) {
      Out.IsInteger = true;
      Out.Value = static_cast<double>(Out.Integer);
      return nullptr;
    }
  }
  auto [Ptr, Ec] = std::from_chars(Start, At, Out.Value);
  if (Ec != std::errc() || Ptr != At)
    // Out of range: strtod's inf or (sub)zero is the decoded value.
    Out.Value = std::strtod(std::string(Start, At).c_str(), nullptr);
  return nullptr;
}

JsonParseResult support::parseJson(const std::string &Text) {
  return Parser(Text).run();
}
