//===- support/Json.h - Minimal JSON reader/writer --------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value with a strict parser and a compact
/// writer, backing the versioned wire protocol of `stagg serve` (api/
/// Protocol.h). Design points:
///
///  * Objects preserve insertion order (responses render in a stable field
///    order, so logs diff cleanly) and reject duplicate keys on parse.
///  * Numbers remember whether they were written as integers, so counters
///    like "expansions" round-trip without a decimal point.
///  * One number grammar and one conversion: scanJsonNumber is the strict
///    scanner behind the parser, and the execute frame's typed decoder
///    (api/Protocol.cpp) calls it too. Both try scanShortJsonInteger
///    first, an exact few-nanosecond path for the short integers that fill
///    most tensor payloads; the strict scanner owns every other token and
///    every diagnostic. One number formatter: appendJsonNumber renders
///    every non-integer number the writer emits, and its span form
///    appendJsonNumbers renders the execute result's cells.
///  * Parse failures carry the 1-based line/column of the offending byte —
///    surfaced verbatim to serve clients, who edit their request bodies by
///    hand more often than not.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SUPPORT_JSON_H
#define STAGG_SUPPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stagg {
namespace support {

/// One JSON value (null, bool, number, string, array, or object).
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : K(Kind::Null) {}

  static Json null() { return Json(); }
  static Json boolean(bool Value) {
    Json J;
    J.K = Kind::Bool;
    J.BoolValue = Value;
    return J;
  }
  static Json number(double Value) {
    Json J;
    J.K = Kind::Number;
    J.NumValue = Value;
    return J;
  }
  static Json integer(int64_t Value) {
    Json J;
    J.K = Kind::Number;
    J.NumValue = static_cast<double>(Value);
    J.IntValue = Value;
    J.IsInteger = true;
    return J;
  }
  static Json str(std::string Value) {
    Json J;
    J.K = Kind::String;
    J.StrValue = std::move(Value);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isInteger() const { return K == Kind::Number && IsInteger; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolValue; }
  double asNumber() const { return NumValue; }
  int64_t asInteger() const {
    return IsInteger ? IntValue : static_cast<int64_t>(NumValue);
  }
  const std::string &asString() const { return StrValue; }

  /// Array elements (valid for arrays only).
  const std::vector<Json> &items() const { return Items; }

  /// Object members in insertion order (valid for objects only).
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Object lookup; nullptr when absent (or not an object).
  const Json *find(const std::string &Key) const;

  /// Appends to an array.
  Json &push(Json Value);

  /// Sets (or replaces) an object member, keeping first-insertion order.
  Json &set(const std::string &Key, Json Value);

  /// Renders the value as compact single-line JSON (no trailing newline).
  std::string dump() const;

private:
  Kind K;
  bool BoolValue = false;
  double NumValue = 0;
  int64_t IntValue = 0;
  bool IsInteger = false;
  std::string StrValue;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;
};

/// Where and why a parse failed. Line/Column are 1-based.
struct JsonError {
  std::string Message;
  size_t Offset = 0;
  int Line = 1;
  int Column = 1;

  /// "malformed JSON at line 1 column 7: expected ':'".
  std::string describe() const;
};

/// Outcome of parseJson.
struct JsonParseResult {
  Json Value;
  JsonError Error;
  bool Ok = false;

  bool ok() const { return Ok; }
};

/// Parses exactly one JSON value from \p Text (leading/trailing whitespace
/// allowed, anything else after the value is an error). Rejects duplicate
/// object keys and nesting deeper than 64 levels.
JsonParseResult parseJson(const std::string &Text);

/// Escapes \p Text as the *inside* of a JSON string literal (no quotes).
std::string escapeJsonString(const std::string &Text);

/// Appends the wire spelling of \p Value to \p Out: byte-identical to
/// printf("%.12g"), with a non-finite value rendered as `null` (JSON has no
/// Inf/NaN). Integral values with |v| < 1e12, +0.0 included, take an
/// integer fast path (every such value has at most 12 digits, so "%.12g"
/// prints it exactly); everything else, -0.0 included, goes through
/// std::to_chars(general, 12).
void appendJsonNumber(std::string &Out, double Value);

/// Appends \p Count cells separated by ',' (no brackets), each spelled as
/// appendJsonNumber spells it. Cells are formatted into a stack chunk that
/// is appended once per chunk, not once per cell.
void appendJsonNumbers(std::string &Out, const double *Values, size_t Count);

/// One scanned JSON number. Integral tokens (no fraction, no exponent) that
/// fit int64 set IsInteger, with Value the nearest double to Integer ("-0"
/// is the integer 0, so it decodes to +0.0); every other token is a double.
struct JsonNumber {
  double Value = 0;
  int64_t Integer = 0;
  bool IsInteger = false;
};

/// The exact short-integer path in front of scanJsonNumber. When [At, End)
/// starts with a token matching -?(0|[1-9][0-9]{0,15}) followed by the end
/// of input or a byte that cannot continue a number (anything but a digit,
/// '.', 'e' or 'E'), stores its value in \p Out and returns the byte past
/// the token; otherwise returns nullptr and the caller takes the strict
/// scanner. Sixteen digits always fit int64, so the token's value is exact
/// and double(Out) is the double scanJsonNumber decodes; "-0" gives 0.
/// Inline because the execute frame's cell loop calls it once per cell.
inline const char *scanShortJsonInteger(const char *At, const char *End,
                                        int64_t &Out) {
  const bool Negative = At < End && *At == '-';
  const char *P = At + Negative;
  if (P == End)
    return nullptr;
  unsigned Digit = static_cast<unsigned char>(*P) - unsigned('0');
  if (Digit > 9)
    return nullptr;
  uint64_t Value = Digit;
  ++P;
  if (Digit != 0) {
    const char *Last = End - P > 15 ? P + 15 : End;
    while (P < Last &&
           (Digit = static_cast<unsigned char>(*P) - unsigned('0')) <= 9) {
      Value = Value * 10 + Digit;
      ++P;
    }
  }
  if (P < End) {
    const char C = *P;
    if (static_cast<unsigned>(C - '0') <= 9 || C == '.' || C == 'e' ||
        C == 'E')
      return nullptr;
  }
  Out = Negative ? -static_cast<int64_t>(Value) : static_cast<int64_t>(Value);
  return P;
}

/// Scans one strict JSON number starting at \p At (no leading '+', no
/// leading zeros, digits on both sides of '.' and after the exponent) and
/// converts it in place: short integers through scanShortJsonInteger,
/// every other token through std::from_chars. A value from_chars reports
/// out of range (1e400, 1e-400) falls back to strtod, so it decodes to the
/// same inf or zero. On success returns nullptr and sets \p Next past the
/// token; on failure returns the diagnostic and sets \p Next to the byte
/// it points at (the parser's error column).
const char *scanJsonNumber(const char *At, const char *End, const char *&Next,
                           JsonNumber &Out);

} // namespace support
} // namespace stagg

#endif // STAGG_SUPPORT_JSON_H
