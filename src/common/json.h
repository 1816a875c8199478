// Minimal JSON value tree, serializer and strict parser, for the
// machine-readable CLI output and the batch-engine request protocol.
//
// Only what the tooling needs: null, bool, finite numbers, strings, arrays
// and objects (insertion-ordered). The parser is strict RFC-8259: one value
// per input, no trailing garbage, no NaN/Inf, and every rejection carries a
// line:column position so batch users can fix their request files.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"

namespace sparsedet {

class JsonValue {
 public:
  using ArrayType = std::vector<JsonValue>;
  using ObjectType = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}                       // null
  JsonValue(bool b) : value_(b) {}                       // NOLINT(runtime/explicit)
  JsonValue(double d) : value_(d) {}                     // NOLINT
  JsonValue(int i) : value_(static_cast<double>(i)) {}   // NOLINT
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}   // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}     // NOLINT

  static JsonValue Array();
  static JsonValue Object();

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<ArrayType>(value_); }
  bool is_object() const { return std::holds_alternative<ObjectType>(value_); }

  // Scalar accessors; each requires the matching type.
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Container accessors. Size() requires an array or object; At() an array.
  std::size_t Size() const;
  const JsonValue& At(std::size_t index) const;
  // Object lookup; nullptr when the key is absent. Requires is_object().
  const JsonValue* Find(const std::string& key) const;
  // Insertion-ordered fields; requires is_object().
  const ObjectType& Fields() const;
  // Elements; requires is_array().
  const ArrayType& Items() const;

  // Array append; requires is_array().
  JsonValue& Append(JsonValue v);
  // Object insert-or-overwrite; requires is_object().
  JsonValue& Set(const std::string& key, JsonValue v);

  // Compact single-line serialization. Numbers are written by
  // AppendJsonNumber.
  std::string ToString() const;

 private:
  void AppendTo(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, ArrayType,
               ObjectType>
      value_;
};

// Appends the JSON text of `d`: integral values with |d| < 2^53 as "%.0f",
// other finite values in printf's "%.Pg" layout with the fewest digits P
// that parse back to `d`, and non-finite values as null (JSON has no NaN).
// The one number formatter: response text and result-cache keys use it.
void AppendJsonNumber(std::string& out, double d);

// Raised by ParseJson. `line` and `column` are 1-based positions into the
// parsed text; what() already embeds them.
class JsonParseError : public InvalidArgument {
 public:
  JsonParseError(const std::string& what, int line, int column)
      : InvalidArgument(what), line_(line), column_(column) {}
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

// Default nesting cap for ParseJson. Callers facing untrusted input (the
// engine's request path) pass a smaller `max_depth` so a deeply nested
// document is rejected before it can drive unbounded recursion/allocation.
constexpr int kDefaultMaxJsonDepth = 256;

// Parses exactly one JSON value from `text` (surrounding whitespace is
// allowed, anything else after the value is an error). Strict mode:
// duplicate object keys, NaN/Infinity literals, numbers that overflow a
// double, lone surrogates and control characters inside strings are all
// rejected. Nesting beyond `max_depth` levels (>= 1) is rejected. Throws
// JsonParseError.
JsonValue ParseJson(std::string_view text,
                    int max_depth = kDefaultMaxJsonDepth);

}  // namespace sparsedet
