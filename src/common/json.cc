#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace sparsedet {

JsonValue JsonValue::Array() {
  JsonValue v;
  v.value_ = ArrayType{};
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.value_ = ObjectType{};
  return v;
}

bool JsonValue::AsBool() const {
  SPARSEDET_REQUIRE(is_bool(), "AsBool requires a JSON bool");
  return std::get<bool>(value_);
}

double JsonValue::AsDouble() const {
  SPARSEDET_REQUIRE(is_number(), "AsDouble requires a JSON number");
  return std::get<double>(value_);
}

const std::string& JsonValue::AsString() const {
  SPARSEDET_REQUIRE(is_string(), "AsString requires a JSON string");
  return std::get<std::string>(value_);
}

std::size_t JsonValue::Size() const {
  if (const ArrayType* arr = std::get_if<ArrayType>(&value_)) {
    return arr->size();
  }
  SPARSEDET_REQUIRE(is_object(), "Size requires a JSON array or object");
  return std::get<ObjectType>(value_).size();
}

const JsonValue& JsonValue::At(std::size_t index) const {
  SPARSEDET_REQUIRE(is_array(), "At requires a JSON array");
  const ArrayType& arr = std::get<ArrayType>(value_);
  SPARSEDET_REQUIRE(index < arr.size(), "JSON array index out of range");
  return arr[index];
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  SPARSEDET_REQUIRE(is_object(), "Find requires a JSON object");
  for (const auto& [existing_key, value] : std::get<ObjectType>(value_)) {
    if (existing_key == key) return &value;
  }
  return nullptr;
}

const JsonValue::ObjectType& JsonValue::Fields() const {
  SPARSEDET_REQUIRE(is_object(), "Fields requires a JSON object");
  return std::get<ObjectType>(value_);
}

const JsonValue::ArrayType& JsonValue::Items() const {
  SPARSEDET_REQUIRE(is_array(), "Items requires a JSON array");
  return std::get<ArrayType>(value_);
}

JsonValue& JsonValue::Append(JsonValue v) {
  SPARSEDET_REQUIRE(is_array(), "Append requires a JSON array");
  std::get<ArrayType>(value_).push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  SPARSEDET_REQUIRE(is_object(), "Set requires a JSON object");
  auto& fields = std::get<ObjectType>(value_);
  for (auto& [existing_key, existing_value] : fields) {
    if (existing_key == key) {
      existing_value = std::move(v);
      return *this;
    }
  }
  fields.emplace_back(key, std::move(v));
  return *this;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Characters that need no escape are appended a run at a time.
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char ch = static_cast<unsigned char>(*p);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(run, p);
    run = p + 1;
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += "\\u00";
        out += kHex[ch >> 4];
        out += kHex[ch & 0xF];
    }
  }
  out.append(run, end);
  out += '"';
}

}  // namespace

void AppendJsonNumber(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Large enough for every form below: at most 17 significant digits, a
  // sign, a point and "e-308", or "0.000" plus 17 digits.
  char buf[32];
  char* const end = buf + sizeof(buf);
  // Exactly representable integers print as integers, as "%.0f" does:
  // below 2^53 the int64_t conversion is exact, and its digits are the
  // fixed form's. Only -0.0 needs its sign kept by hand.
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    out.append(buf,
               std::to_chars(buf, end, static_cast<std::int64_t>(d)).ptr);
    return;
  }
  // printf's "%.Pg" for the smallest P that parses back to d. No P below
  // the digit count D of the shortest round-trip form can, so the search
  // starts at D. P = D itself can fail where the shortest form is not the
  // correctly rounded D-digit value (2^-1017: shortest ...045e-307,
  // "%.16g" ...044e-307), hence the parse-back of every candidate.
  const char* const sci_end =
      std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buf; p != sci_end && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  for (int precision = digits;; ++precision) {
    char* const last =
        std::to_chars(buf, end, d, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buf, last, parsed);
    if (parsed == d || precision >= 17) {
      out.append(buf, last);
      return;
    }
  }
}

void JsonValue::AppendTo(std::string& out) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&value_)) {
    AppendJsonNumber(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    AppendEscaped(out, *s);
  } else if (const ArrayType* arr = std::get_if<ArrayType>(&value_)) {
    out += '[';
    for (std::size_t i = 0; i < arr->size(); ++i) {
      if (i != 0) out += ',';
      (*arr)[i].AppendTo(out);
    }
    out += ']';
  } else {
    const ObjectType& obj = std::get<ObjectType>(value_);
    out += '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i != 0) out += ',';
      AppendEscaped(out, obj[i].first);
      out += ':';
      obj[i].second.AppendTo(out);
    }
    out += '}';
  }
}

std::string JsonValue::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue ParseDocument() {
    SkipWhitespace();
    JsonValue value = ParseValue(0);
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing garbage after JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    int line = 1;
    int column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << ", column " << column << ": "
       << message;
    throw JsonParseError(os.str(), line, column);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  char Next() {
    if (AtEnd()) Fail("unexpected end of input");
    return text_[pos_++];
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void Expect(char c) {
    if (AtEnd() || Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void ExpectLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      Fail("invalid literal (expected " + std::string(word) + ")");
    }
    pos_ += word.size();
  }

  JsonValue ParseValue(int depth) {
    if (depth > max_depth_) Fail("nesting too deep");
    if (AtEnd()) Fail("unexpected end of input");
    switch (Peek()) {
      case 'n':
        ExpectLiteral("null");
        return JsonValue();
      case 't':
        ExpectLiteral("true");
        return JsonValue(true);
      case 'f':
        ExpectLiteral("false");
        return JsonValue(false);
      case '"':
        return JsonValue(ParseString());
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        if (Peek() == '-' || (Peek() >= '0' && Peek() <= '9')) {
          return JsonValue(ParseNumber());
        }
        // Common near-JSON inputs get a pointed message.
        if (text_.substr(pos_, 3) == "NaN" || text_.substr(pos_, 3) == "nan") {
          Fail("NaN is not valid JSON");
        }
        if (text_.substr(pos_, 8) == "Infinity" ||
            text_.substr(pos_, 9) == "-Infinity") {
          Fail("Infinity is not valid JSON");
        }
        Fail("unexpected character");
    }
  }

  JsonValue ParseArray(int depth) {
    Expect('[');
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWhitespace();
      arr.Append(ParseValue(depth + 1));
      SkipWhitespace();
      if (AtEnd()) Fail("unterminated array");
      const char c = Next();
      if (c == ']') return arr;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or ']' in array");
      }
    }
  }

  JsonValue ParseObject(int depth) {
    Expect('{');
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') Fail("expected object key string");
      const std::string key = ParseString();
      if (obj.Find(key) != nullptr) {
        Fail("duplicate object key \"" + key + "\"");
      }
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      obj.Set(key, ParseValue(depth + 1));
      SkipWhitespace();
      if (AtEnd()) Fail("unterminated object");
      const char c = Next();
      if (c == '}') return obj;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or '}' in object");
      }
    }
  }

  unsigned ParseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = Next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        Fail("invalid \\u escape (expected 4 hex digits)");
      }
    }
    return value;
  }

  void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (AtEnd()) Fail("unterminated string");
      const char c = Next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        Fail("raw control character in string (use \\u escape)");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = Next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = ParseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (AtEnd() || Peek() != '\\') Fail("lone high surrogate");
            ++pos_;
            if (AtEnd() || Peek() != 'u') Fail("lone high surrogate");
            ++pos_;
            const unsigned low = ParseHex4();
            if (low < 0xDC00 || low > 0xDFFF) Fail("invalid surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            Fail("lone low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          --pos_;
          Fail("invalid escape sequence");
      }
    }
  }

  double ParseNumber() {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    // Integer part: 0, or [1-9][0-9]*.
    if (AtEnd() || Peek() < '0' || Peek() > '9') Fail("invalid number");
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        Fail("leading zeros are not allowed");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // Fraction.
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Fail("expected digits after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // Exponent.
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Fail("expected digits in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      Fail("number overflows a double");
    }
    return value;
  }

  std::string_view text_;
  int max_depth_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue ParseJson(std::string_view text, int max_depth) {
  if (max_depth < 1) {
    throw InvalidArgument("ParseJson max_depth must be >= 1");
  }
  Parser parser(text, max_depth);
  return parser.ParseDocument();
}

}  // namespace sparsedet
