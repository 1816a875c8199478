#include "common/json.h"

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"

namespace sparsedet {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue().ToString(), "null");
  EXPECT_EQ(JsonValue(true).ToString(), "true");
  EXPECT_EQ(JsonValue(false).ToString(), "false");
  EXPECT_EQ(JsonValue(42).ToString(), "42");
  EXPECT_EQ(JsonValue(-7).ToString(), "-7");
  EXPECT_EQ(JsonValue("hello").ToString(), "\"hello\"");
}

TEST(Json, DoublesRoundTripCompactly) {
  EXPECT_EQ(JsonValue(0.5).ToString(), "0.5");
  EXPECT_EQ(JsonValue(240.0).ToString(), "240");
  EXPECT_EQ(JsonValue(-0.25).ToString(), "-0.25");
  // A value needing many digits still round-trips.
  const double v = 0.9781389029463922;
  double parsed = 0.0;
  sscanf(JsonValue(v).ToString().c_str(), "%lf", &parsed);
  EXPECT_EQ(parsed, v);
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonValue(std::nan("")).ToString(), "null");
  EXPECT_EQ(JsonValue(INFINITY).ToString(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue("back\\slash").ToString(), "\"back\\\\slash\"");
  EXPECT_EQ(JsonValue("line\nbreak").ToString(), "\"line\\nbreak\"");
  EXPECT_EQ(JsonValue(std::string("ctrl\x01")).ToString(),
            "\"ctrl\\u0001\"");
}

// The per-character escaper the run-based one replaced, as the oracle.
std::string OracleEscaped(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (char raw : s) {
    const unsigned char ch = static_cast<unsigned char>(raw);
    if (ch == '"') {
      out += "\\\"";
    } else if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (ch == '\r') {
      out += "\\r";
    } else if (ch < 0x20) {
      out += "\\u00";
      out += kHex[ch >> 4];
      out += kHex[ch & 0xF];
    } else {
      out += raw;
    }
  }
  return out + "\"";
}

TEST(Json, StringEscapingMatchesPerCharacterOracle) {
  // Every byte alone, escapes at both ends and back to back, and random
  // strings over a byte mix rich in characters that need escaping.
  std::vector<std::string> inputs = {"", "\"\"", "\\\n", "\"a", "a\"",
                                     "plain text"};
  for (int b = 0; b < 256; ++b) inputs.emplace_back(1, static_cast<char>(b));
  std::mt19937_64 rng(93);
  for (int i = 0; i < 20000; ++i) {
    std::string s(rng() % 24, ' ');
    for (char& c : s) {
      const std::uint64_t r = rng();
      c = static_cast<char>(r % 4 == 0 ? "\"\\\n\t\r\x01\x1f"[r / 4 % 7]
                                       : r / 4 % 256);
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    EXPECT_EQ(JsonValue(s).ToString(), OracleEscaped(s));
  }
}

TEST(Json, ArraysAndObjects) {
  JsonValue arr = JsonValue::Array();
  arr.Append(1).Append("two").Append(JsonValue());
  EXPECT_EQ(arr.ToString(), "[1,\"two\",null]");

  JsonValue obj = JsonValue::Object();
  obj.Set("n", 240).Set("p", 0.5).Set("tag", "onr");
  EXPECT_EQ(obj.ToString(), "{\"n\":240,\"p\":0.5,\"tag\":\"onr\"}");
}

TEST(Json, NestedStructures) {
  JsonValue inner = JsonValue::Object();
  inner.Set("lo", 0.1).Set("hi", 0.2);
  JsonValue obj = JsonValue::Object();
  obj.Set("ci", std::move(inner));
  JsonValue arr = JsonValue::Array();
  arr.Append(std::move(obj));
  EXPECT_EQ(arr.ToString(), "[{\"ci\":{\"lo\":0.1,\"hi\":0.2}}]");
}

TEST(Json, SetOverwritesExistingKey) {
  JsonValue obj = JsonValue::Object();
  obj.Set("x", 1).Set("x", 2);
  EXPECT_EQ(obj.ToString(), "{\"x\":2}");
}

TEST(Json, TypeMisuseRejected) {
  JsonValue scalar(1);
  EXPECT_THROW(scalar.Append(2), InvalidArgument);
  EXPECT_THROW(scalar.Set("k", 2), InvalidArgument);
  JsonValue arr = JsonValue::Array();
  EXPECT_THROW(arr.Set("k", 2), InvalidArgument);
  JsonValue obj = JsonValue::Object();
  EXPECT_THROW(obj.Append(2), InvalidArgument);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::Array().ToString(), "[]");
  EXPECT_EQ(JsonValue::Object().ToString(), "{}");
}

// ---- Parser ---------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null").is_null());
  EXPECT_TRUE(ParseJson("true").AsBool());
  EXPECT_FALSE(ParseJson("false").AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("42").AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-0.5").AsDouble(), -0.5);
  EXPECT_DOUBLE_EQ(ParseJson("1.25e2").AsDouble(), 125.0);
  EXPECT_DOUBLE_EQ(ParseJson("2E-3").AsDouble(), 0.002);
  EXPECT_EQ(ParseJson("\"hi\"").AsString(), "hi");
  EXPECT_TRUE(ParseJson("  [1, 2]  ").is_array());
}

TEST(JsonParse, ContainersAndAccessors) {
  const JsonValue v = ParseJson(R"({"a": [1, {"b": true}], "c": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Size(), 2u);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->Size(), 2u);
  EXPECT_DOUBLE_EQ(a->At(0).AsDouble(), 1.0);
  EXPECT_TRUE(a->At(1).Find("b")->AsBool());
  EXPECT_TRUE(v.Find("c")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParse, SerializeParseRoundTripIsIdentity) {
  // parse(serialize(v)) must serialize back to the same bytes.
  JsonValue inner = JsonValue::Object();
  inner.Set("p", 0.9781389029463922).Set("n", 240).Set("tag", "a\"b\\c\nd");
  JsonValue v = JsonValue::Array();
  v.Append(std::move(inner)).Append(JsonValue()).Append(true).Append(-1e-12);
  const std::string first = v.ToString();
  const std::string second = ParseJson(first).ToString();
  EXPECT_EQ(first, second);
  const std::string third = ParseJson(second).ToString();
  EXPECT_EQ(second, third);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")").AsString(),
            "a\"b\\c/d\n\t\r\b\f");
  // \u escape decodes to UTF-8 (U+00E9).
  EXPECT_EQ(ParseJson("\"A\\u00e9\"").AsString(), "A\xC3\xA9");
  // Surrogate pair: U+1F600 decodes to 4-byte UTF-8.
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"").AsString(),
            "\xF0\x9F\x98\x80");
  // Escaped control characters round-trip through the serializer.
  EXPECT_EQ(JsonValue(ParseJson("\"\\u0001\"").AsString()).ToString(),
            "\"\\u0001\"");
}

TEST(JsonParse, RejectsNanAndInfinity) {
  EXPECT_THROW(ParseJson("NaN"), JsonParseError);
  EXPECT_THROW(ParseJson("nan"), JsonParseError);
  EXPECT_THROW(ParseJson("Infinity"), JsonParseError);
  EXPECT_THROW(ParseJson("-Infinity"), JsonParseError);
  EXPECT_THROW(ParseJson("[1, NaN]"), JsonParseError);
  // Numbers that overflow a double are rejected, not silently inf.
  EXPECT_THROW(ParseJson("1e999"), JsonParseError);
  EXPECT_THROW(ParseJson("-1e999"), JsonParseError);
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_THROW(ParseJson("{} x"), JsonParseError);
  EXPECT_THROW(ParseJson("1 2"), JsonParseError);
  EXPECT_THROW(ParseJson("[1],"), JsonParseError);
  EXPECT_THROW(ParseJson(""), JsonParseError);
  EXPECT_THROW(ParseJson("   "), JsonParseError);
}

TEST(JsonParse, RejectsMalformedSyntax) {
  EXPECT_THROW(ParseJson("{\"a\":}"), JsonParseError);
  EXPECT_THROW(ParseJson("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(ParseJson("[1,]"), JsonParseError);
  EXPECT_THROW(ParseJson("[1 2]"), JsonParseError);
  EXPECT_THROW(ParseJson("{unquoted: 1}"), JsonParseError);
  EXPECT_THROW(ParseJson("'single'"), JsonParseError);
  EXPECT_THROW(ParseJson("\"unterminated"), JsonParseError);
  EXPECT_THROW(ParseJson("01"), JsonParseError);
  EXPECT_THROW(ParseJson("1."), JsonParseError);
  EXPECT_THROW(ParseJson(".5"), JsonParseError);
  EXPECT_THROW(ParseJson("tru"), JsonParseError);
  EXPECT_THROW(ParseJson("\"bad\\q\""), JsonParseError);
  EXPECT_THROW(ParseJson("\"lone\\ud800\""), JsonParseError);
  EXPECT_THROW(ParseJson("\"ctrl\x01\""), JsonParseError);
  EXPECT_THROW(ParseJson(R"({"a":1,"a":2})"), JsonParseError);
}

TEST(JsonParse, ErrorsCarryUsefulPositions) {
  try {
    ParseJson("{\n  \"a\": tru\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 8);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  try {
    ParseJson("[1, 2] trailing");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 8);
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos);
  }
}

TEST(JsonParse, DepthLimitPreventsStackOverflow) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW(ParseJson(deep), JsonParseError);
  // 200 levels is within the documented limit.
  std::string ok(200, '[');
  ok += "1";
  ok += std::string(200, ']');
  EXPECT_NO_THROW(ParseJson(ok));
}

TEST(JsonParse, AccessorTypeMisuseRejected) {
  EXPECT_THROW(ParseJson("1").AsString(), InvalidArgument);
  EXPECT_THROW(ParseJson("\"s\"").AsDouble(), InvalidArgument);
  EXPECT_THROW(ParseJson("null").AsBool(), InvalidArgument);
  EXPECT_THROW(ParseJson("[1]").Find("k"), InvalidArgument);
  EXPECT_THROW(ParseJson("{}").At(0), InvalidArgument);
  EXPECT_THROW(ParseJson("[1]").At(1), InvalidArgument);
}

TEST(JsonParse, MaxDepthParameterIsEnforced) {
  EXPECT_NO_THROW(ParseJson("[[[1]]]", 3));
  EXPECT_THROW(ParseJson("[[[[1]]]]", 3), JsonParseError);
  EXPECT_NO_THROW(ParseJson(R"({"a":{"b":1}})", 2));
  EXPECT_THROW(ParseJson(R"({"a":{"b":{"c":1}}})", 2), JsonParseError);
  // Scalars sit at depth 0 and always parse.
  EXPECT_NO_THROW(ParseJson("42", 1));
  EXPECT_THROW(ParseJson("42", 0), InvalidArgument);
  EXPECT_THROW(ParseJson("42", -1), InvalidArgument);
}

// Fuzz-style sweep: every truncation and every single-byte mutation of a
// representative request line must either parse or throw JsonParseError —
// never crash, hang, or escape with a different exception type.
TEST(JsonParse, MalformedInputSweepNeverCrashes) {
  const std::string seed =
      R"({"id":"a1","op":"sweep","params":{"nodes":240,"speed":10.5},)"
      R"("sweep":{"param":"nodes","from":60,"to":240,"step":20},)"
      R"("flags":[true,false,null,-1e-3,"A\n"]})";
  const auto check = [](const std::string& text) {
    try {
      (void)ParseJson(text);
    } catch (const JsonParseError&) {
      // expected for malformed variants
    }
  };
  for (std::size_t cut = 0; cut <= seed.size(); ++cut) {
    check(seed.substr(0, cut));
  }
  const char mutations[] = {'\0', '"', '{', '}', '[', ']', ',',
                            ':',  ' ', 'x', '9', '\\', '\n'};
  for (std::size_t pos = 0; pos < seed.size(); ++pos) {
    for (char m : mutations) {
      std::string mutated = seed;
      mutated[pos] = m;
      check(mutated);
    }
  }
}

// ---- Number writer: byte-identical to the printf writer it replaced ------

// The writer AppendJsonNumber replaced, kept as the oracle: "%.0f" for
// integers below 2^53, else "%.Pg" for the first P in 1..16 that sscanf
// parses back to d, else "%.17g".
std::string OracleNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == d) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string WrittenNumber(double d) {
  std::string out;
  AppendJsonNumber(out, d);
  return out;
}

// Compares every value's bytes with the oracle's, and parses each finite
// value's text back.
void ExpectMatchesOracle(const std::vector<double>& values) {
  int mismatches = 0;
  for (double d : values) {
    const std::string written = WrittenNumber(d);
    const std::string oracle = OracleNumber(d);
    const bool round_trips =
        !std::isfinite(d) || ParseJson(written).AsDouble() == d;
    if ((written != oracle || !round_trips) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << d << ": wrote " << written
                    << ", oracle " << oracle;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";
}

TEST(JsonNumber, MatchesOracleOnRandomBitPatterns) {
  std::mt19937_64 rng(20080617);
  std::vector<double> values(200000);
  for (double& d : values) {
    const std::uint64_t bits = rng();
    std::memcpy(&d, &bits, sizeof(d));
  }
  ExpectMatchesOracle(values);
}

TEST(JsonNumber, MatchesOracleOnProbabilities) {
  std::mt19937_64 rng(240);
  std::vector<double> values(200000);
  for (double& d : values) d = static_cast<double>(rng() >> 11) * 0x1p-53;
  ExpectMatchesOracle(values);
}

TEST(JsonNumber, MatchesOracleOnPowersOfTwoAndTheirNeighbours) {
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double d : {std::nextafter(p, 0.0), p, std::nextafter(p, HUGE_VAL)}) {
      values.push_back(d);
      values.push_back(-d);
    }
  }
  ExpectMatchesOracle(values);
}

TEST(JsonNumber, MatchesOracleOnShortDecimals) {
  // m x 10^e with at most 5 significant digits, each the double nearest its
  // decimal. The grid crosses %g's switch to an exponent and the integer
  // path; the draws cover the whole exponent range.
  std::vector<double> values;
  const auto add = [&values](int m, int e) {
    char text[32];
    std::snprintf(text, sizeof(text), "%de%d", m, e);
    values.push_back(std::strtod(text, nullptr));
  };
  for (int m = 1; m <= 99999; m += 13) {
    for (int e = -10; e <= 6; ++e) add(m, e);
  }
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20000; ++i) {
    add(1 + static_cast<int>(rng() % 99999),
        -323 + static_cast<int>(rng() % 627));
  }
  ExpectMatchesOracle(values);
}

// The integer writer the fast path replaced: to_chars(d, fixed, 0).
std::string FixedZeroForm(double d) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), d,
                                        std::chars_format::fixed, 0)
                              .ptr);
}

TEST(JsonNumber, IntegralFastPathMatchesFixedForm) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 9007199254740991.0,
                                -9007199254740991.0};
  for (double p = 10.0; p < 9.007199254740992e15; p *= 10.0) {
    values.push_back(p);
    values.push_back(-p);
  }
  // Magnitudes spread evenly over every bit length below 2^53.
  std::mt19937_64 rng(2053);
  for (int i = 0; i < 1000000; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 53);
    const double magnitude = static_cast<double>(rng() >> (64 - bits));
    values.push_back((rng() & 1) != 0 ? -magnitude : magnitude);
  }
  int mismatches = 0;
  for (double d : values) {
    const std::string written = WrittenNumber(d);
    const std::string fixed = FixedZeroForm(d);
    if (written != fixed && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << d << ": wrote " << written
                    << ", fixed form " << fixed;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";
  EXPECT_EQ(WrittenNumber(-0.0), "-0");
}

TEST(JsonNumber, NamedCases) {
  const std::pair<double, const char*> cases[] = {
      {-0.0, "-0"},
      {5e-324, "5e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {1e16, "1e+16"},
      {9007199254740991.0, "9007199254740991"},  // 2^53 - 1: integer path
      {9007199254740992.0, "9007199254740992"},  // 2^53: general path
      // Shortest form 7.120236347223045e-307; "%.16g" does not parse back.
      {std::ldexp(1.0, -1017), "7.1202363472230444e-307"},
      {1e-05, "1e-05"},  // %g switches to an exponent below 1e-4
      {0.0001, "0.0001"},
  };
  for (const auto& [d, text] : cases) {
    EXPECT_EQ(WrittenNumber(d), text);
    EXPECT_EQ(OracleNumber(d), text);
    const double parsed = ParseJson(text).AsDouble();
    EXPECT_EQ(parsed, d) << text;
    EXPECT_EQ(std::signbit(parsed), std::signbit(d)) << text;
  }
}

}  // namespace
}  // namespace sparsedet
