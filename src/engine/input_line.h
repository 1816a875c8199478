// The one reader of a JSONL input line.
//
// Every front end — batch, serve and serve-tcp — frames its input into
// lines, numbers every framed line (blank lines included) and hands each
// one here. The reader parses the line once, and everything downstream
// works from its result: the engine plans requests and answers commands,
// the TCP server routes long commands and applies tenant admission. No
// other code parses an input line.
#pragma once

#include <string>
#include <string_view>

#include "common/json.h"

namespace sparsedet::engine {

// Nesting cap for input lines: deep enough for any request or spec,
// shallow enough that a hostile line cannot exhaust the parser's stack.
inline constexpr int kMaxLineJsonDepth = 64;

struct InputLine {
  enum class Kind {
    kBlank,      // whitespace only; front ends skip it
    kTooLong,    // cut by the framer at max_line_bytes
    kMalformed,  // not JSON, or nested past kMaxLineJsonDepth
    kCommand,    // a JSON object with a "cmd" key
    kRequest,    // any other JSON document
  };
  Kind kind = Kind::kBlank;
  int number = 0;      // 1-based position in the stream
  // The top-level "id" when a string or number, else `number`: the id an
  // error about this line is attributed to.
  JsonValue id;
  JsonValue json;      // the parsed document (kCommand, kRequest)
  std::string error;   // the parser's message (kMalformed, kBlank)
  std::string cmd;     // kCommand: the "cmd" value when a string, else ""
  std::string tenant;  // the top-level "tenant" when a string, else ""
};

// Reads one framed line. `too_long` is the framer's truncation flag; such
// a line is not parsed.
InputLine ReadInputLine(std::string_view text, int number, bool too_long);

}  // namespace sparsedet::engine
