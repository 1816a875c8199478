#include "engine/input_line.h"

#include "common/error.h"

namespace sparsedet::engine {

InputLine ReadInputLine(std::string_view text, int number, bool too_long) {
  InputLine line;
  line.number = number;
  line.id = JsonValue(number);
  if (too_long) {
    line.kind = InputLine::Kind::kTooLong;
    return line;
  }
  try {
    line.json = ParseJson(text, kMaxLineJsonDepth);
  } catch (const Error& e) {
    // A blank line fails to parse as well; it keeps the message so the
    // async API, which answers every line it is given, can report it.
    line.kind = text.find_first_not_of(" \t\r") == std::string_view::npos
                    ? InputLine::Kind::kBlank
                    : InputLine::Kind::kMalformed;
    line.error = e.what();
    return line;
  }
  line.kind = InputLine::Kind::kRequest;
  if (!line.json.is_object()) return line;
  if (const JsonValue* id = line.json.Find("id");
      id != nullptr && (id->is_string() || id->is_number())) {
    line.id = *id;
  }
  if (const JsonValue* cmd = line.json.Find("cmd")) {
    line.kind = InputLine::Kind::kCommand;
    if (cmd->is_string()) line.cmd = cmd->AsString();
  }
  if (const JsonValue* tenant = line.json.Find("tenant");
      tenant != nullptr && tenant->is_string()) {
    line.tenant = tenant->AsString();
  }
  return line;
}

}  // namespace sparsedet::engine
