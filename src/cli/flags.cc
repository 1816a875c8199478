#include "cli/flags.h"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace sparsedet {

FlagParser::FlagParser(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    SPARSEDET_REQUIRE(arg.rfind("--", 0) == 0,
                      "expected a --flag, got: " + arg);
    arg = arg.substr(2);
    if (arg == "help") {
      help_ = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      SPARSEDET_REQUIRE(i + 1 < argc, "flag --" + arg + " needs a value");
      values_[arg] = argv[++i];
    }
  }
  for (const auto& [name, value] : values_) consumed_[name] = false;
}

std::string FlagParser::Raw(const std::string& name,
                            const std::string& default_value,
                            const std::string& help,
                            const std::string& type) {
  declared_.push_back({name, type, default_value, help});
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  consumed_[name] = true;
  return it->second;
}

double FlagParser::GetDouble(const std::string& name, double default_value,
                             const std::string& help) {
  std::ostringstream def;
  def << default_value;
  const std::string raw = Raw(name, def.str(), help, "float");
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  SPARSEDET_REQUIRE(end != nullptr && *end == '\0' && !raw.empty(),
                    "--" + name + " expects a number, got: " + raw);
  return parsed;
}

int FlagParser::GetInt(const std::string& name, int default_value,
                       const std::string& help) {
  const std::string raw =
      Raw(name, std::to_string(default_value), help, "int");
  char* end = nullptr;
  const long parsed = std::strtol(raw.c_str(), &end, 10);
  SPARSEDET_REQUIRE(end != nullptr && *end == '\0' && !raw.empty() &&
                        parsed >= std::numeric_limits<int>::min() &&
                        parsed <= std::numeric_limits<int>::max(),
                    "--" + name + " expects an integer, got: " + raw);
  return static_cast<int>(parsed);
}

bool FlagParser::GetBool(const std::string& name, bool default_value,
                         const std::string& help) {
  const std::string raw =
      Raw(name, default_value ? "true" : "false", help, "bool");
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  SPARSEDET_REQUIRE(false, "--" + name + " expects true/false, got: " + raw);
  return false;  // unreachable
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value,
                                  const std::string& help) {
  return Raw(name, default_value, help, "string");
}

void FlagParser::Finish() const {
  if (help_) throw HelpRequested(Usage());
  for (const auto& [name, used] : consumed_) {
    SPARSEDET_REQUIRE(used, "unknown flag: --" + name);
  }
}

bool FlagParser::Provided(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> FlagParser::ProvidedSoFar() const {
  std::vector<std::string> names;
  for (const Declared& d : declared_) {
    if (Provided(d.name)) names.push_back(d.name);
  }
  return names;
}

std::string FlagParser::Usage() const {
  std::ostringstream os;
  for (const Declared& d : declared_) {
    os << "  --" << d.name << " <" << d.type << ">  (default "
       << d.default_value << ")  " << d.help << "\n";
  }
  return os.str();
}

}  // namespace sparsedet
