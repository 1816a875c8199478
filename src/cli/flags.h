// Minimal command-line flag parsing for the sparsedet CLI.
//
// Supports `--name value` and `--name=value`. Flags are declared by the
// getters: each Get* call records the flag's name, default and help text so
// Usage() can print a complete reference, which a bare `--help` requests.
// Unknown flags are an error (caught by Finish()), which keeps typos from
// silently running the default scenario.
#pragma once

#include <exception>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sparsedet {

// Thrown by FlagParser::Finish() when the command line held a bare
// `--help`: carries Usage() for the caller to print (and exit 0) instead
// of running the command.
class HelpRequested : public std::exception {
 public:
  explicit HelpRequested(std::string usage) : usage_(std::move(usage)) {}
  const char* what() const noexcept override { return usage_.c_str(); }
  const std::string& usage() const { return usage_; }

 private:
  std::string usage_;
};

class FlagParser {
 public:
  // Parses argv[start..argc); throws InvalidArgument on malformed input
  // (e.g. a flag without a value).
  FlagParser(int argc, const char* const* argv, int start = 1);

  // Typed getters; each consumes (marks as recognized) its flag.
  double GetDouble(const std::string& name, double default_value,
                   const std::string& help);
  int GetInt(const std::string& name, int default_value,
             const std::string& help);
  bool GetBool(const std::string& name, bool default_value,
               const std::string& help);
  std::string GetString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help);

  // Throws HelpRequested after a bare --help; otherwise throws
  // InvalidArgument if any provided flag was never consumed.
  void Finish() const;

  // One line per declared flag: --name (default ...): help.
  std::string Usage() const;

  // True if the flag was provided on the command line.
  bool Provided(const std::string& name) const;

  // The provided flags among those declared so far, in declaration order.
  std::vector<std::string> ProvidedSoFar() const;

 private:
  std::string Raw(const std::string& name, const std::string& default_value,
                  const std::string& help, const std::string& type);

  bool help_ = false;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  struct Declared {
    std::string name;
    std::string type;
    std::string default_value;
    std::string help;
  };
  std::vector<Declared> declared_;
};

}  // namespace sparsedet
