// Minimal command-line flag parsing for the tools and examples.
//
// Supports --name=value, --name value, and bare --name for booleans.
// Positional arguments are collected in order. A tool passes its list of
// known flags to CheckKnown, so a misspelt flag is an error instead of a
// silent run with the default.
#ifndef FOODMATCH_COMMON_FLAGS_H_
#define FOODMATCH_COMMON_FLAGS_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fm {

class FlagParser {
 public:
  // Parses argv. Returns false (and fills error()) on malformed input.
  bool Parse(int argc, const char* const* argv);

  // Returns false (and fills error() with "unknown flag --name") when a
  // parsed flag is not in `known`. With several, names the first in
  // alphabetical order.
  bool CheckKnown(std::span<const std::string_view> known);

  bool HasFlag(const std::string& name) const;

  // Typed getters with defaults. Aborts on unparsable numeric values.
  std::string GetString(const std::string& name,
                        const std::string& default_value = "") const;
  double GetDouble(const std::string& name, double default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  bool GetBool(const std::string& name, bool default_value = false) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  // All flags seen, for --help style listings.
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace fm

#endif  // FOODMATCH_COMMON_FLAGS_H_
