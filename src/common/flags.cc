#include "common/flags.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace fm {

bool FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      for (int j = i + 1; j < argc; ++j) positional_.push_back(argv[j]);
      break;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      error_ = "empty flag name";
      return false;
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value (if the next token is not itself a flag), else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
  return true;
}

bool FlagParser::CheckKnown(std::span<const std::string_view> known) {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
  }
  return true;
}

bool FlagParser::HasFlag(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  FM_CHECK_MSG(end != nullptr && *end == '\0',
               "flag --" << name << " is not a number: " << it->second);
  return value;
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  FM_CHECK_MSG(end != nullptr && *end == '\0',
               "flag --" << name << " is not an integer: " << it->second);
  return static_cast<int>(value);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace fm
