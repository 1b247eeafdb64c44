// The flags each command-line tool accepts. Main() passes its list to
// FlagParser::CheckKnown, so a misspelt or unsupported flag stops the tool
// with an error that names it. Keep each list in step with the flags the
// tool reads and with its usage text.
#ifndef FOODMATCH_TOOLS_KNOWN_FLAGS_H_
#define FOODMATCH_TOOLS_KNOWN_FLAGS_H_

#include <string_view>

namespace fm {

// fmsim replaying a generated day through the Simulator.
inline constexpr std::string_view kFmsimFlags[] = {
    "city", "scale", "policy", "start", "end", "fleet", "day", "delta", "eta",
    "gamma", "k", "threads", "shards", "stream", "intake-capacity",
    "no-prestage", "no-incremental", "verify-no-incremental", "wal-dir",
    "snapshot-every", "verify-restore", "profile", "profile-out", "trace-out",
    "trace-prefix", "per-slot", "geojson", "scenario", "help",
};

// fmsim --scenario: a stress-scenario replay. It runs no Simulator, so the
// day-replay flags (--profile, --fleet, --wal-dir, ...) do not apply.
inline constexpr std::string_view kFmsimScenarioFlags[] = {
    "scenario", "stress-seed", "scenario-log", "city", "scale", "start", "end",
    "day", "delta", "threads", "shards", "intake-capacity", "no-prestage",
    "no-incremental", "policy", "k", "stream", "producers", "verify",
    "trace-out", "help",
};

// fmserve.
inline constexpr std::string_view kFmserveFlags[] = {
    "city", "scale", "policy", "start", "end", "fleet", "day", "delta",
    "scenario", "stress-seed", "threads", "shards", "producers",
    "intake-capacity", "no-prestage", "no-incremental", "speedup", "wal-dir",
    "snapshot-every", "restore", "log", "write-log", "out", "profile",
    "trace-out", "metrics-out", "metrics-every", "verify", "help",
};

}  // namespace fm

#endif  // FOODMATCH_TOOLS_KNOWN_FLAGS_H_
