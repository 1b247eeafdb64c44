#include <gtest/gtest.h>

#include "common/flags.h"
#include "tools/known_flags.h"

namespace fm {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(args.size()), args.data()));
  return parser;
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser p = ParseArgs({"--city=B", "--scale=40.5"});
  EXPECT_EQ(p.GetString("city"), "B");
  EXPECT_DOUBLE_EQ(p.GetDouble("scale", 0), 40.5);
}

TEST(FlagsTest, SpaceSyntax) {
  FlagParser p = ParseArgs({"--policy", "greedy", "--k", "12"});
  EXPECT_EQ(p.GetString("policy"), "greedy");
  EXPECT_EQ(p.GetInt("k", 0), 12);
}

TEST(FlagsTest, BareBooleans) {
  FlagParser p = ParseArgs({"--quiet", "--verbose=false"});
  EXPECT_TRUE(p.GetBool("quiet"));
  EXPECT_FALSE(p.GetBool("verbose", true));
  EXPECT_FALSE(p.GetBool("absent", false));
  EXPECT_TRUE(p.GetBool("absent", true));
}

TEST(FlagsTest, Positionals) {
  FlagParser p = ParseArgs({"input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
  EXPECT_EQ(p.positional()[1], "output.csv");
}

TEST(FlagsTest, DoubleDashStopsParsing) {
  FlagParser p = ParseArgs({"--k=3", "--", "--not-a-flag"});
  EXPECT_EQ(p.GetInt("k", 0), 3);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  FlagParser p = ParseArgs({});
  EXPECT_EQ(p.GetString("city", "A"), "A");
  EXPECT_DOUBLE_EQ(p.GetDouble("scale", 80.0), 80.0);
  EXPECT_EQ(p.GetInt("k", 7), 7);
  EXPECT_FALSE(p.HasFlag("city"));
}

TEST(FlagsTest, LastValueWins) {
  FlagParser p = ParseArgs({"--k=1", "--k=2"});
  EXPECT_EQ(p.GetInt("k", 0), 2);
}

TEST(FlagsTest, CheckKnownAcceptsListedFlags) {
  FlagParser p = ParseArgs({"--city=B", "--quiet", "input.csv"});
  constexpr std::string_view kKnown[] = {"city", "quiet", "scale"};
  EXPECT_TRUE(p.CheckKnown(kKnown));
  EXPECT_TRUE(p.error().empty());
}

TEST(FlagsTest, CheckKnownNamesTheUnknownFlag) {
  FlagParser p = ParseArgs({"--city=B", "--threds=4", "--zz"});
  constexpr std::string_view kKnown[] = {"city", "threads"};
  EXPECT_FALSE(p.CheckKnown(kKnown));
  EXPECT_EQ(p.error(), "unknown flag --threds");  // first in sorted order
}

// A misspelt fmsim or fmserve flag fails instead of running the defaults.
TEST(FlagsTest, ToolsRejectMisspeltFlags) {
  FlagParser fmsim = ParseArgs({"--city=A", "--threds=4"});
  EXPECT_FALSE(fmsim.CheckKnown(kFmsimFlags));
  EXPECT_EQ(fmsim.error(), "unknown flag --threds");
  EXPECT_TRUE(ParseArgs({"--city=A", "--threads=4", "--profile"})
                  .CheckKnown(kFmsimFlags));

  FlagParser fmserve = ParseArgs({"--producers=2", "--verfy"});
  EXPECT_FALSE(fmserve.CheckKnown(kFmserveFlags));
  EXPECT_EQ(fmserve.error(), "unknown flag --verfy");
  EXPECT_TRUE(ParseArgs({"--producers=2", "--verify"})
                  .CheckKnown(kFmserveFlags));
}

// fmsim --scenario runs no Simulator, so it rejects the day-replay profile
// flags it would otherwise ignore.
TEST(FlagsTest, ScenarioModeRejectsProfileFlags) {
  for (const char* flag : {"--profile", "--profile-out=p.json"}) {
    FlagParser p = ParseArgs({"--scenario=flash-crowd", "--verify", flag});
    EXPECT_FALSE(p.CheckKnown(kFmsimScenarioFlags)) << flag;
    EXPECT_EQ(p.error().rfind("unknown flag --profile", 0), 0u) << p.error();
  }
  EXPECT_TRUE(ParseArgs({"--scenario=flash-crowd", "--stream",
                         "--producers=2", "--verify", "--trace-out=t.json"})
                  .CheckKnown(kFmsimScenarioFlags));
}

}  // namespace
}  // namespace fm
