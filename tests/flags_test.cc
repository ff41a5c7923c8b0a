#include <gtest/gtest.h>

#include <cstdint>

#include "common/flags.h"

namespace lightrw {
namespace {

TEST(FlagParserTest, DefaultsApply) {
  FlagParser flags;
  flags.Define("length", "walk length", "80");
  flags.Define("rate", "a rate", "0.5");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("length"), 80);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.5);
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags;
  flags.Define("name", "", "x");
  const char* argv[] = {"prog", "--name=value"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_EQ(flags.GetString("name"), "value");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags;
  flags.Define("count", "", "1");
  const char* argv[] = {"prog", "--count", "42"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt("count"), 42);
}

TEST(FlagParserTest, BareBoolean) {
  FlagParser flags;
  flags.Define("verbose", "", "false");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, BooleanVariants) {
  FlagParser flags;
  flags.Define("a", "", "false");
  flags.Define("b", "", "true");
  const char* argv[] = {"prog", "--a=yes", "--b=0"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser flags;
  flags.Define("known", "", "1");
  const char* argv[] = {"prog", "--unknown=3"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, PositionalArguments) {
  // Any argument that is not a --flag is an error, wherever it stands.
  FlagParser flags;
  flags.Define("k", "", "1");
  const char* leading[] = {"prog", "input.txt", "--k=2"};
  Status status = flags.Parse(3, leading);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unexpected argument 'input.txt'"),
            std::string::npos);
  const char* trailing[] = {"prog", "--k=2", "output.txt"};
  EXPECT_FALSE(flags.Parse(3, trailing).ok());
  // A single-dash flag is a stray argument too, not a silent no-op.
  const char* single_dash[] = {"prog", "-k", "3"};
  status = flags.Parse(3, single_dash);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unexpected argument '-k'"),
            std::string::npos);
}

TEST(FlagParserTest, NegativeNumbers) {
  FlagParser flags;
  flags.Define("delta", "", "0");
  const char* argv[] = {"prog", "--delta=-5"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_EQ(flags.GetInt("delta"), -5);
}

TEST(FlagParserTest, TypedIntRejectsMalformedValueAtParse) {
  FlagParser flags;
  flags.DefineInt("length", "walk length", 80, 1, 1000);
  const char* argv[] = {"prog", "--length=abc"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--length"), std::string::npos);
  // The default is untouched after a failed parse.
  EXPECT_EQ(flags.GetInt("length"), 80);
}

TEST(FlagParserTest, TypedIntRejectsTrailingGarbageAndOverflow) {
  FlagParser flags;
  flags.DefineInt("n", "", 0, INT64_MIN, INT64_MAX);
  const char* bad_suffix[] = {"prog", "--n=12x"};
  EXPECT_FALSE(flags.Parse(2, bad_suffix).ok());
  const char* overflow[] = {"prog", "--n=99999999999999999999"};
  EXPECT_FALSE(flags.Parse(2, overflow).ok());
  const char* empty[] = {"prog", "--n="};
  EXPECT_FALSE(flags.Parse(2, empty).ok());
}

TEST(FlagParserTest, TypedIntRejectsOutOfRangeValuesAtParse) {
  FlagParser flags;
  flags.DefineInt("cap", "queue capacity", 64, 1, 1024);
  for (const char* arg : {"--cap=-1", "--cap=0", "--cap=1025"}) {
    const char* argv[] = {"prog", arg};
    const Status status = flags.Parse(2, argv);
    ASSERT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--cap"), std::string::npos);
    EXPECT_NE(status.message().find("[1, 1024]"), std::string::npos);
    EXPECT_EQ(flags.GetInt("cap"), 64);
  }
  const char* low[] = {"prog", "--cap", "1"};
  ASSERT_TRUE(flags.Parse(3, low).ok());
  EXPECT_EQ(flags.GetInt("cap"), 1);
  const char* high[] = {"prog", "--cap=1024"};
  ASSERT_TRUE(flags.Parse(2, high).ok());
  EXPECT_EQ(flags.GetInt("cap"), 1024);
}

TEST(FlagParserTest, TypedIntBoundsReachTheInt64Extremes) {
  FlagParser flags;
  flags.DefineInt("n", "", 0, INT64_MIN, INT64_MAX);
  const char* lowest[] = {"prog", "--n=-9223372036854775808"};
  ASSERT_TRUE(flags.Parse(2, lowest).ok());
  EXPECT_EQ(flags.GetInt("n"), INT64_MIN);
  const char* highest[] = {"prog", "--n=9223372036854775807"};
  ASSERT_TRUE(flags.Parse(2, highest).ok());
  EXPECT_EQ(flags.GetInt("n"), INT64_MAX);
}

TEST(FlagParserDeathTest, TypedIntDefaultMustLieInsideItsBounds) {
  FlagParser flags;
  EXPECT_DEATH(flags.DefineInt("n", "", 5, 0, 4), "default_value");
}

TEST(FlagParserTest, TypedDoubleRejectsMalformedValueAtParse) {
  FlagParser flags;
  flags.DefineDouble("rate", "", 0.5);
  const char* argv[] = {"prog", "--rate=fast"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
  const char* good[] = {"prog", "--rate=0.25"};
  ASSERT_TRUE(flags.Parse(2, good).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
}

TEST(FlagParserTest, TypedBoolRejectsMalformedValueAtParse) {
  FlagParser flags;
  flags.DefineBool("verbose", "", false);
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, TypedBoolBareFormNeverConsumesNextArg) {
  // The bare form leaves the next argument alone: a stray word after it
  // is rejected as an argument of its own, not read as the value.
  FlagParser flags;
  flags.DefineBool("verbose", "", false);
  const char* argv[] = {"prog", "--verbose", "input.txt"};
  const Status status = flags.Parse(3, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unexpected argument 'input.txt'"),
            std::string::npos);
}

TEST(FlagParserTest, TypedDefaultsRoundTrip) {
  FlagParser flags;
  flags.DefineInt("count", "", -3, -10, 10);
  flags.DefineDouble("ratio", "", 0.125);
  flags.DefineBool("on", "", true);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("count"), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.125);
  EXPECT_TRUE(flags.GetBool("on"));
}

TEST(FlagParserTest, HelpTextMentionsFlags) {
  FlagParser flags;
  flags.Define("alpha", "stop probability", "0.15");
  const std::string help = flags.HelpText();
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("stop probability"), std::string::npos);
  EXPECT_NE(help.find("0.15"), std::string::npos);
}

}  // namespace
}  // namespace lightrw
