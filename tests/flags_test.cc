#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/flags.h"

namespace lightrw {
namespace {

TEST(FlagParserTest, DefaultsApply) {
  FlagParser flags;
  int64_t length = 80;
  double rate = 0.5;
  flags.Bind("length", "walk length", &length);
  flags.Bind("rate", "a rate", &rate);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(length, 80);
  EXPECT_DOUBLE_EQ(rate, 0.5);
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags;
  std::string name = "x";
  flags.Bind("name", "", &name);
  const char* argv[] = {"prog", "--name=value"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_EQ(name, "value");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags;
  uint32_t count = 1;
  flags.Bind("count", "", &count);
  const char* argv[] = {"prog", "--count", "42"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(count, 42u);
}

TEST(FlagParserTest, BareBoolean) {
  FlagParser flags;
  bool verbose = false;
  flags.Bind("verbose", "", &verbose);
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, BooleanVariants) {
  FlagParser flags;
  bool a = false;
  bool b = true;
  flags.Bind("a", "", &a);
  flags.Bind("b", "", &b);
  const char* argv[] = {"prog", "--a=yes", "--b=0"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser flags;
  int64_t known = 1;
  flags.Bind("known", "", &known);
  const char* argv[] = {"prog", "--unknown=3"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, PositionalArguments) {
  // Any argument that is not a --flag is an error, wherever it stands.
  FlagParser flags;
  int64_t k = 1;
  flags.Bind("k", "", &k);
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
  int64_t delta = 0;
  flags.Bind("delta", "", &delta);
  const char* argv[] = {"prog", "--delta=-5"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_EQ(delta, -5);
}

TEST(FlagParserTest, SpaceFormTakesAValueStartingWithOneDash) {
  FlagParser flags;
  int64_t delta = 0;
  uint32_t cap = 64;
  std::string name = "x";
  flags.Bind("delta", "", &delta);
  flags.Bind("cap", "", &cap, 0, 1 << 16);
  flags.Bind("name", "", &name);
  const char* negative[] = {"prog", "--delta", "-5", "--name", "-x"};
  ASSERT_TRUE(flags.Parse(5, negative).ok());
  EXPECT_EQ(delta, -5);
  EXPECT_EQ(name, "-x");
  // An out-of-range negative value is named, not read as "true".
  const char* below[] = {"prog", "--cap", "-1"};
  const Status status = flags.Parse(3, below);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            "invalid value '-1' for --cap: expected a decimal integer in "
            "[0, 65536]");
  EXPECT_EQ(cap, 64u);
}

TEST(FlagParserTest, FlagOtherThanBooleanNeedsAValue) {
  FlagParser flags;
  std::string graph;
  std::string app = "node2vec";
  bool report = false;
  flags.Bind("graph", "", &graph);
  flags.Bind("app", "", &app);
  flags.Bind("report", "", &report);
  const char* last[] = {"prog", "--graph"};
  Status status = flags.Parse(2, last);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--graph needs a value");
  EXPECT_EQ(graph, "");
  // The next argument is a flag, not the value.
  const char* before_flag[] = {"prog", "--app", "--report"};
  status = flags.Parse(3, before_flag);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "--app needs a value");
  EXPECT_EQ(app, "node2vec");
  EXPECT_FALSE(report);
}

TEST(FlagParserTest, TypedIntRejectsMalformedValueAtParse) {
  FlagParser flags;
  uint32_t length = 80;
  flags.Bind("length", "walk length", &length, 1, 1000);
  const char* argv[] = {"prog", "--length=abc"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--length"), std::string::npos);
  // The default is untouched after a failed parse.
  EXPECT_EQ(length, 80u);
}

TEST(FlagParserTest, TypedIntRejectsTrailingGarbageAndOverflow) {
  FlagParser flags;
  int64_t n = 0;
  flags.Bind("n", "", &n);
  const char* bad_suffix[] = {"prog", "--n=12x"};
  EXPECT_FALSE(flags.Parse(2, bad_suffix).ok());
  const char* overflow[] = {"prog", "--n=99999999999999999999"};
  EXPECT_FALSE(flags.Parse(2, overflow).ok());
  const char* empty[] = {"prog", "--n="};
  EXPECT_FALSE(flags.Parse(2, empty).ok());
  EXPECT_EQ(n, 0);
}

TEST(FlagParserTest, TypedIntRejectsOutOfRangeValuesAtParse) {
  FlagParser flags;
  uint32_t cap = 64;
  flags.Bind("cap", "queue capacity", &cap, 1, 1024);
  for (const char* arg : {"--cap=-1", "--cap=0", "--cap=1025"}) {
    const char* argv[] = {"prog", arg};
    const Status status = flags.Parse(2, argv);
    ASSERT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--cap"), std::string::npos);
    EXPECT_NE(status.message().find("[1, 1024]"), std::string::npos);
    EXPECT_EQ(cap, 64u);
  }
  const char* low[] = {"prog", "--cap", "1"};
  ASSERT_TRUE(flags.Parse(3, low).ok());
  EXPECT_EQ(cap, 1u);
  const char* high[] = {"prog", "--cap=1024"};
  ASSERT_TRUE(flags.Parse(2, high).ok());
  EXPECT_EQ(cap, 1024u);
}

TEST(FlagParserTest, TypedIntBoundsReachTheInt64Extremes) {
  FlagParser flags;
  int64_t n = 0;
  flags.Bind("n", "", &n);
  const char* lowest[] = {"prog", "--n=-9223372036854775808"};
  ASSERT_TRUE(flags.Parse(2, lowest).ok());
  EXPECT_EQ(n, INT64_MIN);
  const char* highest[] = {"prog", "--n=9223372036854775807"};
  ASSERT_TRUE(flags.Parse(2, highest).ok());
  EXPECT_EQ(n, INT64_MAX);
}

TEST(FlagParserTest, UnnarrowedIntTakesItsFieldTypesRange) {
  FlagParser flags;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint16_t u16 = 0;
  flags.Bind("u32", "", &u32);
  flags.Bind("u64", "", &u64);
  flags.Bind("u16", "", &u16);
  const char* u32_max[] = {"prog", "--u32=4294967295", "--u16=65535"};
  ASSERT_TRUE(flags.Parse(3, u32_max).ok());
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_EQ(u16, UINT16_MAX);
  const char* u32_past[] = {"prog", "--u32=4294967296"};
  Status status = flags.Parse(2, u32_past);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[0, 4294967295]"), std::string::npos);
  const char* u16_past[] = {"prog", "--u16=65536"};
  EXPECT_FALSE(flags.Parse(2, u16_past).ok());
  // A 64-bit unsigned field stops at 2^63 - 1.
  const char* u64_max[] = {"prog", "--u64=9223372036854775807"};
  ASSERT_TRUE(flags.Parse(2, u64_max).ok());
  EXPECT_EQ(u64, uint64_t{INT64_MAX});
  const char* negative[] = {"prog", "--u64=-1"};
  status = flags.Parse(2, negative);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[0, 9223372036854775807]"),
            std::string::npos);
  EXPECT_EQ(u64, uint64_t{INT64_MAX});
}

TEST(FlagParserDeathTest, TypedIntDefaultMustLieInsideItsBounds) {
  FlagParser flags;
  int n = 5;
  EXPECT_DEATH(flags.Bind("n", "", &n, 0, 4), "default_value");
}

TEST(FlagParserDeathTest, NarrowedRangeMustFitTheFieldType) {
  FlagParser flags;
  uint8_t n = 5;
  EXPECT_DEATH(flags.Bind("n", "", &n, 0, 300), "in_range");
}

TEST(FlagParserDeathTest, EachNameBindsOnce) {
  FlagParser flags;
  bool a = false;
  bool b = false;
  flags.Bind("a", "", &a);
  EXPECT_DEATH(flags.Bind("a", "", &b), "first_binding");
}

TEST(FlagParserTest, TypedDoubleRejectsMalformedValueAtParse) {
  FlagParser flags;
  double rate = 0.5;
  flags.Bind("rate", "", &rate);
  const char* argv[] = {"prog", "--rate=fast"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
  EXPECT_DOUBLE_EQ(rate, 0.5);
  const char* good[] = {"prog", "--rate=0.25"};
  ASSERT_TRUE(flags.Parse(2, good).ok());
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

TEST(FlagParserTest, TypedBoolRejectsMalformedValueAtParse) {
  FlagParser flags;
  bool verbose = false;
  flags.Bind("verbose", "", &verbose);
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
  EXPECT_FALSE(verbose);
}

TEST(FlagParserTest, TypedBoolBareFormNeverConsumesNextArg) {
  // The bare form leaves the next argument alone: a stray word after it
  // is rejected as an argument of its own, not read as the value.
  FlagParser flags;
  bool verbose = false;
  flags.Bind("verbose", "", &verbose);
  const char* argv[] = {"prog", "--verbose", "input.txt"};
  const Status status = flags.Parse(3, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unexpected argument 'input.txt'"),
            std::string::npos);
}

TEST(FlagParserTest, TypedDefaultsRoundTrip) {
  FlagParser flags;
  int32_t count = -3;
  double ratio = 0.125;
  bool on = true;
  flags.Bind("count", "", &count, -10, 10);
  flags.Bind("ratio", "", &ratio);
  flags.Bind("on", "", &on);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(count, -3);
  EXPECT_DOUBLE_EQ(ratio, 0.125);
  EXPECT_TRUE(on);
  EXPECT_EQ(flags.HelpText(),
            "  --count (default: -3)\n      \n"
            "  --on (default: true)\n      \n"
            "  --ratio (default: 0.125)\n      \n");
}

TEST(FlagParserTest, HelpTextMentionsFlags) {
  FlagParser flags;
  double alpha = 0.15;
  flags.Bind("alpha", "stop probability", &alpha);
  const std::string help = flags.HelpText();
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("stop probability"), std::string::npos);
  EXPECT_NE(help.find("0.15"), std::string::npos);
}

TEST(FlagParserTest, HelpTextShowsTheBoundDefaultAfterParse) {
  FlagParser flags;
  std::string engine = "lightrw";
  uint32_t scale = 14;
  flags.Bind("engine", "walk engine", &engine);
  flags.Bind("rmat_scale", "graph scale", &scale, 1, 28);
  const char* argv[] = {"prog", "--engine", "service", "--rmat_scale", "9"};
  ASSERT_TRUE(flags.Parse(5, argv).ok());
  EXPECT_EQ(engine, "service");
  EXPECT_EQ(flags.HelpText(),
            "  --engine (default: lightrw)\n      walk engine\n"
            "  --rmat_scale (default: 14)\n      graph scale\n");
  // So does the help that follows a parse error.
  const char* bad[] = {"prog", "--rmat_scale=99"};
  ASSERT_FALSE(flags.Parse(2, bad).ok());
  EXPECT_NE(flags.HelpText().find("--rmat_scale (default: 14)"),
            std::string::npos);
}

}  // namespace
}  // namespace lightrw
