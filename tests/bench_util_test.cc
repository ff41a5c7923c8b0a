#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.h"

namespace lightrw::bench {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t end; (end = text.find('\n', start)) != std::string::npos;
       start = end + 1) {
    lines.push_back(text.substr(start, end - start));
  }
  EXPECT_EQ(start, text.size()) << "text must end with a newline";
  return lines;
}

// A text-only, a json-only, a Percent(1) and a Num(0) column beside plain
// string and bool columns.
Table DemoTable() {
  Table table("demo", {{"name", "name", 8},
                       {"", "note", 6},
                       {"ratio", "ratio", 8, Percent(1)},
                       {"count", "count", 7, Num(0)},
                       {"hidden", ""},
                       {"flag", "flag", 5}});
  table.Add({"a", "x", 0.1234, uint64_t{42}, 1.5, true});
  table.Add({"overlong!", "yy", 1.0, uint64_t{7}, -2.0, false});
  table.AddNote("a closing note");
  return table;
}

TEST(BenchTableTest, TextPadsShownColumnsAndSkipsJsonOnlyOnes) {
  const std::vector<std::string> lines = Lines(DemoTable().Text());
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "");
  EXPECT_EQ(lines[1], "== demo ==");
  char context[160];
  std::snprintf(context, sizeof(context),
                "(dataset stand-ins scaled by 2^-%u, query cap %zu; "
                "LightRW times are simulated cycles at 300 MHz)",
                ScaleShift(), MaxQueries());
  EXPECT_EQ(lines[2], context);
  EXPECT_EQ(lines[3], "name    note  ratio   count  flag ");
  EXPECT_EQ(lines[4], "a       x     12.3%   42     on   ");
  // A cell wider than its column is printed whole, with no padding.
  EXPECT_EQ(lines[5], "overlong!yy    100.0%  7      off  ");
  EXPECT_EQ(lines[6], "a closing note");
}

TEST(BenchTableTest, JsonKeepsColumnOrderAndExactKinds) {
  const std::vector<obs::Json> rows = DemoTable().JsonRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].Dump(),
            R"({"name":"a","ratio":0.1234,"count":42,"hidden":1.5,)"
            R"("flag":true})");
  EXPECT_EQ(rows[1].Dump(),
            R"({"name":"overlong!","ratio":1,"count":7,"hidden":-2,)"
            R"("flag":false})");
  EXPECT_EQ(rows[0].Find("name")->kind(), obs::Json::Kind::kString);
  EXPECT_EQ(rows[0].Find("ratio")->kind(), obs::Json::Kind::kDouble);
  EXPECT_EQ(rows[0].Find("count")->kind(), obs::Json::Kind::kUint);
  EXPECT_EQ(rows[0].Find("flag")->kind(), obs::Json::Kind::kBool);
  // Doubles stay doubles even where their text has no fraction.
  EXPECT_EQ(rows[1].Find("ratio")->kind(), obs::Json::Kind::kDouble);
  EXPECT_EQ(rows[0].Find("note"), nullptr);
}

TEST(BenchQueriesTest, RepeatedQueriesZeroMeansOnePerNonIsolatedVertex) {
  graph::RmatOptions options;
  options.scale = 8;
  options.edge_factor = 4;
  options.seed = kBenchSeed;
  const graph::CsrGraph g = graph::GenerateRmat(options);
  const size_t non_isolated = g.CountNonIsolatedVertices();
  ASSERT_GT(non_isolated, 0u);
  ASSERT_LT(non_isolated, g.num_vertices());

  const auto all = RepeatedQueries(g, 5, 0);
  ASSERT_EQ(all.size(), non_isolated);
  std::set<graph::VertexId> starts;
  for (const auto& q : all) {
    starts.insert(q.start);
    EXPECT_GT(g.Degree(q.start), 0u);
    EXPECT_EQ(q.length, 5u);
  }
  EXPECT_EQ(starts.size(), non_isolated);

  // A nonzero count is exact and wraps around the vertex set.
  const auto repeated = RepeatedQueries(g, 5, non_isolated + 3);
  ASSERT_EQ(repeated.size(), non_isolated + 3);
  EXPECT_EQ(repeated[non_isolated].start, all[0].start);
  EXPECT_EQ(RepeatedQueries(g, 5, 3).size(), 3u);
}

TEST(BenchEnvTest, ParseEnvUintAcceptsDecimalDigitsUpToMax) {
  EXPECT_EQ(ParseEnvUint("LIGHTRW_SCALE_SHIFT", nullptr, 7, 31).value(), 7u);
  EXPECT_EQ(ParseEnvUint("LIGHTRW_SCALE_SHIFT", "", 7, 31).value(), 7u);
  EXPECT_EQ(ParseEnvUint("LIGHTRW_SCALE_SHIFT", "0", 7, 31).value(), 0u);
  EXPECT_EQ(ParseEnvUint("LIGHTRW_SCALE_SHIFT", "011", 7, 31).value(), 11u);
  EXPECT_EQ(ParseEnvUint("LIGHTRW_SCALE_SHIFT", "31", 7, 31).value(), 31u);
  EXPECT_EQ(
      ParseEnvUint("LIGHTRW_MAX_QUERIES", "4294967295", 8192, UINT32_MAX)
          .value(),
      4294967295u);
  EXPECT_EQ(ParseEnvUint("N", "18446744073709551615", 0, UINT64_MAX).value(),
            UINT64_MAX);
}

TEST(BenchEnvTest, ParseEnvUintRejectsAnythingElseNamingTheVariable) {
  const auto expect_rejected = [](const char* name, const char* value,
                                  uint64_t max) {
    const StatusOr<uint64_t> parsed = ParseEnvUint(name, value, 0, max);
    ASSERT_FALSE(parsed.ok()) << name << "=" << value;
    EXPECT_NE(parsed.status().ToString().find(name), std::string::npos)
        << parsed.status().ToString();
  };
  for (const char* value : {"abc", "32", "-1", "+1", " 1", "1 ", "1e3",
                            "0x10", "99999999999999999999999"}) {
    expect_rejected("LIGHTRW_SCALE_SHIFT", value, 31);
  }
  for (const char* value : {"abc", "4294967296", "-1"}) {
    expect_rejected("LIGHTRW_MAX_QUERIES", value, UINT32_MAX);
  }
  expect_rejected("N", "18446744073709551616", UINT64_MAX);
}

}  // namespace
}  // namespace lightrw::bench
