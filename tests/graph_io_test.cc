#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace lightrw::graph {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/lightrw_io_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(content.c_str(), f);
    std::fclose(f);
  }
};

TEST_F(GraphIoTest, ReadsSimpleEdgeList) {
  const std::string path = TempPath("simple.txt");
  WriteFile(path,
            "# comment line\n"
            "0 1 5 1\n"
            "1 2\n"
            "% another comment\n"
            "2 0 3\n");
  auto result = ReadEdgeList(path, /*undirected=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CsrGraph& g = *result;
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.NeighborWeights(0)[0], 5u);
  EXPECT_EQ(g.NeighborRelations(0)[0], 1);
  EXPECT_EQ(g.NeighborWeights(1)[0], 1u);  // default weight
  EXPECT_EQ(g.NeighborWeights(2)[0], 3u);
}

TEST_F(GraphIoTest, ReadsUndirected) {
  const std::string path = TempPath("undirected.txt");
  WriteFile(path, "0 1\n");
  auto result = ReadEdgeList(path, /*undirected=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
  EXPECT_TRUE(result->HasEdge(1, 0));
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  auto result = ReadEdgeList(TempPath("does_not_exist.txt"), false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("bad.txt");
  WriteFile(path, "0 1\nnot numbers\n");
  auto result = ReadEdgeList(path, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, OverflowingRelationRejected) {
  const std::string path = TempPath("badrel.txt");
  WriteFile(path, "0 1 1 300\n");
  auto result = ReadEdgeList(path, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(GraphIoTest, ZeroWeightRejected) {
  const std::string path = TempPath("badweight.txt");
  WriteFile(path, "0 1 0\n");
  auto result = ReadEdgeList(path, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(GraphIoTest, EmptyFileRejected) {
  const std::string path = TempPath("empty.txt");
  WriteFile(path, "# only comments\n");
  auto result = ReadEdgeList(path, false);
  ASSERT_FALSE(result.ok());
}

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  RmatOptions options;
  options.scale = 8;
  options.seed = 21;
  const CsrGraph original = GenerateRmat(options);
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteEdgeList(original, path).ok());
  auto reloaded = ReadEdgeList(path, /*undirected=*/false);
  ASSERT_TRUE(reloaded.ok());
  // Labels are not part of the text format; compare topology + attributes.
  ASSERT_EQ(reloaded->num_edges(), original.num_edges());
  for (VertexId v = 0; v < original.num_vertices(); ++v) {
    if (original.Degree(v) == 0) {
      continue;  // trailing isolated vertices may be trimmed by max-id
    }
    ASSERT_EQ(reloaded->Degree(v), original.Degree(v));
    for (size_t i = 0; i < original.Neighbors(v).size(); ++i) {
      ASSERT_EQ(reloaded->Neighbors(v)[i], original.Neighbors(v)[i]);
      ASSERT_EQ(reloaded->NeighborWeights(v)[i],
                original.NeighborWeights(v)[i]);
    }
  }
}

// A comment line is skipped whole, however long: a 514-byte comment
// whose tail parses as "7 9" adds no edge and no vertex.
TEST_F(GraphIoTest, LongCommentEndingInDigitsAddsNoEdge) {
  const std::string path = TempPath("long_comment.txt");
  WriteFile(path, "# " + std::string(509, 'x') + " 7 9\n0 1\n1 2\n");
  auto result = ReadEdgeList(path, /*undirected=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_vertices(), 3u);
  EXPECT_EQ(result->num_edges(), 2u);
}

TEST_F(GraphIoTest, MalformedLineAfterLongCommentNamesItsLine) {
  const std::string path = TempPath("long_comment_bad.txt");
  WriteFile(path, "# " + std::string(2000, 'x') + "\n0 1\nnot numbers\n");
  auto result = ReadEdgeList(path, /*undirected=*/false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(path + ":3:"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace lightrw::graph
