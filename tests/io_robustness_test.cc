// Robustness of the edge-list reader, the file reader walk_tool --graph
// calls, against corrupted inputs: random bytes, truncations at every
// prefix length, and hostile lines must produce an error Status or a
// graph whose every edge endpoint is one of its vertices — never a crash.
// The text corpus reader, the oracle for corpus.txt, gets the same
// random-bytes sweep.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/corpus_io.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "rng/rng.h"

namespace lightrw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/lightrw_fuzz_" + name;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

void WriteText(const std::string& path, const std::string& text) {
  WriteBytes(path, std::vector<uint8_t>(text.begin(), text.end()));
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  rng::Xoshiro256StarStar gen(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(gen.NextBounded(256));
  }
  return bytes;
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> bytes(1 << 12);
  const size_t total = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(total);
  return bytes;
}

// Loads `path` and checks the reader's contract: an error, or a graph
// whose every edge endpoint is below num_vertices(). Returns whether the
// file loaded.
bool LoadsValidGraphOrFails(const std::string& path) {
  const auto result = graph::ReadEdgeList(path, /*undirected=*/false);
  if (!result.ok()) {
    return false;
  }
  const graph::CsrGraph& g = *result;
  EXPECT_GT(g.num_edges(), 0u);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const graph::VertexId dst : g.Neighbors(v)) {
      EXPECT_LT(dst, g.num_vertices()) << "edge " << v << "->" << dst;
    }
  }
  return true;
}

class IoFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IoFuzzTest, EdgeListReaderSurvivesRandomBytes) {
  const std::string path = TempPath("edges_rand.txt");
  WriteBytes(path, RandomBytes(512, GetParam()));
  LoadsValidGraphOrFails(path);
}

// Random walk lines of ids below 10^9, with up to two bytes overwritten by
// arbitrary ones, so that the accepted path is fuzzed as well as the
// error path.
TEST_P(IoFuzzTest, CorpusReaderSurvivesRandomBytes) {
  rng::Xoshiro256StarStar gen(GetParam() ^ 0xff);
  std::vector<uint8_t> bytes;
  while (bytes.size() < 512) {
    for (uint64_t d = 0, n = 1 + gen.NextBounded(9); d < n; ++d) {
      bytes.push_back(static_cast<uint8_t>('0' + gen.NextBounded(10)));
    }
    bytes.push_back(gen.NextBounded(4) == 0 ? '\n' : ' ');
  }
  for (uint64_t i = 0, n = gen.NextBounded(3); i < n; ++i) {
    bytes[gen.NextBounded(bytes.size())] =
        static_cast<uint8_t>(gen.NextBounded(256));
  }
  const std::string path = TempPath("corpus_rand.txt");
  WriteBytes(path, bytes);
  const auto result = analytics::ReadCorpusText(path);
  if (!result.ok()) {
    return;
  }
  const baseline::WalkOutput& corpus = *result;
  ASSERT_GT(corpus.num_paths(), 0u);
  EXPECT_EQ(corpus.offsets.front(), 0u);
  EXPECT_EQ(corpus.offsets.back(), corpus.vertices.size());
  for (size_t i = 0; i + 1 < corpus.offsets.size(); ++i) {
    EXPECT_LT(corpus.offsets[i], corpus.offsets[i + 1]) << "empty walk " << i;
  }
  for (const graph::VertexId v : corpus.vertices) {
    EXPECT_LT(v, graph::kInvalidVertex);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Every strict prefix of a valid edge list, cut mid-number, mid-line and
// mid-comment alike, loads as a smaller valid graph or fails cleanly.
TEST(IoTruncationTest, EdgeListEveryPrefixLoadsOrFails) {
  graph::GraphBuilder builder(1001, false);
  builder.AddEdge(0, 1, 2, 1);
  builder.AddEdge(1, 1000, 4294967295u, 255);
  builder.AddEdge(1000, 3, 1, 2);
  const graph::CsrGraph g = std::move(builder).Build();
  const std::string edges_path = TempPath("edges_full.txt");
  ASSERT_TRUE(graph::WriteEdgeList(g, edges_path).ok());
  const std::vector<uint8_t> edges = ReadAllBytes(edges_path);
  std::vector<uint8_t> bytes = {'#', ' ', 'h', 'e', 'a', 'd', '\n'};
  bytes.insert(bytes.end(), edges.begin(), edges.end());

  const std::string trunc_path = TempPath("edges_trunc.txt");
  size_t loaded = 0;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteBytes(trunc_path,
               std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    loaded += LoadsValidGraphOrFails(trunc_path) ? 1 : 0;
  }
  EXPECT_GT(loaded, 0u);
  // The full file loads the original graph.
  WriteBytes(trunc_path, bytes);
  const auto full = graph::ReadEdgeList(trunc_path, false);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->num_vertices(), g.num_vertices());
  EXPECT_EQ(full->num_edges(), g.num_edges());
}

TEST(IoHostileTest, EdgeListWithHugeNumbers) {
  const std::string path = TempPath("huge.txt");
  WriteText(path, "99999999999999999999 1\n");
  EXPECT_FALSE(graph::ReadEdgeList(path, false).ok());
}

// kInvalidVertex is not a vertex id, and "%llu" wraps "-1" to 2^64 - 1.
TEST(IoHostileTest, EdgeListReservedAndNegativeIdsRejected) {
  const std::string path = TempPath("reserved.txt");
  for (const char* line : {"4294967295 0\n", "0 4294967295\n", "-1 0\n"}) {
    WriteText(path, line);
    const auto result = graph::ReadEdgeList(path, false);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange) << line;
  }
}

// A data line longer than any fixed buffer is still one line.
TEST(IoHostileTest, EdgeListLongDataLineIsOneEdge) {
  const std::string path = TempPath("long_line.txt");
  WriteText(path, "0" + std::string(100000, ' ') + "7 3\n");
  const auto result = graph::ReadEdgeList(path, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_vertices(), 8u);
  EXPECT_EQ(result->num_edges(), 1u);
  EXPECT_EQ(result->NeighborWeights(0)[0], 3u);
}

// An embedded NUL ends what the line parser sees of that line.
TEST(IoHostileTest, EdgeListEmbeddedNulEndsTheLine) {
  const std::string path = TempPath("nul.txt");
  WriteText(path, std::string("0 1\0 9 9\n1 2\n", 13));
  const auto result = graph::ReadEdgeList(path, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_vertices(), 3u);
  EXPECT_EQ(result->NeighborWeights(0)[0], 1u);
}

}  // namespace
}  // namespace lightrw
