#include <gtest/gtest.h>

#include "analytics/corpus_io.h"

namespace lightrw::analytics {
namespace {

using baseline::WalkOutput;

WalkOutput MakeCorpus() {
  WalkOutput corpus;
  corpus.vertices = {0, 1, 2, 5, 5, 7, 9, 0};
  corpus.offsets = {0, 3, 4, 8};
  return corpus;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/lightrw_corpus_" + name;
}

void ExpectCorporaEqual(const WalkOutput& a, const WalkOutput& b) {
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(CorpusIoTest, TextRoundTrip) {
  const WalkOutput corpus = MakeCorpus();
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteCorpusText(corpus, path).ok());
  auto loaded = ReadCorpusText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCorporaEqual(corpus, *loaded);
}

TEST(CorpusIoTest, SingleVertexWalks) {
  WalkOutput corpus;
  corpus.vertices = {42};
  corpus.offsets = {0, 1};
  const std::string path = TempPath("single.txt");
  ASSERT_TRUE(WriteCorpusText(corpus, path).ok());
  auto loaded = ReadCorpusText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_paths(), 1u);
  EXPECT_EQ(loaded->Path(0)[0], 42u);
}

TEST(CorpusIoTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadCorpusText(TempPath("nope.txt")).status().code(),
            StatusCode::kIoError);
}

TEST(CorpusIoTest, TextRejectsGarbage) {
  const std::string path = TempPath("garbage.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2 three\n", f);
  std::fclose(f);
  auto loaded = ReadCorpusText(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorpusIoTest, EmptyTextFileRejected) {
  const std::string path = TempPath("empty.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(ReadCorpusText(path).ok());
}

}  // namespace
}  // namespace lightrw::analytics
