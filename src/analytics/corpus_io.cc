#include "analytics/corpus_io.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace lightrw::analytics {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Status WriteCorpusText(const baseline::WalkOutput& corpus,
                       const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return IoError("cannot open " + path + " for writing");
  }
  for (size_t i = 0; i < corpus.num_paths(); ++i) {
    const auto path_span = corpus.Path(i);
    for (size_t j = 0; j < path_span.size(); ++j) {
      if (std::fprintf(f.get(), j == 0 ? "%u" : " %u", path_span[j]) < 0) {
        return IoError("write failed for " + path);
      }
    }
    if (std::fputc('\n', f.get()) == EOF) {
      return IoError("write failed for " + path);
    }
  }
  return Status::Ok();
}

StatusOr<baseline::WalkOutput> ReadCorpusText(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) {
    return IoError("cannot open " + path);
  }
  baseline::WalkOutput corpus;
  std::string line;
  int c;
  int line_number = 1;
  bool any = false;
  while (true) {
    line.clear();
    while ((c = std::fgetc(f.get())) != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
    }
    if (!line.empty()) {
      const char* p = line.c_str();
      char* end = nullptr;
      while (*p != '\0') {
        const unsigned long long v = std::strtoull(p, &end, 10);
        if (end == p) {
          return InvalidArgumentError(path + ":" +
                                      std::to_string(line_number) +
                                      ": expected vertex ids");
        }
        if (v >= graph::kInvalidVertex) {
          return OutOfRangeError(path + ":" + std::to_string(line_number) +
                                 ": vertex id too large");
        }
        corpus.vertices.push_back(static_cast<graph::VertexId>(v));
        p = end;
        while (*p == ' ' || *p == '\t' || *p == '\r') {
          ++p;
        }
      }
      corpus.offsets.push_back(
          static_cast<uint32_t>(corpus.vertices.size()));
      any = true;
    }
    if (c == EOF) {
      break;
    }
    ++line_number;
  }
  if (!any) {
    return InvalidArgumentError(path + ": no walks");
  }
  return corpus;
}

}  // namespace lightrw::analytics
