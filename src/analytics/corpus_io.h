// Walk corpus serialization: one whitespace-separated walk per line, the
// corpus.txt that walk_tool exports. Lets the walk generation and
// embedding-training stages run as separate processes (as SNAP's node2vec
// pipeline does).

#ifndef LIGHTRW_ANALYTICS_CORPUS_IO_H_
#define LIGHTRW_ANALYTICS_CORPUS_IO_H_

#include <string>

#include "baseline/engine.h"
#include "common/status.h"

namespace lightrw::analytics {

// Writes one whitespace-separated walk per line.
Status WriteCorpusText(const baseline::WalkOutput& corpus,
                       const std::string& path);

// Reads a text corpus written by WriteCorpusText (or any file of
// whitespace-separated vertex-id lines).
StatusOr<baseline::WalkOutput> ReadCorpusText(const std::string& path);

}  // namespace lightrw::analytics

#endif  // LIGHTRW_ANALYTICS_CORPUS_IO_H_
