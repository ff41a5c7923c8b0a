// Skip-gram-with-negative-sampling (word2vec-style) embedding trainer over
// random walk corpora — the learning half of the paper's §6.7 link
// prediction case study (SNAP's node2vec pipeline: walks -> word2vec ->
// cosine similarity).

#ifndef LIGHTRW_ANALYTICS_EMBEDDING_H_
#define LIGHTRW_ANALYTICS_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "baseline/engine.h"
#include "graph/types.h"

namespace lightrw::analytics {

using baseline::WalkOutput;
using graph::VertexId;

// The context window (5), negatives per positive pair (5) and initial
// learning rate (0.025) are word2vec's defaults, fixed in embedding.cc.
struct EmbeddingConfig {
  uint32_t dimensions = 32;
  uint32_t epochs = 2;
  uint64_t seed = 7;
};

// Dense vertex embeddings produced by Train().
class Embedding {
 public:
  Embedding(VertexId num_vertices, uint32_t dimensions);

  uint32_t dimensions() const { return dimensions_; }
  VertexId num_vertices() const { return num_vertices_; }

  std::span<const float> Vector(VertexId v) const {
    return {data_.data() + static_cast<size_t>(v) * dimensions_,
            dimensions_};
  }
  std::span<float> MutableVector(VertexId v) {
    return {data_.data() + static_cast<size_t>(v) * dimensions_,
            dimensions_};
  }

  // Cosine similarity between the embeddings of u and v, in [-1, 1].
  double CosineSimilarity(VertexId u, VertexId v) const;

 private:
  VertexId num_vertices_;
  uint32_t dimensions_;
  std::vector<float> data_;
};

// Trains SGNS embeddings from a walk corpus. `num_vertices` bounds the
// vertex ids appearing in the corpus.
Embedding TrainEmbedding(const WalkOutput& corpus, VertexId num_vertices,
                         const EmbeddingConfig& config);

}  // namespace lightrw::analytics

#endif  // LIGHTRW_ANALYTICS_EMBEDDING_H_
