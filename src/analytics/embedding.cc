#include "analytics/embedding.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "rng/rng.h"

namespace lightrw::analytics {

Embedding::Embedding(VertexId num_vertices, uint32_t dimensions)
    : num_vertices_(num_vertices),
      dimensions_(dimensions),
      data_(static_cast<size_t>(num_vertices) * dimensions, 0.0f) {
  LIGHTRW_CHECK(dimensions >= 1);
}

double Embedding::CosineSimilarity(VertexId u, VertexId v) const {
  const auto a = Vector(u);
  const auto b = Vector(v);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (uint32_t i = 0; i < dimensions_; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) {
    return 0.0;
  }
  return dot / std::sqrt(na * nb);
}

namespace {

// word2vec's defaults: context positions on each side of the center,
// negatives per positive pair, and the initial learning rate (decayed
// linearly to 5% of it over the run).
constexpr uint32_t kEmbeddingWindow = 5;
constexpr uint32_t kEmbeddingNegativeSamples = 5;
constexpr float kEmbeddingLearningRate = 0.025f;

float FastSigmoid(float x) {
  if (x > 6.0f) return 1.0f;
  if (x < -6.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

// Unigram^0.75 negative-sampling table (word2vec convention).
std::vector<VertexId> BuildNegativeTable(const WalkOutput& corpus,
                                         VertexId num_vertices,
                                         size_t table_size) {
  std::vector<double> freq(num_vertices, 0.0);
  for (const VertexId v : corpus.vertices) {
    freq[v] += 1.0;
  }
  double total = 0.0;
  for (auto& f : freq) {
    f = std::pow(f, 0.75);
    total += f;
  }
  std::vector<VertexId> table;
  table.reserve(table_size);
  if (total == 0.0) {
    table.assign(table_size, 0);
    return table;
  }
  double cumulative = 0.0;
  VertexId v = 0;
  for (size_t i = 0; i < table_size; ++i) {
    const double target = (static_cast<double>(i) + 0.5) / table_size;
    while (v + 1 < num_vertices && cumulative + freq[v] < target * total) {
      cumulative += freq[v];
      ++v;
    }
    table.push_back(v);
  }
  return table;
}

}  // namespace

Embedding TrainEmbedding(const WalkOutput& corpus, VertexId num_vertices,
                         const EmbeddingConfig& config) {
  LIGHTRW_CHECK(num_vertices >= 1);
  Embedding in(num_vertices, config.dimensions);
  Embedding out(num_vertices, config.dimensions);

  rng::Xoshiro256StarStar gen(config.seed);
  // Initialize the input vectors with small random values, as word2vec does.
  for (VertexId v = 0; v < num_vertices; ++v) {
    auto vec = in.MutableVector(v);
    for (auto& x : vec) {
      x = (static_cast<float>(gen.NextUnit()) - 0.5f) / config.dimensions;
    }
  }

  const auto negative_table =
      BuildNegativeTable(corpus, num_vertices, 1 << 16);
  std::vector<float> grad(config.dimensions);

  const uint64_t total_tokens =
      static_cast<uint64_t>(corpus.vertices.size()) * config.epochs;
  uint64_t processed = 0;

  for (uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (size_t p = 0; p < corpus.num_paths(); ++p) {
      const auto path = corpus.Path(p);
      for (size_t center = 0; center < path.size(); ++center, ++processed) {
        const float lr =
            kEmbeddingLearningRate *
            std::max(0.05f, 1.0f - static_cast<float>(processed) /
                                       (total_tokens + 1));
        const size_t lo =
            center >= kEmbeddingWindow ? center - kEmbeddingWindow : 0;
        const size_t hi = std::min(path.size(), center + kEmbeddingWindow + 1);
        const VertexId target = path[center];
        for (size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx == center) {
            continue;
          }
          const VertexId input = path[ctx];
          auto v_in = in.MutableVector(input);
          std::fill(grad.begin(), grad.end(), 0.0f);
          // One positive pair plus kEmbeddingNegativeSamples negatives.
          for (uint32_t s = 0; s <= kEmbeddingNegativeSamples; ++s) {
            VertexId sample;
            float label;
            if (s == 0) {
              sample = target;
              label = 1.0f;
            } else {
              sample = negative_table[gen.NextBounded(negative_table.size())];
              if (sample == target) {
                continue;
              }
              label = 0.0f;
            }
            auto v_out = out.MutableVector(sample);
            float dot = 0.0f;
            for (uint32_t d = 0; d < config.dimensions; ++d) {
              dot += v_in[d] * v_out[d];
            }
            const float g = (label - FastSigmoid(dot)) * lr;
            for (uint32_t d = 0; d < config.dimensions; ++d) {
              grad[d] += g * v_out[d];
              v_out[d] += g * v_in[d];
            }
          }
          for (uint32_t d = 0; d < config.dimensions; ++d) {
            v_in[d] += grad[d];
          }
        }
      }
    }
  }
  return in;
}

}  // namespace lightrw::analytics
