#include "graph/generators.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "graph/builder.h"
#include "rng/rng.h"

namespace lightrw::graph {

namespace {

// Draws one R-MAT edge by descending `scale` levels of the recursive
// 2x2 partition.
EdgeInput DrawRmatEdge(const RmatOptions& options,
                       rng::Xoshiro256StarStar& gen) {
  VertexId src = 0;
  VertexId dst = 0;
  for (uint32_t level = 0; level < options.scale; ++level) {
    const double r = gen.NextUnit();
    src <<= 1;
    dst <<= 1;
    if (r < options.a) {
      // top-left: no bits set
    } else if (r < options.a + options.b) {
      dst |= 1;
    } else if (r < options.a + options.b + options.c) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
  }
  return EdgeInput{src, dst, 1, 0};
}

}  // namespace

CsrGraph GenerateRmat(const RmatOptions& options) {
  LIGHTRW_CHECK(options.scale >= 1 && options.scale <= 30);
  const double total = options.a + options.b + options.c + options.d;
  LIGHTRW_CHECK(std::abs(total - 1.0) < 1e-9);

  const VertexId n = VertexId{1} << options.scale;
  const uint64_t m = static_cast<uint64_t>(options.edge_factor) * n;
  rng::Xoshiro256StarStar gen(options.seed);
  GraphBuilder builder(n, options.undirected);
  builder.Reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    EdgeInput e = DrawRmatEdge(options, gen);
    if (e.src == e.dst) {
      continue;  // drop self loops
    }
    builder.AddEdge(e.src, e.dst);
  }
  builder.RandomizeAttributes(kNumVertexLabels, options.num_relations,
                              kMaxEdgeWeight, options.seed ^ 0xa5a5a5a5ULL);
  return std::move(builder).Build();
}

CsrGraph GenerateErdosRenyi(VertexId num_vertices, uint64_t num_edges,
                            bool undirected, uint64_t seed) {
  LIGHTRW_CHECK(num_vertices >= 2);
  rng::Xoshiro256StarStar gen(seed);
  GraphBuilder builder(num_vertices, undirected);
  builder.Reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    const VertexId src = static_cast<VertexId>(gen.NextBounded(num_vertices));
    VertexId dst = static_cast<VertexId>(gen.NextBounded(num_vertices));
    if (src == dst) {
      dst = (dst + 1) % num_vertices;
    }
    builder.AddEdge(src, dst);
  }
  builder.RandomizeAttributes(kNumVertexLabels, /*num_relations=*/4,
                              kMaxEdgeWeight, seed ^ 0x5a5a5a5aULL);
  return std::move(builder).Build();
}

const DatasetInfo& GetDatasetInfo(Dataset dataset) {
  // |V|, |E| from the paper's Table 2. rmat_a encodes how skewed the degree
  // distribution is: web crawls (UK) are the most skewed, citation graphs
  // the least.
  static const DatasetInfo kInfos[] = {
      {"YT", "youtube", 1140000, 2990000, true, 0.57},
      {"UP", "us-patents", 3780000, 16520000, false, 0.48},
      {"LJ", "liveJournal", 4800000, 68900000, true, 0.57},
      {"OR", "orkut", 3100000, 117200000, true, 0.55},
      {"UK", "uk2002", 18520000, 298110000, false, 0.63},
  };
  return kInfos[static_cast<int>(dataset)];
}

CsrGraph MakeDatasetStandIn(Dataset dataset, uint32_t scale_shift,
                            uint64_t seed) {
  const DatasetInfo& info = GetDatasetInfo(dataset);
  const uint64_t target_vertices =
      std::max<uint64_t>(info.num_vertices >> scale_shift, 64);
  const uint64_t target_edges =
      std::max<uint64_t>(info.num_edges >> scale_shift, 256);

  // R-MAT generates on a power-of-two vertex set; we fold ids into the
  // target range, which preserves the skew of the distribution.
  const uint32_t scale = CeilLog2(target_vertices);
  const VertexId n = static_cast<VertexId>(target_vertices);
  // Undirected builds materialize each input edge twice, so halve the draw
  // count to hit the paper's |E| (which counts directed edge slots).
  uint64_t draws = target_edges;
  if (info.undirected) {
    draws = CeilDiv(draws, 2);
  }

  RmatOptions options;
  options.scale = scale;
  options.edge_factor = 1;  // unused below; we draw explicitly
  options.a = info.rmat_a;
  options.b = (1.0 - info.rmat_a) * 0.42;
  options.c = (1.0 - info.rmat_a) * 0.42;
  options.d = 1.0 - options.a - options.b - options.c;
  options.seed = seed;

  rng::Xoshiro256StarStar gen(seed);
  GraphBuilder builder(n, info.undirected);
  builder.Reserve(draws);
  for (uint64_t i = 0; i < draws; ++i) {
    EdgeInput e = DrawRmatEdge(options, gen);
    const VertexId src = e.src % n;
    const VertexId dst = e.dst % n;
    if (src == dst) {
      continue;
    }
    builder.AddEdge(src, dst);
  }
  builder.RandomizeAttributes(kNumVertexLabels, /*num_relations=*/4,
                              kMaxEdgeWeight, seed ^ 0x3c3c3c3cULL);
  return std::move(builder).Build();
}

}  // namespace lightrw::graph
