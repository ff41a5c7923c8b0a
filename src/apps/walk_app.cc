#include "apps/walk_app.h"
#include "apps/ppr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "rng/rng.h"

namespace lightrw::apps {
namespace {

// round(Node2VecApp::kWeightScale / x) if x is positive and that is a
// nonzero Weight; 0 otherwise (a NaN fails every comparison).
Weight FixedPointScale(double x) {
  const double scale = std::round(Node2VecApp::kWeightScale / x);
  return x > 0.0 && scale >= 1.0 && scale <= UINT32_MAX
             ? static_cast<Weight>(scale)
             : 0;
}

// First element >= v in the sorted range [first, last). Probes first[0],
// first[1], first[3], first[7], ... until one is >= v, then binary-searches
// the gap before it, so skipping d elements costs O(log d).
const VertexId* Gallop(const VertexId* first, const VertexId* last,
                       VertexId v) {
  const size_t n = static_cast<size_t>(last - first);
  size_t lo = 0;  // every element before first + lo is < v
  size_t hi = 0;
  while (hi < n && first[hi] < v) {
    lo = hi + 1;
    hi = 2 * hi + 1;
  }
  return std::lower_bound(first + lo, first + std::min(hi, n), v);
}

}  // namespace

void WalkApp::DynamicWeights(const CsrGraph& graph, const WalkState& state,
                             uint32_t first, std::span<Weight> out) const {
  const auto neighbors = graph.Neighbors(state.curr).subspan(first);
  const auto weights = graph.NeighborWeights(state.curr).subspan(first);
  const auto relations = graph.NeighborRelations(state.curr).subspan(first);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = DynamicWeight(graph, state, neighbors[i], weights[i],
                           relations[i]);
  }
}

MetaPathApp::MetaPathApp(std::vector<Relation> relation_path)
    : path_(std::move(relation_path)) {
  LIGHTRW_CHECK(!path_.empty());
}

Weight MetaPathApp::DynamicWeight(const CsrGraph& /*graph*/,
                                  const WalkState& state, VertexId /*dst*/,
                                  Weight static_weight,
                                  Relation relation) const {
  if (state.step >= path_.size()) {
    return 0;  // beyond the relation path nothing is sampleable
  }
  return relation == path_[state.step] ? static_weight : 0;
}

Status Node2VecApp::Validate(double p, double q, const CsrGraph& graph) {
  const Weight return_scale = FixedPointScale(p);
  const Weight distant_scale = FixedPointScale(q);
  if (return_scale == 0 || distant_scale == 0) {
    return InvalidArgumentError(
        "node2vec p and q must be in about [6e-8, 512], so 256/p and 256/q "
        "round to weight scales in [1, 2^32); got p=" +
        std::to_string(p) + " q=" + std::to_string(q));
  }
  const auto weights = graph.col_weight();
  const uint64_t max_weight =
      weights.empty() ? 0 : *std::max_element(weights.begin(), weights.end());
  const uint64_t max_scale =
      std::max({kWeightScale, return_scale, distant_scale});
  if (max_weight * max_scale > UINT32_MAX) {
    return OutOfRangeError(
        "node2vec weight overflow: edge weight " +
        std::to_string(max_weight) + " times weight scale " +
        std::to_string(max_scale) + " exceeds 2^32 - 1");
  }
  return Status::Ok();
}

Node2VecApp::Node2VecApp(double p, double q)
    : p_(p),
      q_(q),
      return_scale_(FixedPointScale(p)),
      distant_scale_(FixedPointScale(q)) {
  LIGHTRW_CHECK(return_scale_ > 0);
  LIGHTRW_CHECK(distant_scale_ > 0);
}

Weight Node2VecApp::DynamicWeight(const CsrGraph& graph,
                                  const WalkState& state, VertexId dst,
                                  Weight static_weight,
                                  Relation /*relation*/) const {
  if (state.prev == graph::kInvalidVertex) {
    // First step: no second-order context yet; behave like a static walk.
    return static_weight * kWeightScale;
  }
  if (dst == state.prev) {
    return static_weight * return_scale_;  // Eq. (2a): w*/p
  }
  if (graph.HasEdge(state.prev, dst)) {
    return static_weight * kWeightScale;  // Eq. (2b): w*
  }
  return static_weight * distant_scale_;  // Eq. (2c): w*/q
}

void Node2VecApp::DynamicWeights(const CsrGraph& graph,
                                 const WalkState& state, uint32_t first,
                                 std::span<Weight> out) const {
  const auto dsts = graph.Neighbors(state.curr).subspan(first, out.size());
  const auto weights =
      graph.NeighborWeights(state.curr).subspan(first, out.size());
  if (state.prev == graph::kInvalidVertex || out.empty()) {
    // First step (no second-order context yet), or nothing to fill.
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = weights[i] * kWeightScale;
    }
    return;
  }
  // N(curr) and N(prev) are both sorted, so the first element of N(prev)
  // that is >= dst only moves forward along the run: `cursor` holds it.
  const auto prev_neighbors = graph.Neighbors(state.prev);
  const VertexId* end = prev_neighbors.data() + prev_neighbors.size();
  const VertexId* cursor =
      std::lower_bound(prev_neighbors.data(), end, dsts.front());
  // A merge steps over every element of N(prev) up to the run's last
  // neighbor; past about 8 per edge, galloping skips them faster.
  const bool gallop = static_cast<size_t>(end - cursor) > 8 * out.size();
  for (size_t i = 0; i < out.size(); ++i) {
    const VertexId dst = dsts[i];
    if (dst == state.prev) {
      out[i] = weights[i] * return_scale_;  // Eq. (2a) takes precedence
      continue;
    }
    if (gallop) {
      cursor = Gallop(cursor, end, dst);
    } else {
      while (cursor != end && *cursor < dst) {
        ++cursor;
      }
    }
    const bool adjacent = cursor != end && *cursor == dst;
    out[i] = weights[i] * (adjacent ? kWeightScale : distant_scale_);
  }
}

PprApp::PprApp(double alpha) : alpha_(alpha) {
  LIGHTRW_CHECK(alpha > 0.0 && alpha < 1.0);
}

Weight PprApp::DynamicWeight(const CsrGraph& /*graph*/,
                             const WalkState& /*state*/, VertexId /*dst*/,
                             Weight static_weight,
                             Relation /*relation*/) const {
  return static_weight;
}

Weight StaticWalkApp::DynamicWeight(const CsrGraph& /*graph*/,
                                    const WalkState& /*state*/,
                                    VertexId /*dst*/, Weight static_weight,
                                    Relation /*relation*/) const {
  return static_weight;
}

std::vector<Relation> MakeRandomRelationPath(const CsrGraph& graph,
                                             uint32_t length, uint64_t seed) {
  LIGHTRW_CHECK(length >= 1);
  // Collect the relations that actually occur so every path entry is
  // realizable somewhere in the graph.
  bool seen[256] = {};
  for (const Relation r : graph.col_relation()) {
    seen[r] = true;
  }
  std::vector<Relation> present;
  for (int r = 0; r < 256; ++r) {
    if (seen[r]) {
      present.push_back(static_cast<Relation>(r));
    }
  }
  LIGHTRW_CHECK(!present.empty());
  rng::Xoshiro256StarStar gen(seed);
  std::vector<Relation> path(length);
  for (auto& r : path) {
    r = present[gen.NextBounded(present.size())];
  }
  return path;
}

std::vector<WalkQuery> MakeVertexQueries(const CsrGraph& graph,
                                         uint32_t length, uint64_t seed,
                                         size_t max_queries) {
  std::vector<WalkQuery> queries;
  queries.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > 0) {
      queries.push_back(WalkQuery{v, length});
    }
  }
  // Fisher-Yates shuffle, as ThunderRW shuffles its query set.
  rng::Xoshiro256StarStar gen(seed);
  for (size_t i = queries.size(); i > 1; --i) {
    const size_t j = gen.NextBounded(i);
    std::swap(queries[i - 1], queries[j]);
  }
  if (max_queries != 0 && queries.size() > max_queries) {
    queries.resize(max_queries);
  }
  return queries;
}

}  // namespace lightrw::apps
