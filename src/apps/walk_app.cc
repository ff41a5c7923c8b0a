#include "apps/walk_app.h"
#include "apps/ppr.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

// Four 32-bit lanes: a GCC/clang vector type, SSE2 on x86-64 and scalar
// code on targets without vectors (declared in the typedef form both
// compilers document). Ids are only tested for equality, so the lanes'
// sign does not matter, and a comparison yields all-ones or 0.
typedef int32_t Lanes __attribute__((vector_size(16)));

Lanes Splat(VertexId v) {
  const auto x = static_cast<int32_t>(v);
  return Lanes{x, x, x, x};
}

// Sets each out[i] to nonzero iff a[i] is in b, to 0 otherwise. Both
// lists are strictly increasing (a CSR row has no repeats).
//
// Each iteration tests 4 elements of a against 8 of b, then retires the
// block whose last element is smaller, or both blocks when their last
// elements are equal: nothing past the other block's last element can
// match it. A block is loaded only while 4 of a or 8 of b remain (the
// subspans check it under _GLIBCXX_ASSERTIONS); a scalar merge finishes.
void MergeFlags(std::span<const VertexId> a, std::span<const VertexId> b,
                std::span<Weight> out) {
  std::fill(out.begin(), out.end(), 0);
  size_t i = 0;
  size_t j = 0;
  while (i + 4 <= a.size() && j + 8 <= b.size()) {
    Lanes run = {};
    Lanes hits = {};
    std::memcpy(&run, a.subspan(i, 4).data(), sizeof(run));
    std::memcpy(&hits, out.subspan(i, 4).data(), sizeof(hits));
    for (size_t k = 0; k < 8; ++k) {
      hits |= run == Splat(b[j + k]);
    }
    std::memcpy(out.subspan(i, 4).data(), &hits, sizeof(hits));
    // Bit 63 of the 64-bit difference of two ids is their comparison, so
    // the retired block does not pass through the branch predictor.
    const uint64_t a_last = a[i + 3];
    const uint64_t b_last = b[j + 7];
    i += 4 * (1 - ((b_last - a_last) >> 63));  // a_last <= b_last
    j += 8 * (1 - ((a_last - b_last) >> 63));  // b_last <= a_last
  }
  for (; i < a.size(); ++i) {
    while (j < b.size() && b[j] < a[i]) {
      ++j;
    }
    out[i] |= static_cast<Weight>(j < b.size() && b[j] == a[i]);
  }
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
  // First out[i] = nonzero iff dsts[i] is in N(prev). Both lists are
  // sorted, so the search starts at the first element of N(prev) that is
  // >= the run's first neighbor and only moves forward.
  const auto prev_neighbors = graph.Neighbors(state.prev);
  const VertexId* end = prev_neighbors.data() + prev_neighbors.size();
  const VertexId* cursor =
      std::lower_bound(prev_neighbors.data(), end, dsts.front());
  // A merge steps over every element of N(prev) up to the run's last
  // neighbor; past about 8 per edge, galloping skips them faster.
  if (static_cast<size_t>(end - cursor) > 8 * out.size()) {
    for (size_t i = 0; i < out.size(); ++i) {
      cursor = Gallop(cursor, end, dsts[i]);
      out[i] = cursor != end && *cursor == dsts[i];
    }
  } else {
    MergeFlags(dsts, {cursor, end}, out);
  }
  // Then Eq. (2b) or (2c) by the flag, unless the return edge's Eq. (2a)
  // takes precedence. Locals, not members: a store to out could alias a
  // member, and the reloads would keep the compiler from selecting
  // without a branch.
  const VertexId prev = state.prev;
  const Weight return_scale = return_scale_;
  const Weight distant_scale = distant_scale_;
  for (size_t i = 0; i < out.size(); ++i) {
    const Weight scale = out[i] != 0 ? kWeightScale : distant_scale;
    out[i] = weights[i] * (dsts[i] == prev ? return_scale : scale);
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
