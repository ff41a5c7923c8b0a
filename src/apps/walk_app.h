// Walk application interface: the application-specific weight update
// function F of the paper (w^t_{a,b} = F(w*_{a,b}, state)), plus query and
// per-walk state types shared by the CPU baseline and the LightRW engines.

#ifndef LIGHTRW_APPS_WALK_APP_H_
#define LIGHTRW_APPS_WALK_APP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"
#include "graph/types.h"

namespace lightrw::apps {

using graph::CsrGraph;
using graph::Relation;
using graph::VertexId;
using graph::Weight;

// One random walk query: a starting vertex and a requested path length
// (number of steps to take).
struct WalkQuery {
  VertexId start = 0;
  uint32_t length = 0;
};

// Mutable per-walk context available to the weight function.
struct WalkState {
  uint32_t step = 0;                        // 0-based index of current step
  VertexId curr = graph::kInvalidVertex;    // vertex being expanded
  VertexId prev = graph::kInvalidVertex;    // vertex of the previous step
};

// Application-specific weight update function. Implementations must be
// stateless with respect to the walk (all per-walk context arrives in
// WalkState) so one instance can serve many concurrent queries.
class WalkApp {
 public:
  virtual ~WalkApp() = default;

  virtual std::string name() const = 0;

  // Dynamic sampling weight of the candidate edge (state.curr -> dst) with
  // static weight `static_weight` and relation `relation`. Returning 0
  // excludes the edge from sampling at this step.
  virtual Weight DynamicWeight(const CsrGraph& graph, const WalkState& state,
                               VertexId dst, Weight static_weight,
                               Relation relation) const = 0;

  // Writes the dynamic weights of out-edges [first, first + out.size()) of
  // state.curr to `out`, in adjacency order. Each must equal DynamicWeight
  // of that edge; the default calls it once per edge. An app overrides
  // this when a run of edges can share work (Node2Vec merges the run
  // against the previous vertex's adjacency instead of searching it once
  // per edge).
  virtual void DynamicWeights(const CsrGraph& graph, const WalkState& state,
                              uint32_t first, std::span<Weight> out) const;

  // True if the weight function reads the previous vertex's adjacency list
  // (Node2Vec does). The memory models charge the extra traffic and the
  // engines provide the membership structure.
  virtual bool needs_prev_neighbors() const { return false; }

  // Probability that the walk terminates after each completed step
  // (geometric stopping, used by PPR-style apps). Engines draw one coin
  // per step; 0 disables early stopping.
  virtual double stop_probability() const { return 0.0; }

  // True iff DynamicWeight(g, s, dst, w, r) == w for every input: the
  // dynamic weight *is* the static edge weight. Samplers then feed the
  // CSR weight array to the WRS lanes directly and never call
  // DynamicWeights — the sampled distribution (and the per-stream random
  // draw sequence) is identical by construction. An app may only return
  // true if its weight function is exactly the identity on the static
  // weight.
  virtual bool has_static_weights() const { return false; }
};

// MetaPath (Eq. 1): at step t only edges whose relation equals the t-th
// entry of the relation path are sampleable, with their static weight;
// all other edges get weight zero. Queries are truncated to the relation
// path length.
class MetaPathApp : public WalkApp {
 public:
  explicit MetaPathApp(std::vector<Relation> relation_path);

  std::string name() const override { return "MetaPath"; }

  Weight DynamicWeight(const CsrGraph& graph, const WalkState& state,
                       VertexId dst, Weight static_weight,
                       Relation relation) const override;

  const std::vector<Relation>& relation_path() const { return path_; }

 private:
  std::vector<Relation> path_;
};

// Node2Vec (Eq. 2): second-order walk. The return edge (dst == prev) is
// scaled by 1/p; edges to vertices adjacent to prev keep their weight;
// other edges are scaled by 1/q. Weights are returned in fixed point
// (scaled by kWeightScale) so fractional 1/p, 1/q survive integer
// arithmetic; the common factor cancels in the sampling probabilities.
class Node2VecApp : public WalkApp {
 public:
  // Fixed-point scale applied to all Node2Vec weights.
  static constexpr Weight kWeightScale = 256;

  // OK iff Node2VecApp(p, q) can walk `graph`: p and q are positive with
  // round(kWeightScale / p) and round(kWeightScale / q) nonzero 32-bit
  // weights (so p, q <= 512), and no edge weight times the largest of
  // the three scales overflows Weight, so Eq. 2 never wraps.
  static Status Validate(double p, double q, const CsrGraph& graph);

  // Requires that 256/p and 256/q round to nonzero 32-bit weights.
  Node2VecApp(double p, double q);

  std::string name() const override { return "Node2Vec"; }

  Weight DynamicWeight(const CsrGraph& graph, const WalkState& state,
                       VertexId dst, Weight static_weight,
                       Relation relation) const override;

  // One binary search into N(prev) at the run's first neighbor, then a
  // search that only moves forward: blocks of 4 neighbors merged against
  // blocks of 8 of N(prev) while the rest of N(prev) is short against the
  // run, galloping search otherwise.
  void DynamicWeights(const CsrGraph& graph, const WalkState& state,
                      uint32_t first, std::span<Weight> out) const override;

  bool needs_prev_neighbors() const override { return true; }

  double p() const { return p_; }
  double q() const { return q_; }

 private:
  double p_;
  double q_;
  Weight return_scale_;   // round(kWeightScale / p)
  Weight distant_scale_;  // round(kWeightScale / q)
};

// DeepWalk-style first-order walk: the dynamic weight is simply the static
// edge weight (or uniform if the graph is unweighted). Included as the
// static-walk contrast case.
class StaticWalkApp : public WalkApp {
 public:
  std::string name() const override { return "StaticWalk"; }

  Weight DynamicWeight(const CsrGraph& graph, const WalkState& state,
                       VertexId dst, Weight static_weight,
                       Relation relation) const override;

  bool has_static_weights() const override { return true; }
};

// Builds a relation path of the given length that is guaranteed to be
// realizable in `graph` (each entry is drawn from relations that actually
// occur), mirroring the paper's random MetaPath query setup.
std::vector<Relation> MakeRandomRelationPath(const CsrGraph& graph,
                                             uint32_t length, uint64_t seed);

// Builds the paper's standard query set: one query per vertex with nonzero
// degree, shuffled, each with the given length. If max_queries is nonzero
// the set is truncated after shuffling.
std::vector<WalkQuery> MakeVertexQueries(const CsrGraph& graph,
                                         uint32_t length, uint64_t seed,
                                         size_t max_queries = 0);

}  // namespace lightrw::apps

#endif  // LIGHTRW_APPS_WALK_APP_H_
