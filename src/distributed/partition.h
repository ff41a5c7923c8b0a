// Graph partitioning for the distributed LightRW simulation.
//
// Each board owns a subset of the vertices (and their adjacency lists);
// a walker stepping onto a remote vertex migrates over the network. The
// partitioner therefore controls the migration ratio, the dominant
// distributed cost (KnightKing's observation, echoed by the paper's
// future-work section).

#ifndef LIGHTRW_DISTRIBUTED_PARTITION_H_
#define LIGHTRW_DISTRIBUTED_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace lightrw::distributed {

using BoardId = uint16_t;

enum class PartitionStrategy {
  kHash,    // owner(v) = v mod boards: balanced, oblivious to structure
  kRange,   // contiguous vertex ranges with balanced edge counts
  kGreedy,  // descending-degree greedy: each vertex joins the board where
            // most of its already-placed neighbors live, subject to an
            // edge-balance cap
};

// Vertex -> board assignment.
class Partition {
 public:
  Partition(std::vector<BoardId> owner, BoardId num_boards);

  BoardId num_boards() const { return num_boards_; }
  BoardId OwnerOf(graph::VertexId v) const { return owner_[v]; }
  // Starts loading OwnerOf(v)'s entry ahead of the lookup. A hint only.
  void PrefetchOwner(graph::VertexId v) const {
    __builtin_prefetch(owner_.data() + v);
  }
  const std::vector<BoardId>& owners() const { return owner_; }

  // Edges per board (by source vertex ownership).
  std::vector<uint64_t> EdgeCounts(const graph::CsrGraph& graph) const;

  // Modeled DRAM bytes of each board's partition share: its adjacency
  // records plus an equal slice of the row-index array. This is what a
  // hot spare must re-materialize to take over a dead board's share,
  // and the max over boards is the per-board DRAM footprint.
  std::vector<uint64_t> ShareByteSizes(const graph::CsrGraph& graph) const;

  // Fraction of edges whose endpoints live on different boards — the
  // expected migration ratio of an unbiased walk.
  double CutRatio(const graph::CsrGraph& graph) const;

  // max(edges per board) / mean(edges per board); 1.0 is perfect balance.
  double EdgeImbalance(const graph::CsrGraph& graph) const;

 private:
  std::vector<BoardId> owner_;
  BoardId num_boards_;
};

// Builds a partition of `graph` over `num_boards` boards.
Partition MakePartition(const graph::CsrGraph& graph, BoardId num_boards,
                        PartitionStrategy strategy);

}  // namespace lightrw::distributed

#endif  // LIGHTRW_DISTRIBUTED_PARTITION_H_
