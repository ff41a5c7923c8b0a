// Row-index caches for the Neighbor Info Loader (paper §5.1).
//
// The cache maps a vertex id to its {neighbor address, degree} tuple. The
// degree-aware policy exploits the stationary-distribution analysis of the
// paper (Pr[v] = Omega(|N(v)|)): on a miss, the fetched vertex replaces the
// resident line only if its degree is strictly higher, so hot high-degree
// vertices accumulate in the cache at runtime with zero preprocessing.

#ifndef LIGHTRW_LIGHTRW_VERTEX_CACHE_H_
#define LIGHTRW_LIGHTRW_VERTEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "lightrw/config.h"

namespace lightrw::core {

using graph::VertexId;

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    return *this;
  }
  uint64_t accesses() const { return hits + misses; }
  double MissRatio() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses) / accesses();
  }
};

// Common interface of the row caches. Probe() then, on a miss, Install()
// with the data returned from DRAM — mirroring the hardware flow of
// Fig. 5 (steps a-e).
class VertexCache {
 public:
  virtual ~VertexCache() = default;

  // True if `v` is resident (steps b/c of Fig. 5).
  virtual bool Probe(VertexId v) = 0;

  // Offers the miss-filled line to the replacement policy (step e).
  virtual void Install(VertexId v, uint32_t degree) = 0;

  virtual uint32_t capacity() const = 0;

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 protected:
  CacheStats stats_;
};

// Direct-mapped cache with unconditional replacement (Fig. 11's DMC).
class DirectMappedCache : public VertexCache {
 public:
  explicit DirectMappedCache(uint32_t entries);

  bool Probe(VertexId v) override;
  void Install(VertexId v, uint32_t degree) override;
  uint32_t capacity() const override { return entries_; }

 private:
  uint32_t entries_;  // power of two
  std::vector<VertexId> tag_;
  std::vector<bool> valid_;
};

// Degree-aware cache (DAC): direct-mapped lookup, replace-if-higher-degree
// policy.
class DegreeAwareCache : public VertexCache {
 public:
  explicit DegreeAwareCache(uint32_t entries);

  bool Probe(VertexId v) override;
  void Install(VertexId v, uint32_t degree) override;
  uint32_t capacity() const override { return entries_; }

 private:
  uint32_t entries_;
  std::vector<VertexId> tag_;
  std::vector<uint32_t> degree_;
  std::vector<bool> valid_;
};

// Set-associative cache with recency-based replacement — the conventional
// policies (LRU, FIFO) the paper argues are ineffective for GDRW's large
// reuse distances (§5.1). Included for the Fig. 11 comparison.
class SetAssociativeCache : public VertexCache {
 public:
  enum class Replacement { kLru, kFifo };

  // `entries` total lines, split into `ways`-wide sets; entries and ways
  // must be powers of two with ways <= entries.
  SetAssociativeCache(uint32_t entries, uint32_t ways,
                      Replacement replacement);

  bool Probe(VertexId v) override;
  void Install(VertexId v, uint32_t degree) override;
  uint32_t capacity() const override { return entries_; }
  uint32_t ways() const { return ways_; }

 private:
  struct Line {
    VertexId tag = 0;
    uint64_t order = 0;  // recency (LRU) or insertion (FIFO) stamp
    bool valid = false;
  };

  uint32_t entries_;
  uint32_t ways_;
  uint32_t num_sets_;
  Replacement replacement_;
  uint64_t clock_ = 0;
  std::vector<Line> lines_;  // num_sets_ * ways_, set-major
};

// Factory for the configured cache kind; returns nullptr for kNone.
// kLru/kFifo build 4-way set-associative caches.
std::unique_ptr<VertexCache> MakeVertexCache(CacheKind kind,
                                             uint32_t entries);

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_VERTEX_CACHE_H_
