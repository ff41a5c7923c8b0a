// Pseudo-random number generation substrate.
//
// The paper's WRS sampler needs k independent uniform random numbers per
// cycle. On the FPGA this is provided by ThundeRiNG (Tan et al., ICS'21),
// which shares one expensive state sequence among many output instances and
// attaches a cheap per-instance decorrelator. ThunderingRng reproduces that
// structure in software: a single 64-bit LCG advances once per batch element,
// and each stream applies its own xor/multiply scrambler so the k outputs of
// a batch are mutually decorrelated and each stream is itself uniform.
//
// SplitMix64 and Xoshiro256StarStar are self-contained reference generators
// used for seeding, the CPU baseline, and tests.

#ifndef LIGHTRW_RNG_RNG_H_
#define LIGHTRW_RNG_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace lightrw::rng {

// SplitMix64 (Steele et al.): a tiny generator whose main job here is
// turning arbitrary seeds into well-mixed 64-bit values.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256** (Blackman & Vigna): fast, high-quality general-purpose PRNG.
// Used as the CPU baseline's generator and as a reference in tests.
class Xoshiro256StarStar {
 public:
  explicit Xoshiro256StarStar(uint64_t seed);

  uint64_t Next();
  // Uniform 32-bit draw.
  uint32_t Next32() { return static_cast<uint32_t>(Next() >> 32); }
  // Uniform double in [0, 1).
  double NextUnit() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

 private:
  uint64_t s_[4];
};

// Multi-stream generator with ThundeRiNG's shared-state structure.
//
// One LCG state sequence is shared by all streams; stream i applies a
// per-stream decorrelator (xor with a stream-specific offset, an xorshift
// scramble, and a stream-specific odd multiplier). Hardware cost of an
// extra stream is one decorrelator — which is why the paper can afford 64
// streams in 1.2% of the chip — and the software model mirrors that: one
// LCG step plus one scramble per output.
class ThunderingRng {
 public:
  // One output stream: its position in the shared sequence and its
  // decorrelator constants.
  struct Stream {
    uint64_t state;       // position in the shared sequence
    uint64_t offset;      // xor offset
    uint64_t multiplier;  // odd multiplier

    // Advances the stream one step and returns its next 32-bit output.
    // The one definition of a draw: Next() and the PWRS lane kernel
    // (sampling/parallel_wrs.cc) both draw through it.
    uint32_t Draw() {
      // Knuth's MMIX multiplier; full-period mod 2^64 LCG.
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      // Per-stream scrambler: xor offset, xorshift mix, odd multiply.
      // Each step is a bijection on 64-bit words, so each stream remains
      // uniform; the stream-specific constants break cross-stream
      // correlation of the shared sequence.
      uint64_t z = state ^ offset;
      z ^= z >> 29;
      z *= multiplier;
      z ^= z >> 32;
      return static_cast<uint32_t>(z);
    }
  };

  // Creates `num_streams` decorrelated streams. All randomness is
  // reproducible from `seed`.
  ThunderingRng(size_t num_streams, uint64_t seed);

  // Re-derives the stream set from `seed`, reusing the existing storage
  // when the stream count allows. Produces exactly the state a freshly
  // constructed ThunderingRng(num_streams, seed) would hold — hot loops
  // that re-key a pooled generator per walker use this instead of
  // constructing (and allocating) a new one.
  void Reseed(size_t num_streams, uint64_t seed);

  size_t num_streams() const { return streams_.size(); }

  // Draws the next 32-bit output of stream `stream`. Streams advance
  // independently (each keeps its own position in the shared sequence, as
  // the hardware instances consume one shared state per cycle).
  uint32_t Next(size_t stream) {
    LIGHTRW_DCHECK(stream < streams_.size());
    return streams_[stream].Draw();
  }

  // Uniform double in [0, 1) from stream `stream`.
  double NextUnit(size_t stream) {
    return static_cast<double>(Next(stream)) * 0x1.0p-32;
  }

  // Streams [base, base + n), for kernels that draw many lanes in one
  // loop. Drawing through Stream::Draw leaves the generator exactly as
  // the same draws through Next() would.
  std::span<Stream> streams(size_t base, size_t n) {
    LIGHTRW_DCHECK(base + n <= streams_.size());
    return {streams_.data() + base, n};
  }

 private:
  std::vector<Stream> streams_;
};

}  // namespace lightrw::rng

#endif  // LIGHTRW_RNG_RNG_H_
