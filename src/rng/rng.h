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

#include <cstddef>
#include <cstdint>
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
// LCG step plus one scramble per output. The streams are stored as three
// parallel arrays (state, offset, multiplier), so a kernel that runs
// eight lanes per 512-bit register loads eight streams' fields at once.
class ThunderingRng {
 public:
  // Knuth's MMIX multiplier and increment; full-period mod 2^64 LCG.
  static constexpr uint64_t kLcgMultiplier = 6364136223846793005ULL;
  static constexpr uint64_t kLcgIncrement = 1442695040888963407ULL;

  // Streams [base, base + n) of a generator: stream base + j is
  // (state[j], offset[j], multiplier[j]). Valid until the next Reseed.
  struct Streams {
    uint64_t* state;             // position in the shared sequence
    const uint64_t* offset;      // xor offset
    const uint64_t* multiplier;  // odd multiplier
  };

  // Advances the stream whose position is `*state` one step and returns
  // its next 32-bit output. The one scalar definition of a draw: Next()
  // and the scalar PWRS lane kernel (sampling/pwrs_kernels.cc) call it,
  // and the AVX-512 kernel there computes the same steps eight lanes at
  // a time.
  static uint32_t Draw(uint64_t* state, uint64_t offset,
                       uint64_t multiplier) {
    *state = *state * kLcgMultiplier + kLcgIncrement;
    // Per-stream scrambler: xor offset, xorshift mix, odd multiply.
    // Each step is a bijection on 64-bit words, so each stream remains
    // uniform; the stream-specific constants break cross-stream
    // correlation of the shared sequence.
    uint64_t z = *state ^ offset;
    z ^= z >> 29;
    z *= multiplier;
    z ^= z >> 32;
    return static_cast<uint32_t>(z);
  }

  // Creates `num_streams` decorrelated streams. All randomness is
  // reproducible from `seed`.
  ThunderingRng(size_t num_streams, uint64_t seed);

  // Re-derives the stream set from `seed`, reusing the existing storage
  // when the stream count allows. Produces exactly the state a freshly
  // constructed ThunderingRng(num_streams, seed) would hold — hot loops
  // that re-key a pooled generator per walker use this instead of
  // constructing (and allocating) a new one.
  void Reseed(size_t num_streams, uint64_t seed);

  size_t num_streams() const { return state_.size(); }

  // Draws the next 32-bit output of stream `stream`. Streams advance
  // independently (each keeps its own position in the shared sequence, as
  // the hardware instances consume one shared state per cycle).
  uint32_t Next(size_t stream) {
    LIGHTRW_DCHECK(stream < state_.size());
    return Draw(&state_[stream], offset_[stream], multiplier_[stream]);
  }

  // Uniform double in [0, 1) from stream `stream`.
  double NextUnit(size_t stream) {
    return static_cast<double>(Next(stream)) * 0x1.0p-32;
  }

  // Streams [base, base + n), for kernels that draw many lanes in one
  // loop. Drawing them as Draw does leaves the generator exactly as the
  // same draws through Next() would.
  Streams streams(size_t base, [[maybe_unused]] size_t n) {
    LIGHTRW_DCHECK(base + n <= state_.size());
    return {state_.data() + base, offset_.data() + base,
            multiplier_.data() + base};
  }

 private:
  // Entry i of each belongs to stream i.
  std::vector<uint64_t> state_;
  std::vector<uint64_t> offset_;
  std::vector<uint64_t> multiplier_;
};

}  // namespace lightrw::rng

#endif  // LIGHTRW_RNG_RNG_H_
