#include "rng/rng.h"

namespace lightrw::rng {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(uint64_t seed) {
  SplitMix64 mix(seed);
  for (auto& s : s_) {
    s = mix.Next();
  }
}

uint64_t Xoshiro256StarStar::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Xoshiro256StarStar::NextBounded(uint64_t bound) {
  LIGHTRW_DCHECK(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

ThunderingRng::ThunderingRng(size_t num_streams, uint64_t seed) {
  Reseed(num_streams, seed);
}

void ThunderingRng::Reseed(size_t num_streams, uint64_t seed) {
  LIGHTRW_CHECK(num_streams >= 1);
  SplitMix64 mix(seed);
  const uint64_t shared = mix.Next();
  state_.assign(num_streams, shared);
  offset_.resize(num_streams);
  multiplier_.resize(num_streams);
  for (size_t i = 0; i < num_streams; ++i) {
    offset_[i] = mix.Next();
    multiplier_[i] = mix.Next() | 1ULL;  // odd => bijective mod 2^64
  }
}

}  // namespace lightrw::rng
