#include "sampling/pwrs_kernels.h"

#include <algorithm>

#include "common/check.h"
#include "sampling/parallel_wrs.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lightrw::sampling::pwrs {

using rng::ThunderingRng;

void OfferBatchesScalar(std::span<const Weight> weights, size_t base_index,
                        size_t k, ThunderingRng::Streams lanes, Run* run) {
  LIGHTRW_DCHECK(k >= 1 && k <= ParallelWrsSampler::kMaxLanes);
  const size_t n = weights.size();
  // Per batch, steps (a)-(d) of Fig. 4 fused into one pass: the inclusive
  // prefix sum (log-depth in hardware, sequential here), each lane's
  // Eq. (8) test against its own stream, and the highest-selected-lane
  // reduction. Testing lanes in stream order and keeping the last hit is
  // that reduction: the latest candidate replaces the reservoir.
  // Zero-weight lanes are masked off and draw no random number; the
  // per-stream draw sequence is part of the determinism contract. The
  // lanes the run uses are gathered into one local array for the call,
  // so the loop walks one array whose stores no weight load can alias.
  // No batch is wider than min(k, n), so only that many entries are
  // filled; clearing all 64 would cost more than a short run's draws.
  struct Lane {
    uint64_t state;
    uint64_t offset;
    uint64_t multiplier;
  };
  const size_t used = std::min(k, n);
  Lane lane[ParallelWrsSampler::kMaxLanes];
  for (size_t j = 0; j < used; ++j) {
    lane[j] = {lanes.state[j], lanes.offset[j], lanes.multiplier[j]};
  }
  uint64_t sum = run->weight_sum;  // inclusive running sum S_j
  size_t selected = run->selected;
  uint64_t batches = run->batches;
  for (size_t first = 0; first < n; first += k) {
    const size_t lanes_in_batch = std::min(k, n - first);
    for (size_t j = 0; j < lanes_in_batch; ++j) {
      const Weight w = weights[first + j];
      sum += w;
      if (w == 0) {
        continue;
      }
      const uint32_t r = ThunderingRng::Draw(&lane[j].state, lane[j].offset,
                                             lane[j].multiplier);
      // While S_j < 2^32, both sides of Eq. (8) fit in 64 bits: w << 32
      // and r * S_j + w <= (2^32 - 1) * 2^32. Past that, WrsSelect's
      // 128-bit form.
      const bool hit = sum <= UINT32_MAX
                           ? (uint64_t{w} << 32) > uint64_t{r} * sum + w
                           : WrsSelect(w, sum, r);
      if (hit) {
        selected = base_index + first + j;
      }
    }
    ++batches;
  }
  for (size_t j = 0; j < used; ++j) {
    lanes.state[j] = lane[j].state;
  }
  run->weight_sum = sum;
  run->selected = selected;
  run->batches = batches;
}

#if defined(__x86_64__)

namespace {

// Eight 64-bit lanes as a GCC/clang vector type (declared in the typedef
// form both compilers document). The kernel does its shifts, xors and
// 64-bit multiplies with this type's operators: the intrinsics for them
// make GCC 12 warn inside avx512fintrin.h under -Wall (GCC bug 105593).
// So do the unmasked widening, align, permute and 32-bit multiply
// intrinsics, which is why the kernel calls their maskz forms.
typedef uint64_t U64x8 __attribute__((vector_size(64)));

// The lanes of [g, g + 8) that are below `end`, as a register mask.
__mmask8 LanesBelow(size_t end, size_t g) {
  return end <= g ? 0
                  : static_cast<__mmask8>(
                        (1u << std::min<size_t>(8, end - g)) - 1);
}

// The vector kernel for k lanes in kRegs = ceil(k / 8) registers. The
// lanes' states live in kRegs local vectors for the whole call, loaded
// from the generator's state array at the start and stored back at the
// end, so no batch reloads what the previous batch's masked store
// wrote (a kernel that did read 2.3-2.4 ns/edge against 1.8-2.0 in a
// hot-cache replay of 144-edge calls with k = 16); offsets and
// multipliers load straight from theirs. Masked loads and stores leave
// every lane past the run's widest batch, and so past k, untouched.
template <size_t kRegs>
__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw"))) void
OfferBatchesInRegisters(std::span<const Weight> weights, size_t base_index,
                        size_t k, ThunderingRng::Streams lanes, Run* run) {
  const size_t n = weights.size();
  const size_t used = std::min(k, n);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i last_lane = _mm512_set1_epi64(7);
  const __m512i max32 = _mm512_set1_epi64(UINT32_MAX);
  __m512i state[kRegs];
  for (size_t reg = 0; reg < kRegs; ++reg) {
    state[reg] = _mm512_maskz_loadu_epi64(LanesBelow(used, 8 * reg),
                                          lanes.state + 8 * reg);
  }
  // The inclusive running sum, in every lane.
  __m512i sum = _mm512_set1_epi64(static_cast<long long>(run->weight_sum));
  size_t selected = run->selected;
  for (size_t first = 0; first < n; first += k) {
    const size_t lanes_in_batch = std::min(k, n - first);
    for (size_t reg = 0; reg < kRegs; ++reg) {
      const size_t g = 8 * reg;
      if (g >= lanes_in_batch) {
        break;  // the run's short last batch
      }
      const __mmask8 active = LanesBelow(lanes_in_batch, g);
      const __m512i w = _mm512_maskz_cvtepu32_epi64(
          active,
          _mm256_maskz_loadu_epi32(active, weights.data() + first + g));
      // The inclusive prefix sum S_j in three shifted adds, the
      // hardware's log-depth adder, on top of the running sum; lane 7
      // then holds the next running sum.
      __m512i s =
          _mm512_add_epi64(w, _mm512_maskz_alignr_epi64(0xFF, w, zero, 7));
      s = _mm512_add_epi64(s, _mm512_maskz_alignr_epi64(0xFF, s, zero, 6));
      s = _mm512_add_epi64(s, _mm512_maskz_alignr_epi64(0xFF, s, zero, 4));
      s = _mm512_add_epi64(s, sum);
      sum = _mm512_maskz_permutexvar_epi64(0xFF, last_lane, s);

      // Zero-weight lanes draw nothing: the LCG advances only under this
      // mask, and the other lanes keep their state.
      const __mmask8 draw = _mm512_mask_test_epi64_mask(active, w, w);
      const U64x8 next = (U64x8)state[reg] * ThunderingRng::kLcgMultiplier +
                         ThunderingRng::kLcgIncrement;
      state[reg] = _mm512_mask_blend_epi64(draw, state[reg], (__m512i)next);
      // ThunderingRng::Draw's decorrelator; r is the low 32 bits of z.
      U64x8 z = next ^ (U64x8)_mm512_maskz_loadu_epi64(draw, lanes.offset + g);
      z ^= z >> 29;
      z *= (U64x8)_mm512_maskz_loadu_epi64(draw, lanes.multiplier + g);
      z ^= z >> 32;

      __mmask8 hits = 0;
      if (_mm512_mask_cmpgt_epu64_mask(draw, s, max32) == 0) {
        // Every S_j < 2^32: Eq. (8) as (w << 32) > r * S_j + w, where
        // r * S_j is a 32 x 32 -> 64-bit multiply of the low halves.
        const __m512i rhs = _mm512_add_epi64(
            _mm512_maskz_mul_epu32(0xFF, (__m512i)z, s), w);
        hits = _mm512_mask_cmpgt_epu64_mask(draw, (__m512i)((U64x8)w << 32),
                                            rhs);
      } else {
        // Past 2^32: WrsSelect's 128-bit form, lane by lane.
        const U64x8 wv = (U64x8)w;
        const U64x8 sv = (U64x8)s;
        for (int j = 0; j < 8; ++j) {
          if (((draw >> j) & 1) != 0 &&
              WrsSelect(static_cast<Weight>(wv[j]), sv[j],
                        static_cast<uint32_t>(z[j]))) {
            hits = static_cast<__mmask8>(hits | (1u << j));
          }
        }
      }
      // The highest hit lane replaces the selection (hits | 1 keeps clz
      // defined); a later register or batch replaces it in turn.
      const size_t highest = 31 - __builtin_clz(hits | 1u);
      selected = hits != 0 ? base_index + first + g + highest : selected;
    }
  }
  for (size_t reg = 0; reg < kRegs; ++reg) {
    _mm512_mask_storeu_epi64(lanes.state + 8 * reg, LanesBelow(used, 8 * reg),
                             state[reg]);
  }
  run->weight_sum = ((U64x8)sum)[0];
  run->selected = selected;
  run->batches += (n + k - 1) / k;
}

}  // namespace

void OfferBatchesAvx512(std::span<const Weight> weights, size_t base_index,
                        size_t k, ThunderingRng::Streams lanes, Run* run) {
  LIGHTRW_DCHECK(k >= 1 && k <= ParallelWrsSampler::kMaxLanes);
  static constexpr Kernel kByRegisters[] = {
      OfferBatchesInRegisters<1>, OfferBatchesInRegisters<2>,
      OfferBatchesInRegisters<3>, OfferBatchesInRegisters<4>,
      OfferBatchesInRegisters<5>, OfferBatchesInRegisters<6>,
      OfferBatchesInRegisters<7>, OfferBatchesInRegisters<8>};
  kByRegisters[(k + 7) / 8 - 1](weights, base_index, k, lanes, run);
}

const char* MissingAvx512Feature() {
  // Before __builtin_cpu_supports: this may run before libgcc's own
  // initializer has probed the CPU.
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (!__builtin_cpu_supports("avx512dq")) {
    return "avx512dq";
  }
  if (!__builtin_cpu_supports("avx512vl")) {
    return "avx512vl";
  }
  if (!__builtin_cpu_supports("avx512bw")) {
    return "avx512bw";
  }
  return nullptr;
}

#else  // not x86-64: MissingAvx512Feature() says so, so nothing calls it.

void OfferBatchesAvx512(std::span<const Weight> weights, size_t base_index,
                        size_t k, ThunderingRng::Streams lanes, Run* run) {
  OfferBatchesScalar(weights, base_index, k, lanes, run);
}

const char* MissingAvx512Feature() { return "x86-64"; }

#endif

}  // namespace lightrw::sampling::pwrs
