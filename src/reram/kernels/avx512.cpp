// AVX-512 kernel variant: 512-bit lanes with the dedicated VPOPCNTDQ
// per-64-bit popcount instruction, the VNNI vpdpbusd int8 dot product for
// the GEMM, and masked loads for ragged tails. Compiled with -mavx512f
// -mavx512bw -mavx512vl -mavx512vpopcntdq -mavx512vnni (per-file flags in
// src/reram/CMakeLists.txt — never globally); gated on
// AUTOHET_KERNELS_AVX512 exactly like the AVX2 unit.
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX512)

#include <immintrin.h>

#include "reram/kernels/kernel_ops.inl"

// GCC's AVX-512 intrinsic headers model "don't care" merge operands as
// deliberately-uninitialized __m256i/__m512i locals (__Y = __Y), which
// -Wmaybe-uninitialized flags once the wrappers inline (seen with
// _mm512_cvtepu8_epi32 and the extract helpers on GCC 12). These are header
// false positives, not bugs in this unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace autohet::reram::kernels {
namespace {

// Store-and-sum horizontal reduction. _mm512_reduce_add_epi64 would be the
// obvious choice, but GCC implements it via _mm256_undefined_si256() and
// flags the deliberately-uninitialized merge operand under
// -Wmaybe-uninitialized; this compiles to the same extract/add sequence.
inline std::int64_t hsum512(__m512i v) {
  alignas(64) std::int64_t lanes[8];
  _mm512_store_si512(lanes, v);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

struct Avx512Core {
  static std::int64_t and_popcount(const std::uint64_t* x,
                                   const std::uint64_t* p,
                                   std::int64_t words) {
    __m512i acc = _mm512_setzero_si512();
    std::int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i v = _mm512_and_si512(_mm512_loadu_si512(x + w),
                                         _mm512_loadu_si512(p + w));
      acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    if (w < words) {
      const __mmask8 m =
          static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i v = _mm512_and_si512(_mm512_maskz_loadu_epi64(m, x + w),
                                         _mm512_maskz_loadu_epi64(m, p + w));
      acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    return hsum512(acc);
  }
  static std::int64_t weighted_and_popcount(const std::uint64_t* x8,
                                            const std::uint64_t* p,
                                            std::int64_t words) {
    // All 8 input planes against one loaded weight-plane chunk; the 2^xb
    // weights ride in the vector accumulator (counts ≤ 64 << 7 per lane
    // per add — nowhere near i64 overflow), so the whole column costs a
    // single horizontal reduction.
    __m512i acc = _mm512_setzero_si512();
    std::int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i pv = _mm512_loadu_si512(p + w);
      for (int xb = 0; xb < 8; ++xb) {
        const __m512i v = _mm512_and_si512(
            _mm512_loadu_si512(x8 + xb * words + w), pv);
        acc = _mm512_add_epi64(
            acc, _mm512_slli_epi64(_mm512_popcnt_epi64(v),
                                   static_cast<unsigned int>(xb)));
      }
    }
    if (w < words) {
      const __mmask8 m = static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i pv = _mm512_maskz_loadu_epi64(m, p + w);
      for (int xb = 0; xb < 8; ++xb) {
        const __m512i v = _mm512_and_si512(
            _mm512_maskz_loadu_epi64(m, x8 + xb * words + w), pv);
        acc = _mm512_add_epi64(
            acc, _mm512_slli_epi64(_mm512_popcnt_epi64(v),
                                   static_cast<unsigned int>(xb)));
      }
    }
    return hsum512(acc);
  }
  static std::int64_t popcount(const std::uint64_t* x, std::int64_t words) {
    __m512i acc = _mm512_setzero_si512();
    std::int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_loadu_si512(x + w)));
    }
    if (w < words) {
      const __mmask8 m =
          static_cast<__mmask8>((1u << (words - w)) - 1u);
      acc = _mm512_add_epi64(
          acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(m, x + w)));
    }
    return hsum512(acc);
  }
  // VNNI GEMM tile: lanes run over samples (16 per zmm, one 4-byte quad
  // each), and vpdpbusd adds the four u8·s8 products of a lane's quad into
  // its int32 accumulator against the broadcast weight quad. 6 columns × 4
  // vectors = 24 accumulators + 4 input vectors + 1 broadcast of 32 zmm.
  static constexpr int kTileCols = 6;
  static constexpr int kTileVectors = 4;
  static constexpr std::int64_t kVectorPositions = 16;
  template <int NB, int NV>
  static void gemm_tile(const std::int32_t* wq, std::int64_t quads,
                        std::int64_t cols, const std::uint8_t* xq,
                        std::int64_t count, std::int32_t* acc,
                        std::int64_t last) {
    __mmask16 m[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) m[v] = 0xffff;
    m[NV - 1] = static_cast<__mmask16>((1u << last) - 1u);
    __m512i c[NB][NV];
#pragma GCC unroll 6
    for (int b = 0; b < NB; ++b) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) c[b][v] = _mm512_setzero_si512();
    }
    for (std::int64_t q = 0; q < quads; ++q) {
      const std::uint8_t* x = xq + q * count * 4;
      const std::int32_t* w = wq + q * cols;
      __m512i xv[NV];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        xv[v] = _mm512_maskz_loadu_epi32(m[v], x + v * 64);
      }
#pragma GCC unroll 6
      for (int b = 0; b < NB; ++b) {
        const __m512i wv = _mm512_set1_epi32(w[b]);
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          c[b][v] = _mm512_dpbusd_epi32(c[b][v], xv[v], wv);
        }
      }
    }
#pragma GCC unroll 6
    for (int b = 0; b < NB; ++b) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        std::int32_t* a = acc + b * count + v * 16;
        _mm512_mask_storeu_epi32(
            a, m[v],
            _mm512_add_epi32(_mm512_maskz_loadu_epi32(m[v], a), c[b][v]));
      }
    }
  }
};

void bit_serial_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<Avx512Core>(planes, plane_cols, col_words, cols,
                                          words, xbits, count, acc_t);
}

void multilevel_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, const std::int64_t* popx,
                    const std::int64_t* refs, std::int32_t* acc_t) {
  detail::multilevel_mvm_impl<Avx512Core>(planes, plane_cols, col_words, cols,
                                          words, xbits, count, popx, refs,
                                          acc_t);
}

void int8_gemm(const std::int32_t* wq, std::int64_t quads, std::int64_t cols,
               const std::uint8_t* xq, std::int64_t count,
               std::int32_t* acc_t) {
  detail::int8_gemm_impl<Avx512Core>(wq, quads, cols, xq, count, acc_t);
}

std::int64_t popcount_words(const std::uint64_t* x, std::int64_t words) {
  return detail::popcount_words_impl<Avx512Core>(x, words);
}

}  // namespace

namespace detail {
const Ops kAvx512Ops = {"avx512", bit_serial_mvm, multilevel_mvm,
                        int8_gemm, popcount_words};
}  // namespace detail

}  // namespace autohet::reram::kernels

#else  // !AUTOHET_KERNELS_AVX512

namespace autohet::reram::kernels::detail {
const Ops kAvx512Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::reram::kernels::detail

#endif  // AUTOHET_KERNELS_AVX512
