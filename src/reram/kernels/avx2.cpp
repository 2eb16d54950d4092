// AVX2 kernel variant. Compiled with -mavx2 -mpopcnt (per-file flags in
// src/reram/CMakeLists.txt — never globally); the whole body is gated on
// AUTOHET_KERNELS_AVX2 so builds whose compiler lacks the flags still link
// (the table's function pointers stay null and dispatch skips the variant).
//
// Popcount uses the nibble-LUT technique (Mula): vpshufb maps each nibble
// to its bit count, vpsadbw folds the byte counts into per-64-bit-lane
// sums — 256 bits per iteration against the portable path's 64. The int8
// GEMM widens bytes to int16 and multiplies with vpmaddwd.
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX2)

#include <immintrin.h>

#include <bit>

#include "reram/kernels/kernel_ops.inl"

namespace autohet::reram::kernels {
namespace {

inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(sum) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum));
}

struct Avx2Core {
  static std::int64_t and_popcount(const std::uint64_t* x,
                                   const std::uint64_t* p,
                                   std::int64_t words) {
    __m256i acc = _mm256_setzero_si256();
    std::int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i v = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + w)));
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
    }
    std::int64_t n = hsum_epi64(acc);
    for (; w < words; ++w) n += std::popcount(x[w] & p[w]);
    return n;
  }
  static std::int64_t weighted_and_popcount(const std::uint64_t* x8,
                                            const std::uint64_t* p,
                                            std::int64_t words) {
    // One weight-plane chunk load serves all 8 input planes, and the 2^xb
    // weighting happens on the vpsadbw lane counts inside the vector
    // accumulator — one horizontal reduction per column, not eight.
    __m256i acc = _mm256_setzero_si256();
    const __m256i zero = _mm256_setzero_si256();
    std::int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i pv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + w));
      for (int xb = 0; xb < 8; ++xb) {
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(x8 + xb * words + w)),
            pv);
        const __m256i cnt = _mm256_sad_epu8(popcount_bytes(v), zero);
        acc = _mm256_add_epi64(acc, _mm256_slli_epi64(cnt, xb));
      }
    }
    std::int64_t n = hsum_epi64(acc);
    for (; w < words; ++w) {
      for (int xb = 0; xb < 8; ++xb) {
        n += static_cast<std::int64_t>(
                 std::popcount(x8[xb * words + w] & p[w]))
             << xb;
      }
    }
    return n;
  }
  static std::int64_t popcount(const std::uint64_t* x, std::int64_t words) {
    __m256i acc = _mm256_setzero_si256();
    std::int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
    }
    std::int64_t n = hsum_epi64(acc);
    for (; w < words; ++w) n += std::popcount(x[w]);
    return n;
  }
  // vpmaddwd GEMM tile: 8 samples' quads (32 bytes) widen with vpmovzxbw
  // into two vectors of 4 samples, and vpmaddwd against the sign-extended
  // weight quad leaves each sample's quad as two int32 pair sums. The pairs
  // stay split in the accumulators and fold once per tile (vphaddd), so the
  // quad loop is widen + multiply-add only. vpmaddubsw would be one
  // instruction shorter but saturates its int16 pair sums (255·127·2).
  // 4 columns × 1 vector = 8 pair accumulators + 2 inputs + 1 weight.
  static constexpr int kTileCols = 4;
  static constexpr int kTileVectors = 1;
  static constexpr std::int64_t kVectorPositions = 8;
  template <int NB, int NV>
  static void gemm_tile(const std::int32_t* wq, std::int64_t quads,
                        std::int64_t cols, const std::uint8_t* xq,
                        std::int64_t count, std::int32_t* acc,
                        std::int64_t last) {
    __m256i m[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) m[v] = _mm256_set1_epi32(-1);
    m[NV - 1] = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(last)),
                                   _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i lo[NB][NV];
    __m256i hi[NB][NV];
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        lo[b][v] = _mm256_setzero_si256();
        hi[b][v] = _mm256_setzero_si256();
      }
    }
    for (std::int64_t q = 0; q < quads; ++q) {
      const std::uint8_t* x = xq + q * count * 4;
      const std::int32_t* w = wq + q * cols;
      __m256i xl[NV];
      __m256i xh[NV];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        const __m256i raw = _mm256_maskload_epi32(
            reinterpret_cast<const int*>(x + v * 32), m[v]);
        xl[v] = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(raw));
        xh[v] = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(raw, 1));
      }
#pragma GCC unroll 4
      for (int b = 0; b < NB; ++b) {
        const __m256i wv = _mm256_cvtepi8_epi16(_mm_set1_epi32(w[b]));
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          lo[b][v] = _mm256_add_epi32(lo[b][v], _mm256_madd_epi16(xl[v], wv));
          hi[b][v] = _mm256_add_epi32(hi[b][v], _mm256_madd_epi16(xh[v], wv));
        }
      }
    }
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        // hadd → samples [0 1 4 5 | 2 3 6 7]; the 64-bit permute restores
        // sample order.
        const __m256i sum = _mm256_permute4x64_epi64(
            _mm256_hadd_epi32(lo[b][v], hi[b][v]), 0xd8);
        int* a = reinterpret_cast<int*>(acc + b * count + v * 8);
        _mm256_maskstore_epi32(
            a, m[v], _mm256_add_epi32(_mm256_maskload_epi32(a, m[v]), sum));
      }
    }
  }
};

void bit_serial_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<Avx2Core>(planes, plane_cols, col_words, cols,
                                        words, xbits, count, acc_t);
}

void multilevel_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, const std::int64_t* popx,
                    const std::int64_t* refs, std::int32_t* acc_t) {
  detail::multilevel_mvm_impl<Avx2Core>(planes, plane_cols, col_words, cols,
                                        words, xbits, count, popx, refs,
                                        acc_t);
}

void int8_gemm(const std::int32_t* wq, std::int64_t quads, std::int64_t cols,
               const std::uint8_t* xq, std::int64_t count,
               std::int32_t* acc_t) {
  detail::int8_gemm_impl<Avx2Core>(wq, quads, cols, xq, count, acc_t);
}

std::int64_t popcount_words(const std::uint64_t* x, std::int64_t words) {
  return detail::popcount_words_impl<Avx2Core>(x, words);
}

}  // namespace

namespace detail {
const Ops kAvx2Ops = {"avx2", bit_serial_mvm, multilevel_mvm, int8_gemm,
                      popcount_words};
}  // namespace detail

}  // namespace autohet::reram::kernels

#else  // !AUTOHET_KERNELS_AVX2

namespace autohet::reram::kernels::detail {
const Ops kAvx2Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::reram::kernels::detail

#endif  // AUTOHET_KERNELS_AVX2
