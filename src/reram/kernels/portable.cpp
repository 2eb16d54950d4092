// Portable kernel variant: plain C++ word and integer loops under the project's
// baseline compiler flags. Always compiled in; the dispatch fallback, the
// AUTOHET_KERNEL=portable CI baseline, and the denominator of the bench's
// packed-vs-portable throughput ratio.
#include <bit>
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#include "reram/kernels/kernel_ops.inl"

namespace autohet::reram::kernels {
namespace {

struct PortableCore {
  static std::int64_t and_popcount(const std::uint64_t* x,
                                   const std::uint64_t* p,
                                   std::int64_t words) {
    std::int64_t n = 0;
    for (std::int64_t w = 0; w < words; ++w) n += std::popcount(x[w] & p[w]);
    return n;
  }
  static std::int64_t weighted_and_popcount(const std::uint64_t* x8,
                                            const std::uint64_t* p,
                                            std::int64_t words) {
    std::int64_t n = 0;
    for (int xb = 0; xb < 8; ++xb) {
      const std::uint64_t* x = x8 + xb * words;
      std::int64_t c = 0;
      for (std::int64_t w = 0; w < words; ++w) {
        c += std::popcount(x[w] & p[w]);
      }
      n += c << xb;
    }
    return n;
  }
  static std::int64_t popcount(const std::uint64_t* x, std::int64_t words) {
    std::int64_t n = 0;
    for (std::int64_t w = 0; w < words; ++w) n += std::popcount(x[w]);
    return n;
  }
  // 4 columns × 8 samples of scalar int32 accumulators: each quad's four
  // weights are unpacked once and reused across the tile's samples.
  static constexpr int kTileCols = 4;
  static constexpr int kTileVectors = 1;
  static constexpr std::int64_t kVectorPositions = 8;
  template <int NB, int NV>
  static void gemm_tile(const std::int32_t* wq, std::int64_t quads,
                        std::int64_t cols, const std::uint8_t* xq,
                        std::int64_t count, std::int32_t* acc,
                        std::int64_t last) {
    const std::int64_t n = (NV - 1) * kVectorPositions + last;
    std::int32_t c[NB][kVectorPositions] = {};
    for (std::int64_t q = 0; q < quads; ++q) {
      const std::uint8_t* x = xq + q * count * 4;
      const std::int32_t* w = wq + q * cols;
      for (int b = 0; b < NB; ++b) {
        const auto u = static_cast<std::uint32_t>(w[b]);
        const std::int32_t w0 = static_cast<std::int8_t>(u);
        const std::int32_t w1 = static_cast<std::int8_t>(u >> 8);
        const std::int32_t w2 = static_cast<std::int8_t>(u >> 16);
        const std::int32_t w3 = static_cast<std::int8_t>(u >> 24);
        for (std::int64_t p = 0; p < n; ++p) {
          const std::uint8_t* xp = x + p * 4;
          c[b][p] += w0 * xp[0] + w1 * xp[1] + w2 * xp[2] + w3 * xp[3];
        }
      }
    }
    for (int b = 0; b < NB; ++b) {
      for (std::int64_t p = 0; p < n; ++p) acc[b * count + p] += c[b][p];
    }
  }
};

void bit_serial_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<PortableCore>(planes, plane_cols, col_words,
                                            cols, words, xbits, count, acc_t);
}

void multilevel_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, const std::int64_t* popx,
                    const std::int64_t* refs, std::int32_t* acc_t) {
  detail::multilevel_mvm_impl<PortableCore>(planes, plane_cols, col_words,
                                            cols, words, xbits, count, popx,
                                            refs, acc_t);
}

void int8_gemm(const std::int32_t* wq, std::int64_t quads, std::int64_t cols,
               const std::uint8_t* xq, std::int64_t count,
               std::int32_t* acc_t) {
  detail::int8_gemm_impl<PortableCore>(wq, quads, cols, xq, count, acc_t);
}

std::int64_t popcount_words(const std::uint64_t* x, std::int64_t words) {
  return detail::popcount_words_impl<PortableCore>(x, words);
}

}  // namespace

namespace detail {
const Ops kPortableOps = {"portable", bit_serial_mvm, multilevel_mvm,
                          int8_gemm, popcount_words};
}  // namespace detail

}  // namespace autohet::reram::kernels
