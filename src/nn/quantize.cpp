#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"

namespace autohet::nn {

QuantizedWeights quantize_weights(const tensor::Tensor& t, int bits) {
  AUTOHET_CHECK(bits >= 2 && bits <= 8, "weight bits must be in [2, 8]");
  QuantizedWeights q;
  q.shape = t.shape();
  q.bits = bits;
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float abs_max = t.abs_max();
  q.scale = (abs_max > 0.0f) ? abs_max / qmax : 1.0f;
  q.values.resize(static_cast<std::size_t>(t.numel()));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float scaled = t[i] / q.scale;
    const float clamped = std::clamp(std::round(scaled), -qmax, qmax);
    q.values[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(clamped);
  }
  return q;
}

QuantizedActivations quantize_activations(const tensor::Tensor& t, int bits) {
  AUTOHET_CHECK(bits >= 2 && bits <= 8, "activation bits must be in [2, 8]");
  QuantizedActivations q;
  q.shape = t.shape();
  q.bits = bits;
  const float qmax = static_cast<float>((1 << bits) - 1);
  const float* x = t.data();
  const std::int64_t n = t.numel();

  // Max scan with the NaN/negative check folded in and raised once after
  // the scan. Eight lanes of GNU vectors keep it on the vector unit; a
  // lane-order max equals the sequential one (values are ≥ 0, NaN fails
  // the check first, and no lane starts below the scalar 0.0f).
  using V4f = float __attribute__((vector_size(16)));
  using V4i = std::int32_t __attribute__((vector_size(16)));
  V4f m0 = {}, m1 = {};
  V4i bad0 = {}, bad1 = {};
  const V4f zero = {};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V4f a, b;
    std::memcpy(&a, x + i, sizeof a);
    std::memcpy(&b, x + i + 4, sizeof b);
    bad0 |= ~(a >= zero);
    bad1 |= ~(b >= zero);
    m0 = m0 < a ? a : m0;
    m1 = m1 < b ? b : m1;
  }
  float vmax = 0.0f;
  bool bad = false;
  for (int l = 0; l < 4; ++l) {
    bad = bad || bad0[l] != 0 || bad1[l] != 0;
    vmax = std::max(vmax, m0[l]);
    vmax = std::max(vmax, m1[l]);
  }
  for (; i < n; ++i) {
    bad = bad || !(x[i] >= 0.0f);
    vmax = std::max(vmax, x[i]);
  }
  AUTOHET_CHECK(!bad, "activation quantization expects x >= 0");

  q.scale = (vmax > 0.0f) ? vmax / qmax : 1.0f;
  q.values.resize(static_cast<std::size_t>(n));
  std::uint8_t* out = q.values.data();
  const float scale = q.scale;
  // clamp(round(x / scale), 0, qmax) without libm: x / scale is in
  // [0, qmax] up to rounding (so far below 2^23), where trunc-and-compare
  // is exact round-half-away. Clamping the operand to qmax first only
  // matters for values that round to qmax anyway.
  i = 0;
#if defined(__SSE2__)
  // The same arithmetic on x86-64's baseline vector unit, 16 at a time.
  // Written out because the compiler narrows int32 → uint8 with a long
  // unpack chain; the results are in [0, qmax], where the saturating packs
  // are exact.
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 vqmax = _mm_set1_ps(qmax);
  const __m128 half = _mm_set1_ps(0.5f);
  for (; i + 16 <= n; i += 16) {
    __m128i r[4];
    for (int k = 0; k < 4; ++k) {
      const __m128 v =
          _mm_min_ps(_mm_div_ps(_mm_loadu_ps(x + i + 4 * k), vscale), vqmax);
      const __m128i tr = _mm_cvttps_epi32(v);
      const __m128 up =
          _mm_cmpge_ps(_mm_sub_ps(v, _mm_cvtepi32_ps(tr)), half);
      r[k] = _mm_sub_epi32(tr, _mm_castps_si128(up));  // up lanes are −1
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(_mm_packs_epi32(r[0], r[1]),
                                      _mm_packs_epi32(r[2], r[3])));
  }
#endif
  for (; i < n; ++i) {
    const float v = std::min(x[i] / scale, qmax);
    std::int32_t r = static_cast<std::int32_t>(v);
    r += (v - static_cast<float>(r) >= 0.5f) ? 1 : 0;
    out[i] = static_cast<std::uint8_t>(r);
  }
  return q;
}

tensor::Tensor dequantize(const QuantizedWeights& q) {
  tensor::Tensor t(q.shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) * q.scale;
  }
  return t;
}

tensor::Tensor dequantize(const QuantizedActivations& q) {
  tensor::Tensor t(q.shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) * q.scale;
  }
  return t;
}

std::vector<std::uint8_t> activation_bit_plane(const QuantizedActivations& q,
                                               int bit) {
  AUTOHET_CHECK(bit >= 0 && bit < q.bits, "bit plane out of range");
  std::vector<std::uint8_t> plane(q.values.size());
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    plane[i] = static_cast<std::uint8_t>((q.values[i] >> bit) & 1u);
  }
  return plane;
}

}  // namespace autohet::nn
