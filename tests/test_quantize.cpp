#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "nn/quantize.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using tensor::Tensor;

TEST(QuantizeWeights, RoundTripErrorBounded) {
  common::Rng rng(1);
  Tensor t({64, 27});
  t.fill_normal(rng, 0.0f, 1.0f);
  const auto q = nn::quantize_weights(t, 8);
  const Tensor back = nn::dequantize(q);
  // Max error is half a quantization step.
  const float step = q.scale;
  EXPECT_LT(tensor::max_abs_diff(t, back), step * 0.5f + 1e-6f);
}

TEST(QuantizeWeights, SymmetricRange) {
  Tensor t({3});
  t[0] = -2.0f;
  t[1] = 0.0f;
  t[2] = 2.0f;
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_EQ(q.values[0], -127);
  EXPECT_EQ(q.values[1], 0);
  EXPECT_EQ(q.values[2], 127);
  EXPECT_FLOAT_EQ(q.scale, 2.0f / 127.0f);
}

TEST(QuantizeWeights, AllZerosUsesUnitScale) {
  Tensor t({5});
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (auto v : q.values) EXPECT_EQ(v, 0);
}

TEST(QuantizeWeights, LowerBitWidths) {
  common::Rng rng(2);
  Tensor t({100});
  t.fill_uniform(rng, -1.0f, 1.0f);
  for (int bits : {2, 4, 6, 8}) {
    const auto q = nn::quantize_weights(t, bits);
    const int qmax = (1 << (bits - 1)) - 1;
    for (auto v : q.values) {
      EXPECT_GE(v, -qmax);
      EXPECT_LE(v, qmax);
    }
  }
  EXPECT_THROW(nn::quantize_weights(t, 1), std::invalid_argument);
  EXPECT_THROW(nn::quantize_weights(t, 9), std::invalid_argument);
}

TEST(QuantizeActivations, UnsignedRangeAndRoundTrip) {
  common::Rng rng(3);
  Tensor t({200});
  t.fill_uniform(rng, 0.0f, 5.0f);
  const auto q = nn::quantize_activations(t, 8);
  const Tensor back = nn::dequantize(q);
  EXPECT_LT(tensor::max_abs_diff(t, back), q.scale * 0.5f + 1e-6f);
  for (auto v : q.values) EXPECT_LE(v, 255);
}

TEST(QuantizeActivations, RejectsNegatives) {
  Tensor t({2});
  t[0] = -0.1f;
  EXPECT_THROW(nn::quantize_activations(t, 8), std::invalid_argument);
}

TEST(QuantizeActivations, MatchesLibmRoundBitForBit) {
  // The quantizer rounds with trunc-and-compare instead of std::round; it
  // must agree with clamp(round(x / scale)) on every element, including
  // exact .5 ties, values a hair either side of them, and every length
  // tail of the 16-wide vector loop.
  common::Rng rng(11);
  for (const int bits : {2, 5, 8}) {
    const float qmax = static_cast<float>((1 << bits) - 1);
    for (const std::int64_t n : {1, 7, 15, 16, 17, 33, 250}) {
      Tensor t({n});
      t.fill_uniform(rng, 0.0f, 3.0f);
      t[0] = 3.0f;  // pins vmax, so scale = 3 / qmax
      const float scale = 3.0f / qmax;
      for (std::int64_t i = 1; i < n; i += 3) {
        const float k = static_cast<float>(rng.uniform_int(0, (1 << bits) - 2));
        t[i] = (k + 0.5f) * scale;  // near-tie after the division
        if (i + 1 < n) t[i + 1] = std::nextafter(t[i], 0.0f);
      }
      const auto q = nn::quantize_activations(t, bits);
      ASSERT_EQ(q.scale, scale);
      for (std::int64_t i = 0; i < n; ++i) {
        const float want = std::clamp(std::round(t[i] / scale), 0.0f, qmax);
        EXPECT_EQ(q.values[static_cast<std::size_t>(i)],
                  static_cast<std::uint8_t>(want))
            << "bits " << bits << " n " << n << " i " << i;
      }
    }
  }
}

TEST(QuantizeActivations, RejectsNaNAnywhere) {
  for (const std::int64_t pos : {0, 5, 8, 19}) {
    Tensor t({20});
    t.fill(1.0f);
    t[pos] = std::nanf("");
    EXPECT_THROW(nn::quantize_activations(t, 8), std::invalid_argument)
        << pos;
  }
}

TEST(QuantizeActivations, MaxValueHitsFullScale) {
  Tensor t({2});
  t[0] = 0.0f;
  t[1] = 10.0f;
  const auto q = nn::quantize_activations(t, 8);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[1], 255);
}

TEST(ActivationBitPlane, ReconstructsValues) {
  common::Rng rng(4);
  Tensor t({64});
  t.fill_uniform(rng, 0.0f, 1.0f);
  const auto q = nn::quantize_activations(t, 8);
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    unsigned reconstructed = 0;
    for (int b = 0; b < 8; ++b) {
      const auto plane = nn::activation_bit_plane(q, b);
      reconstructed |= static_cast<unsigned>(plane[i]) << b;
    }
    EXPECT_EQ(reconstructed, q.values[i]);
  }
}

TEST(ActivationBitPlane, RejectsOutOfRangeBit) {
  Tensor t({1});
  t[0] = 1.0f;
  const auto q = nn::quantize_activations(t, 8);
  EXPECT_THROW(nn::activation_bit_plane(q, 8), std::invalid_argument);
  EXPECT_THROW(nn::activation_bit_plane(q, -1), std::invalid_argument);
}

TEST(QuantizeWeights, PreservesShapeMetadata) {
  Tensor t({4, 3, 2, 2});
  t.fill(0.5f);
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_EQ(q.shape, t.shape());
  EXPECT_EQ(q.numel(), t.numel());
  const Tensor back = nn::dequantize(q);
  EXPECT_EQ(back.shape(), t.shape());
}

}  // namespace
}  // namespace autohet
