#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "kernel_variant_test.hpp"
#include "rl/mlp.hpp"

namespace autohet {
namespace {

using rl::Activation;
using rl::Mlp;
using testutil::first_bit_mismatch;

TEST(Activations, ValuesAndGrads) {
  EXPECT_EQ(rl::apply_activation(Activation::kLinear, -2.0), -2.0);
  EXPECT_EQ(rl::apply_activation(Activation::kRelu, -2.0), 0.0);
  EXPECT_EQ(rl::apply_activation(Activation::kRelu, 3.0), 3.0);
  EXPECT_NEAR(rl::apply_activation(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(rl::apply_activation(Activation::kTanh, 0.0), 0.0, 1e-12);

  EXPECT_EQ(rl::activation_grad_from_output(Activation::kLinear, 5.0), 1.0);
  EXPECT_EQ(rl::activation_grad_from_output(Activation::kRelu, 0.0), 0.0);
  EXPECT_EQ(rl::activation_grad_from_output(Activation::kRelu, 2.0), 1.0);
  EXPECT_NEAR(rl::activation_grad_from_output(Activation::kSigmoid, 0.5),
              0.25, 1e-12);
  EXPECT_NEAR(rl::activation_grad_from_output(Activation::kTanh, 0.0), 1.0,
              1e-12);
}

TEST(Mlp, ForwardShape) {
  common::Rng rng(1);
  Mlp net({3, 8, 2}, {Activation::kRelu, Activation::kLinear}, rng);
  const std::vector<double> x = {0.1, -0.2, 0.3};
  const auto y = net.forward(x);
  EXPECT_EQ(y.size(), 2u);
  EXPECT_EQ(net.input_size(), 3);
  EXPECT_EQ(net.output_size(), 2);
  EXPECT_EQ(net.param_count(), 3u * 8 + 8 + 8 * 2 + 2);
}

TEST(Mlp, ValidatesConstruction) {
  common::Rng rng(1);
  EXPECT_THROW(Mlp({3}, {}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 2}, {}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 0}, {Activation::kLinear}, rng),
               std::invalid_argument);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  common::Rng rng(1);
  Mlp net({3, 2}, {Activation::kLinear}, rng);
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(net.forward(wrong), std::invalid_argument);
}

// Finite-difference gradient check: the cornerstone of the manual backprop.
class MlpGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradCheck, ParameterGradientsMatchFiniteDifferences) {
  const Activation hidden_act = GetParam();
  common::Rng rng(42);
  Mlp net({4, 6, 5, 2}, {hidden_act, hidden_act, Activation::kLinear}, rng);
  std::vector<double> x(4);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  // Loss L = sum of squared outputs; dL/dy = 2y.
  const auto loss_of = [&net, &x]() {
    const auto y = net.forward(x);
    double l = 0.0;
    for (double v : y) l += v * v;
    return l;
  };

  Mlp::Cache cache;
  const auto y = net.forward(x, cache);
  std::vector<double> dy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) dy[i] = 2.0 * y[i];
  net.zero_grads();
  net.backward(cache, dy);

  const double eps = 1e-6;
  // Check a deterministic sample of parameters across the whole vector.
  for (std::size_t p = 0; p < net.param_count(); p += 7) {
    const double original = net.params()[p];
    net.params()[p] = original + eps;
    const double l_plus = loss_of();
    net.params()[p] = original - eps;
    const double l_minus = loss_of();
    net.params()[p] = original;
    const double fd = (l_plus - l_minus) / (2.0 * eps);
    EXPECT_NEAR(net.grads()[p], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
        << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradCheck,
                         ::testing::Values(Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kRelu));

TEST(Mlp, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(43);
  Mlp net({3, 5, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  std::vector<double> x = {0.2, -0.4, 0.6};

  Mlp::Cache cache;
  net.forward(x, cache);
  const double one = 1.0;
  net.zero_grads();
  const auto dx = net.backward(cache, std::span<const double>(&one, 1));

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + eps;
    const double y_plus = net.forward(x)[0];
    x[i] = orig - eps;
    const double y_minus = net.forward(x)[0];
    x[i] = orig;
    EXPECT_NEAR(dx[i], (y_plus - y_minus) / (2 * eps), 1e-5) << i;
  }
}

TEST(Mlp, BackwardAccumulatesAcrossCalls) {
  common::Rng rng(44);
  Mlp net({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  const std::vector<double> x = {0.5, -0.5};
  const double one = 1.0;

  Mlp::Cache cache;
  net.forward(x, cache);
  net.zero_grads();
  net.backward(cache, std::span<const double>(&one, 1));
  const std::vector<double> single = net.grads();

  net.zero_grads();
  net.backward(cache, std::span<const double>(&one, 1));
  net.backward(cache, std::span<const double>(&one, 1));
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_NEAR(net.grads()[i], 2.0 * single[i], 1e-12);
  }
}

TEST(Mlp, SoftUpdateMovesTowardSource) {
  common::Rng rng(45);
  Mlp a({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  Mlp b({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  const std::vector<double> before = b.params();
  b.soft_update_from(a, 0.25);
  for (std::size_t i = 0; i < b.param_count(); ++i) {
    EXPECT_NEAR(b.params()[i], 0.25 * a.params()[i] + 0.75 * before[i],
                1e-12);
  }
  b.soft_update_from(a, 1.0);
  for (std::size_t i = 0; i < b.param_count(); ++i) {
    EXPECT_EQ(b.params()[i], a.params()[i]);
  }
}

TEST(Mlp, CopyParamsExactly) {
  common::Rng rng(46);
  Mlp a({2, 4, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  Mlp b({2, 4, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  b.copy_params_from(a);
  const std::vector<double> x = {0.3, 0.7};
  EXPECT_EQ(a.forward(x)[0], b.forward(x)[0]);
}

TEST(Mlp, SigmoidOutputStaysInUnitInterval) {
  common::Rng rng(47);
  Mlp net({10, 32, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  for (int t = 0; t < 100; ++t) {
    std::vector<double> x(10);
    for (auto& v : x) v = rng.uniform(-10.0, 10.0);
    const double y = net.forward(x)[0];
    EXPECT_GT(y, 0.0);
    EXPECT_LT(y, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Batched passes vs the per-sample path, bit for bit, under every kernel
// variant. mlp.hpp promises forward_batch/backward_batch compute element for
// element what forward/backward compute one sample at a time; ragged widths
// exercise every register-tile tail of the dispatched gemm.

class MlpBatchedMatchesPerSample : public testutil::KernelVariantFixture {};

TEST_P(MlpBatchedMatchesPerSample, ForwardAndBackwardBitForBit) {
  // Every width of {1, 3, 10, 11, 17, 64} appears as an input, a hidden
  // and an output width.
  const std::vector<std::vector<int>> nets = {
      {1, 3, 1}, {10, 64, 11}, {11, 17, 64, 1}, {64, 10, 17, 3}, {17, 11, 64},
      {3, 1, 10}};
  const Activation acts[] = {Activation::kLinear, Activation::kRelu,
                             Activation::kTanh, Activation::kSigmoid};
  const std::size_t batches[] = {1, 5, 64};
  common::Rng rng(0x5eed);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const std::vector<int>& sizes = nets[n];
    for (const Activation act : acts) {
      Mlp net(sizes, std::vector<Activation>(sizes.size() - 1, act), rng);
      const auto in = static_cast<std::size_t>(sizes.front());
      const auto out = static_cast<std::size_t>(sizes.back());
      for (const std::size_t batch : batches) {
        std::vector<double> x(batch * in), g(batch * out);
        for (double& v : x) v = rng.uniform(-2.0, 2.0);
        for (double& v : g) v = rng.uniform(-1.0, 1.0);

        // Per-sample reference: outputs, summed param grads, input grads.
        std::vector<double> y_ref, dx_ref;
        std::vector<Mlp::Cache> caches(batch);
        net.zero_grads();
        for (std::size_t s = 0; s < batch; ++s) {
          const std::span<const double> xs(x.data() + s * in, in);
          const std::vector<double> y = net.forward(xs, caches[s]);
          y_ref.insert(y_ref.end(), y.begin(), y.end());
          const std::vector<double> dx = net.backward(
              caches[s], std::span<const double>(g.data() + s * out, out));
          dx_ref.insert(dx_ref.end(), dx.begin(), dx.end());
        }
        const std::vector<double> grads_ref = net.grads();
        const std::vector<double> no_grads(net.param_count(), 0.0);

        for (const bool param_grads : {true, false}) {
          for (const bool want_input : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "net " << n << " act " << static_cast<int>(act)
                         << " batch " << batch << " param_grads "
                         << param_grads << " grad_input " << want_input);
            Mlp::BatchCache cache;
            const std::vector<double> y =
                net.forward_batch(x.data(), batch, cache);
            EXPECT_EQ(first_bit_mismatch(y, y_ref), -1);
            net.zero_grads();
            std::vector<double> dx;
            net.backward_batch(cache, g, want_input ? &dx : nullptr,
                               param_grads);
            EXPECT_EQ(first_bit_mismatch(net.grads(),
                                         param_grads ? grads_ref : no_grads),
                      -1);
            if (want_input) {
              EXPECT_EQ(first_bit_mismatch(dx, dx_ref), -1);
            }
          }
        }
      }
    }
  }
}

AUTOHET_INSTANTIATE_ALL_VARIANTS(MlpBatchedMatchesPerSample);

}  // namespace
}  // namespace autohet
