// Equivalence suite for the dispatched rl kernel table: every supported ISA
// variant must reproduce the scalar formulas and the portable variant bit
// for bit — the gemm micro-kernel on ragged shapes and strides, the
// activation sweeps, N Adam steps, and a whole seeded run of DdpgAgent
// updates. Everything here is an exactness claim: EXPECT_EQ on bit
// patterns, never near.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/kernel_variant.hpp"
#include "common/rng.hpp"
#include "kernel_variant_test.hpp"
#include "rl/adam.hpp"
#include "rl/ddpg.hpp"
#include "rl/kernels/kernels.hpp"
#include "rl/mlp.hpp"

namespace autohet {
namespace {

namespace ck = common::kernels;
using rl::Activation;
using testutil::first_bit_mismatch;

std::vector<double> random_vector(common::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.5, 1.5);
  return v;
}

class RlKernelVariantTest : public testutil::KernelVariantFixture {};

TEST_P(RlKernelVariantTest, GemmMatchesScalarOracleOnRaggedShapes) {
  common::Rng rng(0xa11ce ^ static_cast<std::uint64_t>(GetParam()));
  const auto& ops = rl::kernels::ops();
  for (int trial = 0; trial < 60; ++trial) {
    const auto M = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto K = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto N = static_cast<std::size_t>(rng.uniform_int(1, 70));
    // The three A layouts the batched passes use: row-major (X·Wᵀ),
    // column-major (Dᵀ·X) and a padded row stride.
    const int layout = trial % 3;
    const std::size_t sam = layout == 0 ? K : (layout == 1 ? 1 : K + 3);
    const std::size_t sak = layout == 1 ? M : 1;
    const std::size_t ldb = N + static_cast<std::size_t>(trial % 2);
    const std::size_t ldc = N + static_cast<std::size_t>(trial % 4);
    const std::vector<double> A = random_vector(rng, M * K + 3 * M);
    const std::vector<double> B = random_vector(rng, K * ldb);
    std::vector<double> C = random_vector(rng, M * ldc);
    std::vector<double> expected = C;
    for (std::size_t m = 0; m < M; ++m) {
      for (std::size_t n = 0; n < N; ++n) {
        double acc = expected[m * ldc + n];
        for (std::size_t k = 0; k < K; ++k) {
          acc += A[m * sam + k * sak] * B[k * ldb + n];
        }
        expected[m * ldc + n] = acc;
      }
    }
    ops.gemm_acc(M, K, N, A.data(), sam, sak, B.data(), ldb, C.data(), ldc);
    EXPECT_EQ(first_bit_mismatch(C, expected), -1)
        << "M=" << M << " K=" << K << " N=" << N << " layout=" << layout;
  }
}

TEST_P(RlKernelVariantTest, ActivationSweepsMatchScalarDefinitions) {
  common::Rng rng(7);
  const auto& ops = rl::kernels::ops();
  for (const Activation act : {Activation::kLinear, Activation::kRelu,
                               Activation::kTanh, Activation::kSigmoid}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{13},
                                std::size_t{64}, std::size_t{4099}}) {
      std::vector<double> y = random_vector(rng, n);
      const std::vector<double> x = y;
      ops.activate(act, y.data(), n);
      std::vector<double> delta = random_vector(rng, n);
      std::vector<double> expected_delta = delta;
      ops.activation_backprop(act, y.data(), delta.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                  std::bit_cast<std::uint64_t>(
                      rl::apply_activation(act, x[i])))
            << "act " << static_cast<int>(act) << " i " << i;
        expected_delta[i] *= rl::activation_grad_from_output(act, y[i]);
        // Value equality: the ReLU sweep writes +0.0 where the scalar
        // product gives -0.0 for a negative delta; every consumer adds it
        // to an accumulator, where the two zeros are indistinguishable.
        ASSERT_EQ(delta[i], expected_delta[i])
            << "act " << static_cast<int>(act) << " i " << i;
      }
    }
  }
}

TEST_P(RlKernelVariantTest, AdamStepsMatchScalarReference) {
  constexpr double kLr = 1e-3, kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  constexpr int kSteps = 50;
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{37}, std::size_t{4993}}) {
    common::Rng rng(static_cast<std::uint64_t>(n));
    std::vector<double> params = random_vector(rng, n);
    std::vector<double> expected = params;
    std::vector<double> m(n, 0.0), v(n, 0.0);
    rl::Adam adam(n, kLr, kBeta1, kBeta2, kEps);
    for (int t = 1; t <= kSteps; ++t) {
      const std::vector<double> grads = random_vector(rng, n);
      adam.step(params, grads);
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
      for (std::size_t i = 0; i < n; ++i) {
        const double g = grads[i];
        m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
        v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g * g;
        const double m_hat = m[i] / bc1;
        const double v_hat = v[i] / bc2;
        expected[i] -= kLr * m_hat / (std::sqrt(v_hat) + kEps);
      }
    }
    EXPECT_EQ(first_bit_mismatch(params, expected), -1) << "n=" << n;
  }
}

AUTOHET_INSTANTIATE_ALL_VARIANTS(RlKernelVariantTest);

/// The observable state after a seeded run of DdpgAgent updates.
struct DdpgRun {
  std::uint64_t loss_sum_bits = 0;
  std::vector<double> actor;
  std::vector<double> critic;
};

DdpgRun run_ddpg_updates(int updates) {
  rl::DdpgConfig cfg;  // the search's shapes: 10-dim state, 64x64 nets
  rl::DdpgAgent agent(cfg, common::Rng(0xdd96));
  common::Rng rng(3);
  for (int i = 0; i < 320; ++i) {
    rl::Transition t;
    t.state = random_vector(rng, 10);
    t.next_state = random_vector(rng, 10);
    t.action = rng.uniform(0.0, 1.0);
    t.reward = rng.uniform(0.0, 1.0);
    t.terminal = i % 16 == 15;
    agent.remember(std::move(t));
  }
  double loss_sum = 0.0;
  for (int i = 0; i < updates; ++i) loss_sum += agent.update();
  return {std::bit_cast<std::uint64_t>(loss_sum), agent.actor().params(),
          agent.critic().params()};
}

TEST(RlKernelDispatch, DdpgUpdatesBitIdenticalAcrossVariants) {
  const ck::Variant previous = ck::active_variant();
  ck::set_variant(ck::Variant::kPortable);
  const DdpgRun reference = run_ddpg_updates(500);
  for (const ck::Variant v : ck::supported_variants()) {
    SCOPED_TRACE(ck::variant_name(v));
    ck::set_variant(v);
    const DdpgRun run = run_ddpg_updates(500);
    EXPECT_EQ(run.loss_sum_bits, reference.loss_sum_bits);
    EXPECT_EQ(first_bit_mismatch(run.actor, reference.actor), -1);
    EXPECT_EQ(first_bit_mismatch(run.critic, reference.critic), -1);
  }
  ck::set_variant(previous);
}

}  // namespace
}  // namespace autohet
