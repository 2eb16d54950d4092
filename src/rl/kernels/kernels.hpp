// Dispatching kernel table for the DDPG update's dense loops.
//
// The minibatch update (rl::Mlp::forward_batch / backward_batch, Adam::step,
// the target-network soft update) spends its time in five loops: the
// register-tiled C += A·B micro-kernel, the batched activation and
// derivative sweeps, the Adam step and the soft update. They are built once
// per ISA variant behind this table of function pointers, the same idiom as
// reram::kernels: one shared loop body (kernel_ops.inl), one translation
// unit per variant compiled with that variant's flags, and the table picked
// by the process-wide variant of common/kernel_variant.hpp (CPUID probe,
// AUTOHET_KERNEL / --kernel override). Each variant sizes the gemm register
// tile for its register file:
//
//   portable — baseline flags; 4 rows × 16 doubles of GNU vectors (the
//              equivalence oracle).
//   avx2     — 16 ymm registers: 4 rows × 8 doubles.
//   avx512   — 32 zmm registers: 4 rows × 16 doubles (8 zmm accumulators).
//
// Every unit is compiled with -ffp-contract=off: no mul+add is fused into an
// FMA, so each op rounds exactly as the scalar per-sample path does and all
// variants are bit-identical (tests/test_rl_kernels.cpp checks this, and the
// search anchor test checks a whole seeded search under every variant).
#pragma once

#include <cstddef>

#include "rl/mlp.hpp"

namespace autohet::rl::kernels {

/// One Adam step's coefficients; the bias corrections are 1 − β^t.
struct AdamCoeffs {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double bias_correction1 = 1.0;
  double bias_correction2 = 1.0;
  double epsilon = 0.0;
};

struct Ops {
  const char* name = nullptr;

  /// C[m][n] += Σ_k A[m*sam + k*sak] · B[k*ldb + n]. The A strides cover
  /// the three layouts the batched passes need (X·Wᵀ forward, Dᵀ·X weight
  /// gradients, D·W input gradients) without materializing a transpose.
  /// Each C element accumulates over k in ascending order, starting from its
  /// current value.
  void (*gemm_acc)(std::size_t M, std::size_t K, std::size_t N,
                   const double* A, std::size_t sam, std::size_t sak,
                   const double* B, std::size_t ldb, double* C,
                   std::size_t ldc) = nullptr;

  /// y[i] ← f(y[i]) for i < n.
  void (*activate)(Activation act, double* y, std::size_t n) = nullptr;

  /// delta[i] ← delta[i] · f'(y[i]), f' expressed through the activated
  /// output y (activation_grad_from_output).
  void (*activation_backprop)(Activation act, const double* y, double* delta,
                              std::size_t n) = nullptr;

  /// Adam over n parameters: m ← β1·m + (1−β1)·g, v ← β2·v + (1−β2)·g·g,
  /// θ ← θ − lr·(m/bc1) / (√(v/bc2) + ε).
  void (*adam_step)(const AdamCoeffs& c, double* params, const double* grads,
                    double* m, double* v, std::size_t n) = nullptr;

  /// dst ← τ·src + (1−τ)·dst over n elements.
  void (*soft_update)(double tau, const double* src, double* dst,
                      std::size_t n) = nullptr;
};

/// The active variant's table (common::kernels::active_variant()).
const Ops& ops();

namespace detail {
// One table per translation unit, each compiled with its own ISA flags. A
// variant that is not compiled in leaves its function pointers null.
extern const Ops kPortableOps;
extern const Ops kAvx2Ops;
extern const Ops kAvx512Ops;
}  // namespace detail

}  // namespace autohet::rl::kernels
