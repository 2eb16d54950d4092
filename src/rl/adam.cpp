#include "rl/adam.hpp"

#include <cmath>

#include "common/error.hpp"
#include "rl/kernels/kernels.hpp"

namespace autohet::rl {

Adam::Adam(std::size_t param_count, double lr, double beta1, double beta2,
           double epsilon)
    : lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      m_(param_count, 0.0),
      v_(param_count, 0.0) {
  AUTOHET_CHECK(lr > 0.0, "learning rate must be positive");
  AUTOHET_CHECK(beta1 >= 0.0 && beta1 < 1.0 && beta2 >= 0.0 && beta2 < 1.0,
                "betas must be in [0, 1)");
}

void Adam::step(std::span<double> params, std::span<const double> grads) {
  AUTOHET_CHECK(params.size() == m_.size() && grads.size() == m_.size(),
                "Adam size mismatch");
  ++t_;
  kernels::AdamCoeffs c;
  c.lr = lr_;
  c.beta1 = beta1_;
  c.beta2 = beta2_;
  c.bias_correction1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  c.bias_correction2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  c.epsilon = epsilon_;
  kernels::ops().adam_step(c, params.data(), grads.data(), m_.data(),
                           v_.data(), m_.size());
}

}  // namespace autohet::rl
