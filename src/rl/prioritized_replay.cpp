#include "rl/prioritized_replay.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace autohet::rl {

PrioritizedReplayBuffer::PrioritizedReplayBuffer(std::size_t capacity,
                                                 double alpha, double epsilon)
    : storage_(capacity),
      priorities_(capacity, 0.0),
      alpha_(alpha),
      epsilon_(epsilon) {
  AUTOHET_CHECK(capacity > 0, "replay capacity must be positive");
  AUTOHET_CHECK(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0, 1]");
  AUTOHET_CHECK(epsilon > 0.0, "epsilon must be positive");
}

void PrioritizedReplayBuffer::add(Transition t) {
  storage_[next_] = std::move(t);
  priorities_[next_] = max_priority_;
  next_ = (next_ + 1) % storage_.size();
  if (size_ < storage_.size()) ++size_;
}

void PrioritizedReplayBuffer::sample(common::Rng& rng, double beta,
                                     std::span<Sample> out) {
  AUTOHET_CHECK(size_ > 0, "cannot sample from an empty replay buffer");
  AUTOHET_CHECK(beta >= 0.0 && beta <= 1.0, "beta must be in [0, 1]");
  // Prefix sums over the live region for inverse-CDF sampling.
  prefix_.resize(size_);
  double total = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    total += priorities_[i];
    prefix_[i] = total;
  }
  AUTOHET_CHECK(total > 0.0, "all priorities are zero");

  double max_weight = 0.0;
  for (Sample& s : out) {
    const double u = rng.uniform(0.0, total);
    const auto it = std::lower_bound(prefix_.begin(), prefix_.end(), u);
    const auto idx = static_cast<std::size_t>(it - prefix_.begin());
    s.transition = &storage_[idx];
    s.index = idx;
    const double p = priorities_[idx] / total;
    s.weight = std::pow(static_cast<double>(size_) * p, -beta);
    max_weight = std::max(max_weight, s.weight);
  }
  if (max_weight > 0.0) {
    for (Sample& s : out) s.weight /= max_weight;
  }
}

std::vector<PrioritizedReplayBuffer::Sample> PrioritizedReplayBuffer::sample(
    common::Rng& rng, std::size_t batch, double beta) {
  std::vector<Sample> out(batch);
  sample(rng, beta, out);
  return out;
}

void PrioritizedReplayBuffer::update_priority(std::size_t index,
                                              double td_error_abs) {
  AUTOHET_CHECK(index < size_, "priority index out of range");
  AUTOHET_CHECK(td_error_abs >= 0.0, "TD error magnitude must be >= 0");
  const double p = std::pow(td_error_abs + epsilon_, alpha_);
  priorities_[index] = p;
  max_priority_ = std::max(max_priority_, p);
}

}  // namespace autohet::rl
