// The experience pool (paper §3.2): a fixed-capacity ring buffer of
// (S_k, S_{k+1}, a_k, R) transitions with uniform minibatch sampling.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace autohet::rl {

struct Transition {
  std::vector<double> state;
  std::vector<double> next_state;
  double action = 0.0;  ///< continuous action in [0, 1]
  double reward = 0.0;
  bool terminal = false;  ///< last layer of the episode
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  void add(Transition t);
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return storage_.size(); }

  /// Uniform sample with replacement, one transition per slot of `out`
  /// (slots filled in order, one RNG draw each). Pointers stay valid until
  /// the next add(). Allocates nothing.
  void sample(common::Rng& rng, std::span<const Transition*> out) const;

  /// Convenience form: a fresh vector of `batch` samples.
  std::vector<const Transition*> sample(common::Rng& rng,
                                        std::size_t batch) const;

 private:
  std::vector<Transition> storage_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
};

}  // namespace autohet::rl
