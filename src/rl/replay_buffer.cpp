#include "rl/replay_buffer.hpp"

#include "common/error.hpp"

namespace autohet::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : storage_(capacity) {
  AUTOHET_CHECK(capacity > 0, "replay capacity must be positive");
}

void ReplayBuffer::add(Transition t) {
  storage_[next_] = std::move(t);
  next_ = (next_ + 1) % storage_.size();
  if (size_ < storage_.size()) ++size_;
}

void ReplayBuffer::sample(common::Rng& rng,
                          std::span<const Transition*> out) const {
  AUTOHET_CHECK(size_ > 0, "cannot sample from an empty replay buffer");
  for (const Transition*& slot : out) {
    slot = &storage_[rng.uniform_u64(size_)];
  }
}

std::vector<const Transition*> ReplayBuffer::sample(common::Rng& rng,
                                                    std::size_t batch) const {
  std::vector<const Transition*> out(batch);
  sample(rng, out);
  return out;
}

}  // namespace autohet::rl
