#include "rl/replay.hpp"

#include "common/error.hpp"

namespace oic::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : storage_(capacity) {
  OIC_REQUIRE(capacity >= 1, "ReplayBuffer: capacity must be positive");
}

void ReplayBuffer::add(Transition t) {
  storage_[head_] = std::move(t);
  head_ = (head_ + 1) % storage_.size();
  if (size_ < storage_.size()) ++size_;
}

const std::vector<const Transition*>& ReplayBuffer::sample(std::size_t batch, Rng& rng) {
  OIC_REQUIRE(size_ > 0, "ReplayBuffer::sample: buffer is empty");
  sampled_.resize(batch);
  for (const Transition*& out : sampled_) {
    const std::size_t idx =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(size_) - 1));
    out = &storage_[idx];
  }
  return sampled_;
}

const Transition& ReplayBuffer::at(std::size_t i) const {
  OIC_REQUIRE(i < size_, "ReplayBuffer::at: index out of range");
  return storage_[i];
}

}  // namespace oic::rl
