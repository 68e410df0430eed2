#pragma once
/// \file replay.hpp
/// Uniform experience-replay buffer for DQN training.

#include <cstddef>
#include <vector>

#include "common/random.hpp"
#include "linalg/vector.hpp"

namespace oic::rl {

/// One environment interaction (s, a, r, s', terminal).
struct Transition {
  linalg::Vector state;
  int action = 0;
  double reward = 0.0;
  linalg::Vector next_state;
  bool terminal = false;
};

/// Fixed-capacity ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  /// Create a buffer holding at most `capacity` transitions.
  explicit ReplayBuffer(std::size_t capacity);

  /// Insert one transition (overwrites the oldest once full).
  void add(Transition t);

  /// Number of stored transitions.
  std::size_t size() const { return size_; }

  /// Maximum capacity.
  std::size_t capacity() const { return storage_.size(); }

  /// Sample `batch` transitions uniformly with replacement, one rng draw
  /// per transition in order.  Requires a non-empty buffer.  The result
  /// lives in a member buffer that the next call overwrites, so steady-state
  /// sampling allocates nothing.
  const std::vector<const Transition*>& sample(std::size_t batch, Rng& rng);

  /// Access by age-agnostic index (tests).
  const Transition& at(std::size_t i) const;

 private:
  std::vector<Transition> storage_;
  std::vector<const Transition*> sampled_;  ///< sample()'s result
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace oic::rl
