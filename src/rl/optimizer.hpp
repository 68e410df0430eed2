#pragma once
/// \file optimizer.hpp
/// First-order optimizer for the Mlp parameters: Adam, the adaptive step
/// DQN training uses.

#include "rl/mlp.hpp"

namespace oic::rl {

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  explicit Adam(double learning_rate = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// Apply one update from the given gradients.
  void step(Mlp& net, const Gradients& g);

  /// Number of updates applied so far.
  std::size_t steps() const { return t_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  bool initialized_ = false;
  Gradients m_;
  Gradients v_;
};

}  // namespace oic::rl
