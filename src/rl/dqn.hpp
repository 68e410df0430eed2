#pragma once
/// \file dqn.hpp
/// Double deep Q-learning (van Hasselt et al. [24] in the paper), the
/// learner behind the DRL-based skipping decision of Sec. III-B.2.
///
/// The action set is discrete and tiny ({skip, run} = {0, 1} in the
/// framework), states are small dense vectors {x(t), w(t-r+1..t)}.  The
/// implementation therefore favours a transparent, fully deterministic
/// single-threaded design over throughput tricks.

#include <cstddef>

#include "common/random.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "rl/replay.hpp"

namespace oic::rl {

/// Linearly decaying epsilon-greedy exploration schedule.
class EpsilonSchedule {
 public:
  /// Decay from `start` to `end` over `decay_steps` action selections.
  EpsilonSchedule(double start, double end, std::size_t decay_steps);

  /// Epsilon after `step` selections.
  double at(std::size_t step) const;

 private:
  double start_, end_;
  std::size_t decay_steps_;
};

/// DQN hyper-parameters.  Defaults mirror the scale of the paper's ACC agent.
struct DqnConfig {
  std::vector<std::size_t> hidden = {64, 64};  ///< hidden layer widths
  double learning_rate = 1e-3;
  double gamma = 0.95;                 ///< discount factor
  std::size_t batch_size = 32;
  std::size_t replay_capacity = 20000;
  std::size_t min_replay = 200;        ///< transitions before learning starts
  std::size_t target_sync_interval = 250;  ///< hard target-net sync period
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 5000;
  double grad_clip = 10.0;             ///< max-abs gradient clip (0 = off)
};

/// Double DQN agent over a discrete action set {0, ..., num_actions-1}.
class DoubleDqn {
 public:
  /// Create an agent for `state_dim`-dimensional states and `num_actions`
  /// actions; network weights drawn from `rng`.
  DoubleDqn(std::size_t state_dim, std::size_t num_actions, DqnConfig config, Rng rng);

  /// Epsilon-greedy action (training mode); advances the exploration clock.
  int select_action(const linalg::Vector& state);

  /// Greedy action (evaluation mode); does not advance exploration.
  int greedy_action(const linalg::Vector& state) const;

  /// Greedy action through caller-owned scratch: allocation-free and safe
  /// for concurrent evaluation workers sharing one (const) agent, each with
  /// its own workspace.
  int greedy_action(const linalg::Vector& state, MlpWorkspace& ws) const;

  /// Q-values of the online network.
  linalg::Vector q_values(const linalg::Vector& state) const;

  /// Store a transition and perform one training step (once the replay
  /// buffer has warmed up).  Returns the TD loss of the minibatch, or 0
  /// while warming up.
  double observe(Transition t);

  /// Force a hard target-network sync (also happens automatically on the
  /// configured interval).
  void sync_target();

  /// Overwrite the online network's parameters (and re-sync the target) --
  /// the "deploy" path: load a serialized agent without retraining.
  /// Architecture must match.
  void load_online(const Mlp& net);

  /// Number of gradient updates performed.
  std::size_t train_steps() const { return train_steps_; }

  /// Number of action selections (exploration clock).
  std::size_t action_steps() const { return action_steps_; }

  /// Current exploration rate.
  double epsilon() const;

  /// Config in effect.
  const DqnConfig& config() const { return config_; }

  /// Online network (tests / serialization).
  const Mlp& online() const { return online_; }
  /// Target network (tests).
  const Mlp& target() const { return target_; }

 private:
  std::size_t state_dim_;
  std::size_t num_actions_;
  DqnConfig config_;
  Rng rng_;
  Mlp online_;
  Mlp target_;
  Adam optimizer_;
  ReplayBuffer replay_;
  EpsilonSchedule epsilon_schedule_;
  std::size_t action_steps_ = 0;
  std::size_t train_steps_ = 0;
  MlpWorkspace act_ws_;  ///< select_action's allocation-free forward scratch

  // Minibatch-update scratch, sized on the first update and reused.
  linalg::Matrix batch_states_;   ///< SoA minibatch: one state per row
  linalg::Matrix batch_next_;     ///< next states, same layout
  linalg::Matrix batch_dout_;     ///< per-sample dLoss/dQ rows
  std::vector<int> batch_actions_;
  std::vector<double> batch_rewards_;
  std::vector<unsigned char> batch_terminal_;
  BatchWorkspace ws_next_online_;
  BatchWorkspace ws_next_target_;
  BatchWorkspace ws_backward_;
  BatchForwardCache batch_cache_;
  Gradients grad_scratch_;

  double train_minibatch();
};

}  // namespace oic::rl
