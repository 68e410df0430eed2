#pragma once
/// \file trainer.hpp
/// Plant-generic DQN training for the learned skipping policy
/// (Sec. III-B.2 / Algorithm 1's offline half), lifted from the ACC-only
/// src/acc trainer exactly as PR 2 lifted the evaluation harness: the loop
/// is parameterized by eval::PlantCase, so every plant in the scenario
/// registry can train a skipping agent, not just the ACC.
///
/// The Trainer owns the three pieces the paper's training procedure adds on
/// top of a plant:
///
///   * reward shaping  R = -w1 [x2 outside X'] - w2 R2, with R2 either
///     ||kappa(x1)||_1 as printed (EnergyMode::kKappaNorm) or the plant's
///     running-cost rate (EnergyMode::kCost, via the
///     PlantCase::train_cost_rate hook -- the ACC's fuel map);
///   * disturbance-memory state construction {x(t), w(t-r+1..t)} with the
///     observed state-space disturbances and drl_state_scale normalization;
///   * the monitor-override transition logic: the agent is consulted every
///     step, the monitor overrides z = 1 outside X', and the stored
///     transition carries the *executed* action so the agent observes the
///     override and pays its energy penalty.
///
/// The ACC agent this layer trains is pinned bit-for-bit by the golden test
/// in tests/test_train.cpp.

#include <memory>
#include <vector>

#include "core/drl_policy.hpp"
#include "eval/plant.hpp"
#include "rl/dqn.hpp"
#include "rl/serialize.hpp"

namespace oic::train {

/// How R2, "the reward for the current energy cost" (Sec. III-B.2), is
/// measured.  The paper's formula uses ||kappa(x1)||_1; its experiments
/// *evaluate* the running-cost metric (SUMO fuel for the ACC).  kCost
/// aligns the training signal with the metric the evaluation reports (see
/// EXPERIMENTS.md for the discussion); both are safe by Theorem 1.
enum class EnergyMode {
  kKappaNorm,  ///< R2 = ||kappa(x1)||_1 exactly as printed in the paper
  kCost,       ///< R2 = the plant's running-cost rate (ACC: fuel)
};

/// Training hyper-parameters.
struct TrainerConfig {
  std::size_t episodes = 200;
  std::size_t steps_per_episode = 100;  ///< paper evaluates 100-step episodes
  double w1 = 0.01;    ///< weight of the out-of-X' penalty (paper Sec. IV)
  double w2 = 0.0001;  ///< weight of the energy penalty (paper Sec. IV)
  EnergyMode energy_mode = EnergyMode::kCost;
  /// Disturbance memory r.  The paper quotes r = 1; we default to r = 2
  /// because one sample of a sinusoidal signal leaves its phase ambiguous
  /// (rising vs falling) -- two samples give the derivative and measurably
  /// better skipping decisions (see EXPERIMENTS.md).
  std::size_t memory = 2;
  std::uint64_t seed = 20200607;
  rl::DqnConfig dqn = default_dqn();

  /// DQN defaults sized to the training budget above.
  static rl::DqnConfig default_dqn();
};

/// Progress record per episode (returned for learning-curve benches).
struct TrainingLog {
  std::vector<double> episode_reward;
  std::vector<double> episode_skip_ratio;
  std::vector<double> episode_energy;
  /// Any training state left X (Theorem 1 says: never; exported so the
  /// oic_train JSON can carry the same safety verdict as the eval benches).
  bool left_x = false;
};

/// A trained skipping agent plus everything needed to deploy it.
struct TrainedAgent {
  std::shared_ptr<rl::DoubleDqn> agent;
  linalg::Vector state_scale;  ///< normalization used during training
  std::size_t memory = 1;      ///< disturbance memory r
  std::string plant;           ///< registry id of the plant it was trained on

  /// Build the inference-side policy wired exactly like training.
  std::unique_ptr<core::DrlPolicy> make_policy() const;

  /// Serialize to / from the rl::AgentSnapshot file format, so trained
  /// agents flow into `oic_eval --policies drl:<path>` without retraining.
  rl::AgentSnapshot snapshot() const;
  static TrainedAgent from_snapshot(const rl::AgentSnapshot& snap);
};

/// Plant-generic DQN training driver.  Holds the plant (whose RMPC it
/// drives in place, like eval::run_episode) and the configuration; each
/// train() call is deterministic for a fixed config and independent of
/// previous calls (all carried solver state is reset per episode).
class Trainer {
 public:
  /// The plant must outlive the trainer.  Throws PreconditionError on a
  /// degenerate training budget.
  explicit Trainer(eval::PlantCase& plant, TrainerConfig config = {});

  /// Train a double-DQN skipping agent on the given scenario.  Fills `log`
  /// when non-null.
  TrainedAgent train(const eval::Scenario& scenario, TrainingLog* log = nullptr);

  const TrainerConfig& config() const { return config_; }

 private:
  eval::PlantCase& plant_;
  TrainerConfig config_;
};

/// One-shot convenience wrapper (the historical acc::train_dqn shape).
TrainedAgent train_dqn(eval::PlantCase& plant, const eval::Scenario& scenario,
                       const TrainerConfig& config = {}, TrainingLog* log = nullptr);

}  // namespace oic::train
