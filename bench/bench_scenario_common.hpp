#pragma once
/// \file bench_scenario_common.hpp
/// Shared driver for the scenario-sweep experiments (Table I / Fig. 5 and
/// Fig. 6): per scenario, train a DQN skipping agent and measure the mean
/// fuel saving of the DRL-based intermittent control against RMPC-only
/// (bang-bang included for context).  Scenarios run in parallel threads;
/// each thread owns an independent AccCase so results are deterministic
/// per-scenario regardless of scheduling.

#include <future>
#include <vector>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/stats.hpp"
#include "core/drl_policy.hpp"
#include "eval/harness.hpp"
#include "train/trainer.hpp"

namespace oic::benchutil {

struct ScenarioOutcome {
  std::string id;
  std::string description;
  double drl_saving = 0.0;       ///< mean fuel saving vs RMPC-only
  double bb_saving = 0.0;        ///< bang-bang reference
  double drl_saving_sd = 0.0;    ///< std-dev across cases
  double drl_skipped = 0.0;      ///< mean skipped steps per episode
  bool violation = false;        ///< any safety violation (must be false)
};

inline ScenarioOutcome evaluate_scenario(const acc::Scenario& scenario,
                                         std::size_t cases, std::size_t episodes,
                                         std::size_t steps, std::uint64_t seed) {
  acc::AccCase acc_case;  // per-thread instance (construction is the pricey part)

  // DQN training occasionally collapses to an always-run policy from an
  // unlucky seed (single-seed variance the paper also inherits); train two
  // seeds and keep the better one by mean reward over the final quarter of
  // episodes -- model selection on the *training* signal only.
  train::TrainedAgent trained;
  double best_tail = -std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 2; ++attempt) {
    train::TrainerConfig tcfg;
    tcfg.episodes = episodes;
    tcfg.steps_per_episode = steps;
    tcfg.seed = seed + static_cast<std::uint64_t>(attempt) * 7919;
    train::TrainingLog log;
    train::TrainedAgent candidate = train::train_dqn(acc_case, scenario, tcfg, &log);
    const std::size_t tail = std::max<std::size_t>(1, log.episode_reward.size() / 4);
    double tail_reward = 0.0;
    for (std::size_t i = log.episode_reward.size() - tail;
         i < log.episode_reward.size(); ++i) {
      tail_reward += log.episode_reward[i];
    }
    tail_reward /= static_cast<double>(tail);
    if (tail_reward > best_tail) {
      best_tail = tail_reward;
      trained = std::move(candidate);
    }
  }

  core::BangBangPolicy bangbang;
  const auto drl = trained.make_policy();
  const auto cmp = eval::compare_policies(acc_case, scenario, {&bangbang, drl.get()},
                                          cases, steps, seed ^ 0x5bd1e995u);

  ScenarioOutcome out;
  out.id = scenario.id;
  out.description = scenario.description;
  out.bb_saving = mean(cmp.savings[0]);
  out.drl_saving = mean(cmp.savings[1]);
  out.drl_saving_sd = stddev(cmp.savings[1]);
  out.drl_skipped = cmp.mean_skipped[1];
  out.violation = cmp.any_violation[0] || cmp.any_violation[1];
  return out;
}

/// Evaluate several scenarios concurrently (one thread each).
inline std::vector<ScenarioOutcome> evaluate_scenarios(
    const std::vector<acc::Scenario>& scenarios, std::size_t cases,
    std::size_t episodes, std::size_t steps, std::uint64_t seed_base) {
  std::vector<std::future<ScenarioOutcome>> futures;
  futures.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    futures.push_back(std::async(std::launch::async, [&, i] {
      return evaluate_scenario(scenarios[i], cases, episodes, steps,
                               seed_base + 977 * i);
    }));
  }
  std::vector<ScenarioOutcome> out;
  out.reserve(scenarios.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace oic::benchutil
