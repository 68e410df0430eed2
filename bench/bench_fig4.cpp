/// \file bench_fig4.cpp
/// Reproduces Figure 4 (and the Sec. IV-A headline numbers): fuel-saving
/// histogram of DRL-based opportunistic intermittent-control and bang-bang
/// control against the RMPC-only baseline, on the sinusoidal front-vehicle
/// scenario of Equation (8), plus the average-saving and skipped-steps
/// statistics quoted in the text.
///
/// Paper reference values (absolute numbers depend on SUMO's fuel tables;
/// the *shape* -- DRL > bang-bang > 0, most mass in the low-saving buckets
/// for bang-bang and shifted right for DRL -- is what this bench checks):
///   mean saving: bang-bang 16.28 %, DRL 23.83 %;
///   skipped RMPC computations: 79.4 / 100 steps.
///
/// Flags: --cases=N (default 200; paper uses 500), --episodes=N (DQN
/// training episodes, default 150), --steps=N (default 100).

#include <cstdio>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/drl_policy.hpp"
#include "eval/harness.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
  using namespace oic;
  const std::size_t cases = benchutil::flag(argc, argv, "cases", 200);
  const std::size_t episodes = benchutil::flag(argc, argv, "episodes", 200);
  const std::size_t steps = benchutil::flag(argc, argv, "steps", 100);

  std::printf("=== Figure 4: fuel-consumption savings vs RMPC-only ===\n");
  std::printf("scenario: sinusoidal vf (Eq. 8), ve=40, af=9, w in [-1,1]\n");
  std::printf("cases=%zu, steps/case=%zu, DQN episodes=%zu\n\n", cases, steps, episodes);

  acc::AccCase acc_case;
  const acc::Scenario scen = acc::fig4_scenario(acc_case.params());

  train::TrainerConfig tcfg;
  tcfg.episodes = episodes;
  tcfg.steps_per_episode = steps;
  std::printf("[train] double-DQN skipping agent (r=%zu, w1=%g, w2=%g)...\n",
              tcfg.memory, tcfg.w1, tcfg.w2);
  train::TrainingLog log;
  const train::TrainedAgent trained = train::train_dqn(acc_case, scen, tcfg, &log);
  std::printf("[train] done: %zu gradient steps, final-episode skip ratio %.2f\n\n",
              trained.agent->train_steps(), log.episode_skip_ratio.back());

  core::BangBangPolicy bangbang;
  const auto drl = trained.make_policy();
  const auto cmp = eval::compare_policies(acc_case, scen, {&bangbang, drl.get()},
                                          cases, steps, /*seed=*/20200406);

  // Histogram exactly as the paper buckets it: 0-10 % ... 50-60 %.
  Histogram hist_bb(0.0, 0.6, 6);
  Histogram hist_drl(0.0, 0.6, 6);
  for (double s : cmp.savings[0]) hist_bb.add(s);
  for (double s : cmp.savings[1]) hist_drl.add(s);

  benchutil::rule('=');
  std::printf("%-12s | %-28s | %-28s\n", "saving", "bang-bang control",
              "opportunistic intermittent-ctl");
  benchutil::rule();
  for (std::size_t b = 0; b < hist_bb.bins(); ++b) {
    std::printf("%-12s | %4zu %-23s | %4zu %-23s\n", hist_bb.label(b, true).c_str(),
                hist_bb.count(b), benchutil::bar(hist_bb.count(b)).c_str(),
                hist_drl.count(b), benchutil::bar(hist_drl.count(b)).c_str());
  }
  benchutil::rule();

  std::printf("\naverage fuel saving vs RMPC-only:\n");
  std::printf("  bang-bang control              : %6.2f %%   (paper: 16.28 %%)\n",
              100.0 * mean(cmp.savings[0]));
  std::printf("  opportunistic intermittent-ctl : %6.2f %%   (paper: 23.83 %%)\n",
              100.0 * mean(cmp.savings[1]));
  std::printf("\naverage skipped RMPC computations per %zu steps:\n", steps);
  std::printf("  bang-bang control              : %6.1f\n", cmp.mean_skipped[0]);
  std::printf("  opportunistic intermittent-ctl : %6.1f   (paper: 79.4)\n",
              cmp.mean_skipped[1]);
  std::printf("\nsafety violations: bang-bang=%s, DRL=%s (Theorem 1: must be none)\n",
              cmp.any_violation[0] ? "YES (BUG!)" : "none",
              cmp.any_violation[1] ? "YES (BUG!)" : "none");
  return (cmp.any_violation[0] || cmp.any_violation[1]) ? 1 : 0;
}
