// Tests for the ACC case study: coordinate shifts, set pipeline, scenario
// definitions, the evaluation harness, and a short DQN-training smoke run.

#include <gtest/gtest.h>

#include <cmath>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/drl_policy.hpp"
#include "eval/harness.hpp"
#include "train/trainer.hpp"

namespace {

using oic::Rng;
using oic::linalg::Vector;

/// AccCase construction computes the RMPC feasible set (seconds); share one
/// instance across the whole test binary.
oic::acc::AccCase& shared_acc() {
  static oic::acc::AccCase acc;
  return acc;
}

TEST(AccModel, ShiftedDynamicsMatchRawNewton) {
  auto& acc = shared_acc();
  const auto& p = acc.params();
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const double s = rng.uniform(p.s_min, p.s_max);
    const double v = rng.uniform(p.v_min, p.v_max);
    const double u = rng.uniform(p.u_min, p.u_max);
    const double vf = rng.uniform(p.vf_min, p.vf_max);

    // Raw update (Sec. IV).
    const double s_next = s - (v - vf) * p.delta;
    const double v_next = v - (p.drag * v - u) * p.delta;

    // Shifted update through the LTI model.
    const Vector x = acc.to_shifted(s, v);
    const Vector u_sh{u - p.u_eq()};
    const Vector w{acc.w_from_vf(vf)};
    const Vector x_next = acc.system().step(x, u_sh, w);
    const auto [s2, v2] = acc.from_shifted(x_next);
    EXPECT_NEAR(s2, s_next, 1e-10);
    EXPECT_NEAR(v2, v_next, 1e-10);
  }
}

TEST(AccModel, ConstraintBoxesShiftedCorrectly) {
  auto& acc = shared_acc();
  const auto& p = acc.params();
  // Corners of the raw safe box map onto the shifted X boundary.
  EXPECT_TRUE(acc.system().x_set().contains(acc.to_shifted(p.s_min, p.v_min), 1e-9));
  EXPECT_TRUE(acc.system().x_set().contains(acc.to_shifted(p.s_max, p.v_max), 1e-9));
  EXPECT_FALSE(acc.system().x_set().contains(acc.to_shifted(p.s_max + 1, p.v_max)));
  // Raw u = 0 (skip) is admissible.
  EXPECT_TRUE(acc.system().u_set().contains(acc.u_skip(), 1e-9));
  EXPECT_NEAR(acc.u_raw(acc.u_skip()), 0.0, 1e-12);
}

TEST(AccModel, EnergyIsRawActuationMagnitude) {
  auto& acc = shared_acc();
  EXPECT_NEAR(acc.energy_raw(acc.u_skip()), 0.0, 1e-12);
  const Vector u_sh{2.0};  // raw u = 2 + u_eq = 10
  EXPECT_NEAR(acc.energy_raw(u_sh), std::fabs(2.0 + acc.params().u_eq()), 1e-12);
}

TEST(AccSets, PipelineSatisfiesPaperStructure) {
  auto& acc = shared_acc();
  EXPECT_TRUE(oic::core::verify_nesting(acc.sets()));
  EXPECT_TRUE(oic::core::verify_strengthened_property(acc.system(), acc.sets(),
                                                      acc.u_skip()));
  EXPECT_FALSE(acc.sets().x_prime.is_empty());
  // Prop. 1 cross-check on sampled points: XI members are RMPC-feasible.
  Rng rng(5);
  const auto bb = acc.sets().xi.bounding_box();
  ASSERT_TRUE(bb.has_value());
  int tested = 0;
  for (int i = 0; i < 200 && tested < 25; ++i) {
    Vector x{rng.uniform(bb->first[0], bb->second[0]),
             rng.uniform(bb->first[1], bb->second[1])};
    if (acc.sets().xi.violation(x) > -1e-3) continue;  // interior only
    ++tested;
    EXPECT_TRUE(acc.rmpc().feasible(x));
  }
  EXPECT_GT(tested, 10);
}

TEST(AccSets, SampleX0LandsInXPrime) {
  auto& acc = shared_acc();
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(acc.sets().x_prime.contains(acc.sample_x0(rng), 1e-9));
  }
}

TEST(AccScenarios, IdsAndRanges) {
  const oic::acc::AccParams p;
  const auto fig4 = oic::acc::fig4_scenario(p);
  EXPECT_EQ(fig4.id, "Fig.4");
  EXPECT_DOUBLE_EQ(fig4.profile->v_min(), 30.0);

  for (int i = 1; i <= 5; ++i) {
    const auto s = oic::acc::range_scenario(i, p);
    EXPECT_EQ(s.id, "Ex." + std::to_string(i));
  }
  // Table I ranges.
  EXPECT_DOUBLE_EQ(oic::acc::range_scenario(2, p).profile->v_min(), 32.5);
  EXPECT_DOUBLE_EQ(oic::acc::range_scenario(5, p).profile->v_max(), 41.0);

  for (int i = 6; i <= 10; ++i) {
    const auto s = oic::acc::regularity_scenario(i, p);
    EXPECT_EQ(s.id, "Ex." + std::to_string(i));
  }
  EXPECT_THROW(oic::acc::range_scenario(0, p), oic::PreconditionError);
  EXPECT_THROW(oic::acc::regularity_scenario(5, p), oic::PreconditionError);
}

TEST(AccHarness, CaseGenerationIsDeterministic) {
  auto& acc = shared_acc();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  Rng rng1(77), rng2(77);
  const auto c1 = oic::eval::make_case(acc, scen, rng1, 50);
  const auto c2 = oic::eval::make_case(acc, scen, rng2, 50);
  EXPECT_TRUE(approx_equal(c1.x0, c2.x0, 0.0));
  ASSERT_EQ(c1.signal.size(), c2.signal.size());
  for (std::size_t i = 0; i < c1.signal.size(); ++i) {
    EXPECT_DOUBLE_EQ(c1.signal[i], c2.signal[i]);
  }
}

TEST(AccHarness, BangBangSavesFuelAndStaysSafe) {
  auto& acc = shared_acc();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  oic::core::BangBangPolicy bb;
  oic::core::AlwaysRunPolicy always;
  Rng rng(123);
  double base_sum = 0.0, bb_sum = 0.0;
  for (int c = 0; c < 4; ++c) {
    const auto data = oic::eval::make_case(acc, scen, rng, 100);
    const auto base = oic::eval::run_episode(acc, always, data);
    const auto ours = oic::eval::run_episode(acc, bb, data);
    EXPECT_FALSE(base.left_x);
    EXPECT_FALSE(ours.left_x);
    EXPECT_FALSE(ours.left_xi);
    EXPECT_EQ(base.skipped, 0u);
    EXPECT_GT(ours.skipped, 40u);  // the framework skips most steps
    base_sum += base.fuel;
    bb_sum += ours.fuel;
  }
  EXPECT_LT(bb_sum, base_sum);  // skipping saves fuel on aggregate
}

TEST(AccHarness, FuelSavingMetric) {
  oic::eval::EpisodeResult base, ours;
  base.fuel = 100.0;
  ours.fuel = 80.0;
  EXPECT_NEAR(oic::eval::fuel_saving(base, ours), 0.2, 1e-12);
  base.fuel = 0.0;
  EXPECT_THROW(oic::eval::fuel_saving(base, ours), oic::PreconditionError);
}

TEST(AccHarness, ComparePoliciesShapes) {
  auto& acc = shared_acc();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  oic::core::BangBangPolicy bb;
  oic::core::PeriodicPolicy periodic(2);
  const auto cmp =
      oic::eval::compare_policies(acc, scen, {&bb, &periodic}, 3, 60, 2024);
  ASSERT_EQ(cmp.policy_names.size(), 2u);
  ASSERT_EQ(cmp.savings[0].size(), 3u);
  ASSERT_EQ(cmp.savings[1].size(), 3u);
  EXPECT_FALSE(cmp.any_violation[0]);
  EXPECT_FALSE(cmp.any_violation[1]);
  EXPECT_GT(cmp.mean_skipped[0], cmp.mean_skipped[1]);  // bang-bang skips more
}

TEST(AccTrainer, ShortTrainingRunsAndLearnsToSkip) {
  auto& acc = shared_acc();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  oic::train::TrainerConfig cfg;
  cfg.episodes = 12;
  cfg.steps_per_episode = 60;
  cfg.seed = 7;
  oic::train::TrainingLog log;
  const oic::train::TrainedAgent trained = oic::train::train_dqn(acc, scen, cfg, &log);
  ASSERT_NE(trained.agent, nullptr);
  EXPECT_EQ(log.episode_reward.size(), 12u);
  EXPECT_EQ(log.episode_skip_ratio.size(), 12u);
  EXPECT_GT(trained.agent->train_steps(), 0u);
  EXPECT_EQ(trained.state_scale.size(),
            oic::core::drl_state_dim(2, 2, cfg.memory));

  // The trained policy must be usable through the framework and safe.
  const auto drl = trained.make_policy();
  Rng rng(31);
  const auto data = oic::eval::make_case(acc, scen, rng, 60);
  const auto r = oic::eval::run_episode(acc, *drl, data);
  EXPECT_FALSE(r.left_x);
  EXPECT_FALSE(r.left_xi);
  EXPECT_EQ(r.steps, 60u);
}

TEST(AccFuel, SkippingCoastsAtIdle) {
  auto& acc = shared_acc();
  // Raw u = 0 => engine power 0 => idle fuel for the period.
  const Vector x = acc.to_shifted(150.0, 40.0);
  const double fuel = acc.fuel_step(x, acc.u_skip());
  EXPECT_NEAR(fuel, acc.fuel_model().params().idle_rate * acc.params().delta, 1e-9);
  // Holding speed (raw u = u_eq) burns more than idling.
  EXPECT_GT(acc.fuel_step(x, Vector{0.0}), fuel);
}

}  // namespace
