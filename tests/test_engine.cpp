// Tests for the episode engine and the parallel policy-comparison sweep:
// engine episodes must not depend on what the engine ran before, and the
// sharded sweep must be bit-identical to the serial one for a fixed seed.
// The episode streams themselves are pinned by the episode golden in
// test_golden.

#include <gtest/gtest.h>

#include <memory>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/error.hpp"
#include "core/policy.hpp"
#include "eval/engine.hpp"
#include "eval/harness.hpp"

namespace {

using oic::Rng;

// AccCase construction derives the invariant and strengthened sets (several
// seconds); share one instance across the tests in this binary.
oic::acc::AccCase& shared_case() {
  static oic::acc::AccCase acc;
  return acc;
}

oic::eval::PolicySetFactory test_factory() {
  return [] {
    std::vector<std::unique_ptr<oic::core::SkipPolicy>> ps;
    ps.push_back(std::make_unique<oic::core::BangBangPolicy>());
    ps.push_back(std::make_unique<oic::core::PeriodicPolicy>(4));
    return ps;
  };
}

TEST(EpisodeEngine, RunsAreIndependentOfHistory) {
  auto& acc = shared_case();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  Rng rng(77);
  const auto case_a = oic::eval::make_case(acc, scen, rng, 50);
  const auto case_b = oic::eval::make_case(acc, scen, rng, 50);
  oic::core::PeriodicPolicy periodic(3);
  oic::eval::EpisodeEngine engine(acc, periodic);
  const auto b_first = engine.run(case_b);
  (void)engine.run(case_a);  // interleave a different case
  const auto b_again = engine.run(case_b);
  EXPECT_DOUBLE_EQ(b_first.fuel, b_again.fuel);
  EXPECT_DOUBLE_EQ(b_first.energy, b_again.energy);
  EXPECT_EQ(b_first.skipped, b_again.skipped);
}

TEST(ParallelSweep, BitIdenticalToSerialForFixedSeed) {
  auto& acc = shared_case();
  const auto scen = oic::acc::fig4_scenario(acc.params());

  oic::eval::SweepConfig cfg;
  cfg.cases = 6;
  cfg.steps = 40;
  cfg.seed = 999;

  cfg.workers = 1;
  const auto serial =
      oic::eval::compare_policies_parallel(acc, scen, test_factory(), cfg);
  cfg.workers = 3;
  const auto sharded =
      oic::eval::compare_policies_parallel(acc, scen, test_factory(), cfg);

  ASSERT_EQ(serial.policy_names, sharded.policy_names);
  ASSERT_EQ(serial.savings.size(), sharded.savings.size());
  for (std::size_t p = 0; p < serial.savings.size(); ++p) {
    ASSERT_EQ(serial.savings[p].size(), sharded.savings[p].size());
    for (std::size_t c = 0; c < serial.savings[p].size(); ++c) {
      EXPECT_EQ(serial.savings[p][c], sharded.savings[p][c])
          << "policy " << p << " case " << c;
    }
    EXPECT_EQ(serial.mean_skipped[p], sharded.mean_skipped[p]);
    EXPECT_EQ(serial.any_violation[p], sharded.any_violation[p]);
  }
}

TEST(ParallelSweep, ComparisonsNeedAtLeastOneCase) {
  auto& acc = shared_case();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  oic::core::BangBangPolicy bb;
  EXPECT_THROW(oic::eval::compare_policies(acc, scen, {&bb}, 0, 40, 1),
               oic::PreconditionError);
  oic::eval::SweepConfig cfg;
  cfg.cases = 0;
  EXPECT_THROW(oic::eval::compare_policies_parallel(acc, scen, test_factory(), cfg),
               oic::PreconditionError);
}

}  // namespace
