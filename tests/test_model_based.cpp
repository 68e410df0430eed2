// Tests for the model-based skipping policy (Equation 6): the exact search
// against a brute-force enumeration of every skip sequence, and a golden
// of its decisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "control/invariant.hpp"
#include "control/lqr.hpp"
#include "core/model_based.hpp"
#include "core/safe_sets.hpp"

namespace {

using oic::Rng;
using oic::control::AffineLTI;
using oic::control::LinearFeedback;
using oic::core::ConstantOracle;
using oic::core::ModelBasedConfig;
using oic::core::ModelBasedPolicy;
using oic::core::SafeSets;
using oic::core::SequenceOracle;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

struct Rig {
  AffineLTI sys;
  Matrix k;
  SafeSets sets;
  std::unique_ptr<LinearFeedback> kappa;

  static Rig make(double wmag = 0.03) {
    const double dt = 0.1;
    Matrix a{{1, dt}, {0, 1}};
    Matrix b{{0.5 * dt * dt}, {dt}};
    AffineLTI sys = AffineLTI::canonical(
        a, b, HPolytope::sym_box(Vector{5, 5}), HPolytope::sym_box(Vector{2}),
        HPolytope::sym_box(Vector{wmag, wmag}));
    const auto lqr =
        oic::control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
    const auto inv =
        oic::control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0});
    SafeSets sets = oic::core::compute_safe_sets(sys, inv.set, Vector{0.0});
    Rig rig{std::move(sys), lqr.k, std::move(sets), nullptr};
    rig.kappa = std::make_unique<LinearFeedback>(rig.k);
    return rig;
  }
};

// One Equation-6 instance: a start state in X' and a known disturbance
// sequence over the horizon.
struct Case {
  std::size_t h;
  std::vector<Vector> wseq;
  Vector x0;
};

// The 20 seeded cases: horizon 3-5, w and x0 drawn from one stream per
// seed (x0 by rejection into X' shrunk by 1e-6).
Case seeded_case(const Rig& rig, int seed) {
  Rng rng{static_cast<std::uint64_t>(seed * 6151 + 29)};
  Case c;
  c.h = 3 + static_cast<std::size_t>(seed % 3);
  for (std::size_t t = 0; t < c.h; ++t)
    c.wseq.push_back(Vector{rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03)});
  int guard = 0;
  do {
    c.x0 = Vector{rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)};
  } while (!rig.sets.x_prime.contains(c.x0, -1e-6) && ++guard < 1000);
  EXPECT_LT(guard, 1000) << "seed " << seed << " could not sample X'";
  return c;
}

// The six horizon-4 trials, drawn in turn from one Rng(23) stream; each
// carries two disturbance samples past its horizon.
std::vector<Case> trial_cases(const Rig& rig) {
  Rng rng(23);
  std::vector<Case> cases;
  for (int trial = 0; trial < 6; ++trial) {
    Case c;
    c.h = 4;
    for (std::size_t t = 0; t < c.h + 2; ++t)
      c.wseq.push_back(Vector{rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03)});
    do {
      c.x0 = Vector{rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)};
    } while (!rig.sets.x_prime.contains(c.x0, -1e-6));
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<Case> all_cases(const Rig& rig) {
  std::vector<Case> cases;
  for (int seed = 0; seed < 20; ++seed) cases.push_back(seeded_case(rig, seed));
  for (Case& c : trial_cases(rig)) cases.push_back(std::move(c));
  return cases;
}

// Reference for Equation 6: enumerate all 2^h skip sequences and return
// the least energy || u - offset ||_1 of those that keep every input in U
// and every successor in X' (+infinity when none does).
double brute_force_cost(const Rig& rig, const Case& c, const Vector& offset) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << c.h); ++mask) {
    Vector x = c.x0;
    double cost = 0.0;
    bool ok = true;
    for (std::size_t k = 0; k < c.h && ok; ++k) {
      const Vector u = ((mask >> k) & 1u) ? Vector{(rig.k * x)[0]} : Vector{0.0};
      if (!rig.sys.u_set().contains(u, 1e-9)) {
        ok = false;
        break;
      }
      x = rig.sys.step(x, u, c.wseq[k]);
      if (!rig.sets.x_prime.contains(x, 1e-9)) ok = false;
      cost += (u - offset).norm1();
    }
    if (ok) best = std::min(best, cost);
  }
  return best;
}

TEST(ModelBased, SkipsWhenOriginIsSelfSustaining) {
  // At the origin with zero disturbance, skipping forever is free and
  // feasible, so the policy must skip.
  Rig rig = Rig::make();
  ConstantOracle oracle(Vector{0.0, 0.0});
  ModelBasedConfig cfg;
  cfg.horizon = 6;
  ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle, cfg);
  EXPECT_EQ(policy.decide(Vector{0.0, 0.0}, {}), 0);
  EXPECT_TRUE(policy.last().feasible);
  EXPECT_NEAR(policy.last().planned_cost, 0.0, 1e-12);
  for (int z : policy.last().planned_z) EXPECT_EQ(z, 0);
}

TEST(ModelBased, ClockAdvancesAndResets) {
  Rig rig = Rig::make();
  ConstantOracle oracle(Vector{0.0, 0.0});
  ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle);
  policy.decide(Vector{0, 0}, {});
  policy.decide(Vector{0, 0}, {});
  EXPECT_EQ(policy.clock(), 2u);
  policy.reset();
  EXPECT_EQ(policy.clock(), 0u);
}

TEST(ModelBased, ExactMatchesBruteForce) {
  Rig rig = Rig::make();
  Case c;
  c.h = 5;
  Rng rng(7);
  for (std::size_t t = 0; t < c.h; ++t)
    c.wseq.push_back(Vector{rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03)});
  SequenceOracle oracle(c.wseq);

  ModelBasedConfig cfg;
  cfg.horizon = c.h;
  ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle, cfg);

  const auto ball = rig.sets.x_prime.chebyshev();
  ASSERT_TRUE(ball.feasible);
  c.x0 = ball.center + Vector{0.7, 0.2};
  if (!rig.sets.x_prime.contains(c.x0)) GTEST_SKIP() << "probe state left X'";

  policy.decide(c.x0, {});
  ASSERT_TRUE(policy.last().feasible);
  const double best = brute_force_cost(rig, c, Vector{0.0});
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(policy.last().planned_cost, best, 1e-9);
}

// The exact search against the enumeration on the 26 seeded cases: the
// same feasibility and the same optimal cost.  With energy measured from
// zero every case can skip for free, so each case is also solved with
// energy measured from an offset, where neither option is free.
TEST(ModelBased, ExactSearchMatchesBruteForceOnSeededCases) {
  const Rig rig = Rig::make();
  std::size_t runs_planned = 0;
  for (const Case& c : all_cases(rig)) {
    for (const double off : {0.0, 0.4}) {
      SequenceOracle oracle(c.wseq);
      ModelBasedConfig cfg;
      cfg.horizon = c.h;
      cfg.energy_offset = Vector{off};
      ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle, cfg);
      policy.decide(c.x0, {});
      const double best = brute_force_cost(rig, c, cfg.energy_offset);
      SCOPED_TRACE(testing::Message() << "h " << c.h << " offset " << off);
      ASSERT_EQ(policy.last().feasible, std::isfinite(best));
      if (!policy.last().feasible) continue;
      EXPECT_NEAR(policy.last().planned_cost, best, 1e-9);
      for (int z : policy.last().planned_z) runs_planned += z == 1 ? 1 : 0;
    }
  }
  EXPECT_GT(runs_planned, 0u);
}

TEST(ModelBased, EnergyOffsetChangesOptimum) {
  // With energy measured around -kappa's output the controller becomes the
  // cheap option; the policy should then prefer running it.
  Rig rig = Rig::make();
  ConstantOracle oracle(Vector{0.0, 0.0});

  // Pick a state where kappa produces a clearly nonzero input.
  Vector x0{1.0, 0.4};
  if (!rig.sets.x_prime.contains(x0)) {
    const auto ball = rig.sets.x_prime.chebyshev();
    x0 = ball.center;
  }
  const Vector u_kappa = rig.k * x0;
  ASSERT_GT(u_kappa.norm1(), 1e-3);

  ModelBasedConfig cfg;
  cfg.horizon = 3;
  cfg.energy_offset = u_kappa;  // energy = ||u - kappa(x0)||: running is free now
  ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle, cfg);
  const int z = policy.decide(x0, {});
  EXPECT_EQ(z, 1);
}

TEST(ModelBased, InfeasibleFallsBackToRun) {
  // Shrink X' to a sliver around the origin and probe from its edge with a
  // large disturbance pushing out: no sequence stays inside, the policy
  // must return 1 (run the controller; Theorem 1 handles the rest).
  Rig rig = Rig::make();
  SafeSets tight = rig.sets;
  tight.x_prime = HPolytope::sym_box(Vector{1e-4, 1e-4});
  ConstantOracle oracle(Vector{0.03, 0.03});
  ModelBasedConfig cfg;
  cfg.horizon = 4;
  ModelBasedPolicy policy(rig.sys, tight, *rig.kappa, Vector{0.0}, oracle, cfg);
  const int z = policy.decide(Vector{0.0, 0.0}, {});
  EXPECT_EQ(z, 1);
  EXPECT_FALSE(policy.last().feasible);
}

TEST(ModelBased, OracleHelpers) {
  SequenceOracle seq({Vector{1.0}, Vector{2.0}});
  EXPECT_DOUBLE_EQ(seq.at(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(seq.at(1)[0], 2.0);
  EXPECT_DOUBLE_EQ(seq.at(99)[0], 2.0);  // repeats the last sample
  ConstantOracle c(Vector{3.0});
  EXPECT_DOUBLE_EQ(c.at(12345)[0], 3.0);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// Pins the exact search's decisions on the 26 cases: feasibility, the
// first decision, the planned sequence and the bits of the planned cost
// (not the node count, which is a property of the pruning order).
TEST(ModelBasedGolden, ExactSearchDecisionsArePinned) {
  const Rig rig = Rig::make();
  oic::Fnv1a h;
  for (const Case& c : all_cases(rig)) {
    SequenceOracle oracle(c.wseq);
    ModelBasedConfig cfg;
    cfg.horizon = c.h;
    ModelBasedPolicy policy(rig.sys, rig.sets, *rig.kappa, Vector{0.0}, oracle, cfg);
    const int z = policy.decide(c.x0, {});
    const auto& info = policy.last();
    h.u64(info.feasible ? 1 : 0);
    h.u64(static_cast<std::uint64_t>(z));
    h.u64(info.planned_z.size());
    for (int zk : info.planned_z) h.u64(static_cast<std::uint64_t>(zk));
    h.f64(info.planned_cost);
  }
  EXPECT_EQ(hex(h.value()), "0xed388d3cfe7ea382");
}

}  // namespace
