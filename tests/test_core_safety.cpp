// Tests for the core framework: safe-set construction (Definition 3), the
// monitor of Algorithm 1, and -- most importantly -- a property-test of
// Theorem 1: no skipping policy, however adversarial, can drive the system
// out of the robust invariant set.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "control/invariant.hpp"
#include "control/lqr.hpp"
#include "core/intermittent.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/safe_sets.hpp"

namespace {

using oic::Rng;
using oic::control::AffineLTI;
using oic::control::LinearFeedback;
using oic::core::compute_safe_sets;
using oic::core::IntermittentConfig;
using oic::core::IntermittentController;
using oic::core::SafeSets;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

/// Shared fixture: a double integrator with an LQR safe controller and its
/// maximal robust control invariant set.
struct Rig {
  AffineLTI sys;
  Matrix k;
  SafeSets sets;

  static const Rig& get() {
    static Rig rig = [] {
      const double dt = 0.1;
      Matrix a{{1, dt}, {0, 1}};
      Matrix b{{0.5 * dt * dt}, {dt}};
      AffineLTI sys = AffineLTI::canonical(
          a, b, HPolytope::sym_box(Vector{5, 5}), HPolytope::sym_box(Vector{2}),
          HPolytope::sym_box(Vector{0.04, 0.04}));
      const auto lqr = oic::control::dlqr(sys.a(), sys.b(), Matrix::identity(2),
                                          Matrix{{1.0}});
      const auto inv =
          oic::control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0});
      OIC_CHECK(inv.converged, "test rig: invariant iteration failed");
      SafeSets sets = compute_safe_sets(sys, inv.set, Vector{0.0});
      return Rig{std::move(sys), lqr.k, std::move(sets)};
    }();
    return rig;
  }
};

TEST(SafeSets, NestingHolds) {
  const Rig& rig = Rig::get();
  EXPECT_TRUE(verify_nesting(rig.sets));
  EXPECT_FALSE(rig.sets.x_prime.is_empty());
}

TEST(SafeSets, StrengthenedPropertyHolds) {
  const Rig& rig = Rig::get();
  EXPECT_TRUE(oic::core::verify_strengthened_property(rig.sys, rig.sets, Vector{0.0}));
}

TEST(SafeSets, XPrimeStrictlyInsideXiWhenSkipDrifts) {
  // Skipping applies zero input to a marginally-stable plant, so some edge
  // of XI must be excluded from X'.
  const Rig& rig = Rig::get();
  EXPECT_FALSE(contains_polytope(rig.sets.x_prime, rig.sets.xi, 1e-6));
}

TEST(SafeSets, RejectsEmptyXi) {
  const Rig& rig = Rig::get();
  const HPolytope empty(Matrix{{1, 0}, {-1, 0}}, Vector{0.0, -1.0});
  EXPECT_THROW(compute_safe_sets(rig.sys, empty, Vector{0.0}), oic::PreconditionError);
}

TEST(SafeSets, RejectsXiOutsideX) {
  const Rig& rig = Rig::get();
  const HPolytope too_big = HPolytope::sym_box(Vector{50, 50});
  EXPECT_THROW(compute_safe_sets(rig.sys, too_big, Vector{0.0}),
               oic::PreconditionError);
}

TEST(Monitor, ForcesControllerOutsideXPrime) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::BangBangPolicy policy;
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);

  // Find a state inside XI but outside X' (exists by the test above).
  Rng rng(3);
  const auto bb = rig.sets.xi.bounding_box();
  ASSERT_TRUE(bb.has_value());
  Vector x_out;
  bool found = false;
  for (int i = 0; i < 5000 && !found; ++i) {
    Vector x{rng.uniform(bb->first[0], bb->second[0]),
             rng.uniform(bb->first[1], bb->second[1])};
    if (rig.sets.xi.contains(x) && !rig.sets.x_prime.contains(x, 1e-7)) {
      x_out = x;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  const auto d = ic.decide(x_out);
  EXPECT_EQ(d.z, 1);
  EXPECT_TRUE(d.forced);
  EXPECT_FALSE(d.policy_consulted);
  EXPECT_EQ(ic.forced_steps(), 1u);
}

TEST(Monitor, ConsultsPolicyInsideXPrime) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::BangBangPolicy policy;
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);

  const auto ball = rig.sets.x_prime.chebyshev();
  ASSERT_TRUE(ball.feasible);
  const auto d = ic.decide(ball.center);
  EXPECT_EQ(d.z, 0);
  EXPECT_FALSE(d.forced);
  EXPECT_TRUE(d.policy_consulted);
  EXPECT_TRUE(approx_equal(d.u, Vector{0.0}, 0.0));
}

TEST(Monitor, StrictModeThrowsOutsideXi) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::AlwaysRunPolicy policy;
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);
  EXPECT_THROW(ic.decide(Vector{100, 100}), oic::NumericalError);
}

TEST(Monitor, SkipInputMustBeAdmissible) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::BangBangPolicy policy;
  IntermittentConfig cfg;
  cfg.u_skip = Vector{100.0};  // outside U
  EXPECT_THROW(IntermittentController(rig.sys, rig.sets, kappa, policy, cfg),
               oic::PreconditionError);
}

TEST(Monitor, RecordTransitionInfersDisturbance) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::BangBangPolicy policy;
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  cfg.w_memory = 3;
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);

  const Vector x{0.1, 0.2};
  const Vector u{0.5};
  const Vector w{0.03, -0.02};
  const Vector x_next = rig.sys.step(x, u, w);
  ic.record_transition(x, u, x_next);
  ASSERT_EQ(ic.w_history().size(), 1u);
  EXPECT_TRUE(approx_equal(ic.w_history()[0], w, 1e-12));

  for (int i = 0; i < 5; ++i) ic.record_transition(x, u, x_next);
  EXPECT_EQ(ic.w_history().size(), 3u);  // memory cap
}

TEST(Policies, BaselineBehaviours) {
  oic::core::AlwaysRunPolicy run;
  oic::core::BangBangPolicy skip;
  oic::core::PeriodicPolicy periodic(3);
  const Vector x{0, 0};
  EXPECT_EQ(run.decide(x, {}), 1);
  EXPECT_EQ(skip.decide(x, {}), 0);
  EXPECT_EQ(periodic.decide(x, {}), 1);
  EXPECT_EQ(periodic.decide(x, {}), 0);
  EXPECT_EQ(periodic.decide(x, {}), 0);
  EXPECT_EQ(periodic.decide(x, {}), 1);
  periodic.reset();
  EXPECT_EQ(periodic.decide(x, {}), 1);
  EXPECT_THROW(oic::core::PeriodicPolicy(0), oic::PreconditionError);
}

TEST(Runner, TraceAccountingAndHook) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  oic::core::PeriodicPolicy policy(2);
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);

  Rng rng(5);
  oic::sim::Trace trace;
  const auto rr = oic::core::run_closed_loop(
      rig.sys, ic, Vector{0.0, 0.0}, 40,
      [&](std::size_t, Vector& w) {
        w[0] = rng.uniform(-0.04, 0.04);
        w[1] = rng.uniform(-0.04, 0.04);
      },
      [&](const oic::core::Period& p) {
        EXPECT_EQ(p.t, trace.size());
        oic::sim::TraceStep step = oic::core::trace_step(p);
        step.fuel = 1.0;
        trace.add(std::move(step));
      });
  EXPECT_EQ(trace.size(), 40u);
  EXPECT_DOUBLE_EQ(trace.total_fuel(), 40.0);
  // Periodic-2 skips every other period; the runner's counters agree with
  // the trace it was given.
  EXPECT_EQ(rr.skipped, trace.skipped_steps());
  EXPECT_EQ(rr.forced, trace.forced_steps());
  EXPECT_GT(rr.skipped, 0u);
  EXPECT_FALSE(rr.left_x);
  EXPECT_FALSE(rr.left_xi);
}

/// An adversarial policy: decides uniformly at random -- the worst case for
/// Theorem 1, which must hold for ANY Omega.
class RandomPolicy final : public oic::core::SkipPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  int decide(const Vector&, const oic::core::WHistory&) override {
    return rng_.bernoulli(0.5) ? 1 : 0;
  }
  std::string name() const override { return "random"; }

 private:
  Rng rng_;
};

// Theorem 1 property test: random policies + adversarial vertex
// disturbances never leave XI (and hence X).
class Theorem1Property : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1Property, NeverLeavesInvariantSet) {
  const Rig& rig = Rig::get();
  LinearFeedback kappa(rig.k);
  RandomPolicy policy{static_cast<std::uint64_t>(GetParam() * 881 + 3)};
  IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  IntermittentController ic(rig.sys, rig.sets, kappa, policy, cfg);

  Rng rng{static_cast<std::uint64_t>(GetParam() * 7919 + 101)};
  // Start anywhere in XI (Algorithm 1 line 2).
  const auto bb = rig.sets.xi.bounding_box();
  ASSERT_TRUE(bb.has_value());
  Vector x0;
  do {
    x0 = Vector{rng.uniform(bb->first[0], bb->second[0]),
                rng.uniform(bb->first[1], bb->second[1])};
  } while (!rig.sets.xi.contains(x0, -1e-9));

  // Adversarial disturbances: always a vertex of W.
  const auto rr = oic::core::run_closed_loop(
      rig.sys, ic, x0, 120, [&](std::size_t, Vector& w) {
        w[0] = rng.bernoulli(0.5) ? 0.04 : -0.04;
        w[1] = rng.bernoulli(0.5) ? 0.04 : -0.04;
      });
  EXPECT_FALSE(rr.left_xi) << "Theorem 1 violated";
  EXPECT_FALSE(rr.left_x);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Property, ::testing::Range(0, 30));

}  // namespace
