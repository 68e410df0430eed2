// Tests for the tube RMPC (Equation 5) and its feasible region (Prop. 1).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "control/lqr.hpp"
#include "control/tube_mpc.hpp"
#include "eval/registry.hpp"

namespace {

using oic::control::AffineLTI;
using oic::control::dlqr;
using oic::control::RmpcConfig;
using oic::control::TubeMpc;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

AffineLTI double_integrator(double wmag = 0.02) {
  const double dt = 0.1;
  Matrix a{{1, dt}, {0, 1}};
  Matrix b{{0.5 * dt * dt}, {dt}};
  return AffineLTI::canonical(a, b, HPolytope::sym_box(Vector{5, 5}),
                              HPolytope::sym_box(Vector{2}),
                              HPolytope::sym_box(Vector{wmag, wmag}));
}

TubeMpc make_mpc(double wmag = 0.02, std::size_t horizon = 8,
                 bool closed_loop = false) {
  const AffineLTI sys = double_integrator(wmag);
  const auto lqr = dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  RmpcConfig cfg;
  cfg.horizon = horizon;
  cfg.closed_loop_tightening = closed_loop;
  return TubeMpc(sys, lqr.k, cfg);
}

TEST(TubeMpc, TightenedSetsNested) {
  const TubeMpc mpc = make_mpc();
  for (std::size_t k = 1; k <= mpc.config().horizon; ++k) {
    EXPECT_TRUE(contains_polytope(mpc.tightened(k - 1), mpc.tightened(k), 1e-7))
        << "X(" << k << ") not inside X(" << k - 1 << ")";
  }
}

TEST(TubeMpc, TerminalSetInsideMostTightened) {
  const TubeMpc mpc = make_mpc();
  EXPECT_TRUE(contains_polytope(mpc.tightened(mpc.config().horizon),
                                mpc.terminal_set(), 1e-6));
  EXPECT_FALSE(mpc.terminal_set().is_empty());
}

TEST(TubeMpc, ControlAtOriginIsSmall) {
  TubeMpc mpc = make_mpc();
  const Vector u = mpc.control(Vector{0, 0});
  EXPECT_LT(u.norm_inf(), 1e-6);
  EXPECT_NEAR(mpc.last_solve().cost, 0.0, 1e-6);
}

TEST(TubeMpc, RespectsInputConstraints) {
  TubeMpc mpc = make_mpc();
  oic::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Vector x{rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)};
    if (!mpc.feasible(x)) continue;
    const Vector u = mpc.control(x);
    EXPECT_TRUE(mpc.system().u_set().contains(u, 1e-6));
  }
}

TEST(TubeMpc, InfeasibleStateThrows) {
  TubeMpc mpc = make_mpc();
  EXPECT_THROW(mpc.control(Vector{100.0, 100.0}), oic::NumericalError);
  EXPECT_FALSE(mpc.feasible(Vector{100.0, 100.0}));
}

TEST(TubeMpc, PlannedTrajectoryConsistent) {
  TubeMpc mpc = make_mpc();
  const Vector x0{1.0, 0.5};
  ASSERT_TRUE(mpc.feasible(x0));
  mpc.control(x0);
  const auto& info = mpc.last_solve();
  ASSERT_EQ(info.planned_x.size(), mpc.config().horizon + 1);
  ASSERT_EQ(info.planned_u.size(), mpc.config().horizon);
  EXPECT_TRUE(approx_equal(info.planned_x[0], x0, 1e-7));
  // Planned states follow the nominal dynamics.
  for (std::size_t k = 0; k < info.planned_u.size(); ++k) {
    const Vector pred = mpc.system().step_nominal(info.planned_x[k], info.planned_u[k]);
    EXPECT_TRUE(approx_equal(pred, info.planned_x[k + 1], 1e-6));
  }
  // Terminal state lands in the terminal set.
  EXPECT_TRUE(mpc.terminal_set().contains(info.planned_x.back(), 1e-6));
}

TEST(TubeMpc, RegulatesToOriginUnderDisturbance) {
  // 1-norm running costs create a deadband when the horizon is short
  // (braking beats coasting because |v| is paid every step while position
  // savings accrue quadratically late), so the regulation test uses a long
  // horizon with state-dominant weights.
  const AffineLTI sys = double_integrator(0.02);
  const auto lqr = dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  RmpcConfig cfg;
  cfg.horizon = 20;
  cfg.state_weight = 10.0;
  cfg.input_weight = 0.1;
  TubeMpc mpc(sys, lqr.k, cfg);
  oic::Rng rng(11);
  Vector x{1.5, -0.5};
  ASSERT_TRUE(mpc.feasible(x));
  for (int t = 0; t < 120; ++t) {
    const Vector u = mpc.control(x);
    const Vector w{rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)};
    x = mpc.system().step(x, u, w);
    ASSERT_TRUE(mpc.system().x_set().contains(x, 1e-6));
  }
  // Converged to a disturbance-sized neighbourhood of the origin.
  EXPECT_LT(x.norm2(), 0.5);
}

TEST(TubeMpc, ShortHorizonOneNormDeadbandIsStable) {
  // With P ~ Q and a short horizon the optimal policy parks at a nonzero
  // state (1-norm turnpike deadband).  The closed loop must still be stable
  // and constraint-admissible -- this documents the behaviour rather than
  // pretending it regulates.
  TubeMpc mpc = make_mpc(0.0);
  Vector x{1.5, -0.5};
  double worst = 0.0;
  for (int t = 0; t < 200; ++t) {
    const Vector u = mpc.control(x);
    x = mpc.system().step_nominal(x, u);
    ASSERT_TRUE(mpc.system().x_set().contains(x, 1e-6));
    worst = std::max(worst, x.norm2());
  }
  // Stable: never left a modest envelope around the start, and ended with
  // near-zero or small drift velocity (deadband parking).
  EXPECT_LE(worst, 2.5);
  EXPECT_LT(std::abs(x[1]), 0.6);
}

TEST(TubeMpc, RecursiveFeasibilityUnderDisturbance) {
  // Prop. 1's essence: once feasible, the closed loop stays feasible for
  // every admissible disturbance (sampled here).
  TubeMpc mpc = make_mpc(0.02);
  oic::Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    Vector x{rng.uniform(-2, 2), rng.uniform(-1, 1)};
    if (!mpc.feasible(x)) continue;
    for (int t = 0; t < 60; ++t) {
      const Vector u = mpc.control(x);
      const Vector w{rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)};
      x = mpc.system().step(x, u, w);
      ASSERT_TRUE(mpc.feasible(x)) << "feasibility lost at step " << t;
    }
  }
}

TEST(TubeMpc, FeasibleSetMatchesLpFeasibility) {
  // The FM-computed feasible region must agree with per-point LP
  // feasibility on a grid.
  TubeMpc mpc = make_mpc(0.02, 5);
  const HPolytope xf = mpc.compute_feasible_set();
  EXPECT_FALSE(xf.is_empty());
  int checked = 0;
  for (double a = -4.8; a <= 4.8; a += 0.8) {
    for (double b = -4.8; b <= 4.8; b += 0.8) {
      const Vector x{a, b};
      const bool in_set = xf.contains(x, 1e-6);
      const bool lp_ok = mpc.feasible(x);
      // Allow tolerance disagreements exactly on the boundary.
      if (xf.violation(x) > 1e-4 || xf.violation(x) < -1e-4) {
        EXPECT_EQ(in_set, lp_ok) << "at (" << a << ", " << b << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(TubeMpc, FeasibleSetIsRobustControlInvariant) {
  // Prop. 1: X_F is robust control invariant under the MPC law.  Simulate
  // from random feasible states with adversarial vertex disturbances.
  TubeMpc mpc = make_mpc(0.02, 5);
  const HPolytope xf = mpc.compute_feasible_set();
  oic::Rng rng(17);
  const auto bb = xf.bounding_box();
  ASSERT_TRUE(bb.has_value());
  int tested = 0;
  for (int trial = 0; trial < 100 && tested < 15; ++trial) {
    Vector x{rng.uniform(bb->first[0], bb->second[0]),
             rng.uniform(bb->first[1], bb->second[1])};
    if (xf.violation(x) > -1e-3) continue;  // strict interior starts
    ++tested;
    for (int t = 0; t < 40; ++t) {
      const Vector u = mpc.control(x);
      const Vector w{rng.bernoulli(0.5) ? 0.02 : -0.02,
                     rng.bernoulli(0.5) ? 0.02 : -0.02};
      x = mpc.system().step(x, u, w);
      ASSERT_TRUE(xf.contains(x, 1e-5))
          << "left X_F at step " << t << " (violation " << xf.violation(x) << ")";
    }
  }
  EXPECT_GT(tested, 5);
}

TEST(TubeMpc, ClosedLoopTighteningIsLessConservative) {
  // Chisci's closed-loop tightening shrinks X(k) by the *stabilized*
  // disturbance propagation, so the most-tightened set should be no smaller
  // than with open-loop A powers (for a stable K and neutrally stable A).
  const TubeMpc open_loop = make_mpc(0.05, 8, false);
  const TubeMpc closed_loop = make_mpc(0.05, 8, true);
  const auto& xo = open_loop.tightened(8);
  const auto& xc = closed_loop.tightened(8);
  // Compare volumes coarsely via Chebyshev radius.
  const double ro = xo.chebyshev().radius;
  const double rc = xc.chebyshev().radius;
  EXPECT_GE(rc, ro - 1e-9);
}

TEST(TubeMpc, HorizonOneWorks) {
  TubeMpc mpc = make_mpc(0.02, 1);
  const Vector u = mpc.control(Vector{0.1, 0.0});
  EXPECT_TRUE(mpc.system().u_set().contains(u, 1e-7));
}

TEST(TubeMpc, InvocationCounterTracksCalls) {
  TubeMpc mpc = make_mpc();
  EXPECT_EQ(mpc.invocations(), 0u);
  mpc.control(Vector{0, 0});
  mpc.control(Vector{0.1, 0.1});
  EXPECT_EQ(mpc.invocations(), 2u);
}

// ---- Golden pins at the production LP shape ----
// The warm-LP parity tests elsewhere run a 3-variable toy LP, and the
// golden traces are 40-step episodes; neither reaches the real MPC tableau
// (110-190 rows, most artificial columns barred from entering) across a
// refactorization window.  These cases do: 600 states drawn from each
// registry plant's X' are driven through a private TubeMpc copy twice --
// once without a reset (crossing two 256-solve refactor windows), once
// with reset_solver() every 100 solves (canonical-seed restarts) -- and an
// FNV-1a hash over the bit patterns of every returned u and optimal cost
// is pinned.  The pins must hold in both kernel tiers (OIC_SIMD=off too).

std::uint64_t production_lp_hash(const std::string& plant_id) {
  const auto plant = oic::eval::ScenarioRegistry::builtin().make_plant(plant_id);
  oic::Rng rng(0x6c705f676f6c64ull);
  const auto& x_prime = plant->sets().x_prime;
  const auto box = x_prime.bounding_box();
  std::vector<Vector> states;
  for (int i = 0; i < 600; ++i) {
    states.push_back(oic::eval::sample_from_set(x_prime, box, rng, "production_lp_hash"));
  }
  oic::Fnv1a h;
  for (const bool resets : {false, true}) {
    TubeMpc mpc = plant->rmpc();  // fresh solver state
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (resets && i % 100 == 0) mpc.reset_solver();
      const Vector u = mpc.control(states[i]);
      for (std::size_t j = 0; j < u.size(); ++j) h.f64(u[j]);
      h.f64(mpc.last_solve().cost);
    }
  }
  return h.value();
}

// The infeasible exit at the same shape: 600 states drawn from X, not X',
// go through one TubeMpc copy without resets.  Some lie outside XI, where
// the warm dual continuation finds no entering column, retries through the
// two-phase path and throws NumericalError; the next call re-anchors on the
// canonical seed.  The hash covers which calls throw plus every returned u
// and optimal cost.
std::uint64_t infeasible_lp_hash(const std::string& plant_id) {
  const auto plant = oic::eval::ScenarioRegistry::builtin().make_plant(plant_id);
  oic::Rng rng(0x696e66656173ull);
  TubeMpc mpc = plant->rmpc();
  const auto box = plant->sets().x.bounding_box();
  oic::Fnv1a h;
  std::size_t thrown = 0;
  for (int i = 0; i < 600; ++i) {
    const Vector x =
        oic::eval::sample_from_set(plant->sets().x, box, rng, "infeasible_lp_hash");
    try {
      const Vector u = mpc.control(x);
      h.u64(0);
      for (std::size_t j = 0; j < u.size(); ++j) h.f64(u[j]);
      h.f64(mpc.last_solve().cost);
    } catch (const oic::NumericalError&) {
      h.u64(1);
      ++thrown;
    }
  }
  // Both exits must be exercised for the pin to mean anything.
  EXPECT_GT(thrown, 0u) << plant_id;
  EXPECT_LT(thrown, 600u) << plant_id;
  return h.value();
}

TEST(TubeMpcProductionLp, AccSolveStreamPinned) {
  EXPECT_EQ(production_lp_hash("acc"), 0xe0c98b8740b94e16ull);
}

TEST(TubeMpcProductionLp, LaneKeepSolveStreamPinned) {
  EXPECT_EQ(production_lp_hash("lane-keep"), 0x6df9b5ce16e27328ull);
}

TEST(TubeMpcProductionLp, QuadAltSolveStreamPinned) {
  EXPECT_EQ(production_lp_hash("quad-alt"), 0x7d90ba15b8cb5e30ull);
}

TEST(TubeMpcProductionLp, Toy2dSolveStreamPinned) {
  EXPECT_EQ(production_lp_hash("toy2d"), 0x20470bbcb7aca28bull);
}

TEST(TubeMpcProductionLp, AccInfeasibleStreamPinned) {
  EXPECT_EQ(infeasible_lp_hash("acc"), 0x70974f9c4d3fc8edull);
}

TEST(TubeMpcProductionLp, LaneKeepInfeasibleStreamPinned) {
  EXPECT_EQ(infeasible_lp_hash("lane-keep"), 0xf9f26853b7f2a93dull);
}

TEST(TubeMpcProductionLp, QuadAltInfeasibleStreamPinned) {
  EXPECT_EQ(infeasible_lp_hash("quad-alt"), 0xa56211be90cead28ull);
}

TEST(TubeMpcProductionLp, Toy2dInfeasibleStreamPinned) {
  EXPECT_EQ(infeasible_lp_hash("toy2d"), 0x435f72fe9f22b31ull);
}

TEST(TubeMpcProductionLp, EveryProductionPlantIsPinned) {
  const std::vector<std::string> pinned = {"acc", "lane-keep", "quad-alt", "toy2d"};
  EXPECT_EQ(oic::eval::ScenarioRegistry::builtin().production_plant_ids(), pinned);
}

}  // namespace
