/// \file quickstart.cpp
/// Five-minute tour of the library on the simplest possible plant: a
/// disturbed double integrator with an LQR safe controller.
///
///   1. describe the plant and its constraint polytopes (AffineLTI);
///   2. synthesize a safe controller (dlqr -> LinearFeedback);
///   3. certify it: maximal robust control invariant set XI (Definition 1);
///   4. build the strengthened safe set X' = B(XI, 0) n XI (Definition 3);
///   5. run Algorithm 1 with the bang-bang skipping policy and watch the
///      monitor keep the loop inside XI while most control steps are
///      skipped.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/random.hpp"
#include "control/invariant.hpp"
#include "control/lqr.hpp"
#include "core/intermittent.hpp"
#include "core/runner.hpp"
#include "core/safe_sets.hpp"

int main() {
  using namespace oic;
  using linalg::Matrix;
  using linalg::Vector;
  using poly::HPolytope;

  // --- 1. the plant: x+ = A x + B u + w,  |x_i| <= 5, |u| <= 2, |w_i| <= 0.04.
  const double dt = 0.1;
  const Matrix a{{1, dt}, {0, 1}};
  const Matrix b{{0.5 * dt * dt}, {dt}};
  const auto sys = control::AffineLTI::canonical(
      a, b, HPolytope::sym_box(Vector{5, 5}), HPolytope::sym_box(Vector{2}),
      HPolytope::sym_box(Vector{0.04, 0.04}));
  std::printf("plant: double integrator, nx=%zu nu=%zu, |w| <= 0.04\n", sys.nx(),
              sys.nu());

  // --- 2. a safe controller: discrete LQR.
  const auto lqr = control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  control::LinearFeedback kappa(lqr.k);
  std::printf("LQR gain K = [%.3f, %.3f], closed-loop spectral radius %.3f\n",
              lqr.k(0, 0), lqr.k(0, 1),
              control::spectral_radius_estimate(sys.a() + sys.b() * lqr.k));

  // --- 3. certify: the maximal robust control invariant set of kappa.
  const auto inv = control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0});
  std::printf("robust control invariant set XI: %zu facets (converged=%s)\n",
              inv.set.num_constraints(), inv.converged ? "yes" : "no");

  // --- 4. strengthened safe set (Definition 3).
  const auto sets = core::compute_safe_sets(sys, inv.set, Vector{0.0});
  const auto ball_xi = sets.xi.chebyshev();
  const auto ball_xp = sets.x_prime.chebyshev();
  std::printf("X' = B(XI,0) n XI: %zu facets; Chebyshev radii XI=%.3f, X'=%.3f\n",
              sets.x_prime.num_constraints(), ball_xi.radius, ball_xp.radius);
  std::printf("nesting X' c XI c X verified: %s\n",
              core::verify_nesting(sets) ? "yes" : "NO");

  // --- 5. Algorithm 1 with bang-bang skipping (Equation 7).
  core::BangBangPolicy policy;
  core::IntermittentConfig icfg;
  icfg.u_skip = Vector{0.0};
  core::IntermittentController ic(sys, sets, kappa, policy, icfg);

  constexpr std::size_t kSteps = 200;
  Rng rng(2020);
  sim::Trace trace;
  const auto rr = core::run_closed_loop(
      sys, ic, Vector{1.0, 0.5}, kSteps,
      [&](std::size_t, Vector& w) {
        w[0] = rng.uniform(-0.04, 0.04);
        w[1] = rng.uniform(-0.04, 0.04);
      },
      [&](const core::Period& p) { trace.add(core::trace_step(p)); });

  std::printf("\nran %zu steps from x0 = (1.0, 0.5):\n", trace.size());
  std::printf("  skipped control computations : %zu / %zu (%.0f %%)\n",
              trace.skipped_steps(), trace.size(), 100.0 * trace.skip_ratio());
  std::printf("  monitor interventions        : %zu\n", trace.forced_steps());
  std::printf("  total actuation energy       : %.3f (always-run for comparison: ",
              trace.total_energy());

  // Same rollout without skipping.
  core::AlwaysRunPolicy always;
  core::IntermittentController ic2(sys, sets, kappa, always, icfg);
  Rng rng2(2020);
  sim::Trace trace2;
  core::run_closed_loop(
      sys, ic2, Vector{1.0, 0.5}, kSteps,
      [&](std::size_t, Vector& w) {
        w[0] = rng2.uniform(-0.04, 0.04);
        w[1] = rng2.uniform(-0.04, 0.04);
      },
      [&](const core::Period& p) { trace2.add(core::trace_step(p)); });
  std::printf("%.3f)\n", trace2.total_energy());
  std::printf("  left XI (must be false)      : %s\n", rr.left_xi ? "YES" : "no");
  std::printf("  left X  (must be false)      : %s\n", rr.left_x ? "YES" : "no");
  std::printf("\nDone.  See examples/acc_intermittent.cpp for the full ACC case "
              "study.\n");
  return 0;
}
