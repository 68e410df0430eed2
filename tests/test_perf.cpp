// Unit tests for the performance layer: workspace-reuse LP solving
// (PreparedProblem / solve_warm), SupportSolver parity, the allocation-free
// MLP forward pass, DQN update and serve tick, the WHistory ring, and the
// l1_ball dimension guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/w_history.hpp"
#include "eval/registry.hpp"
#include "lp/prepared.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "poly/hpolytope.hpp"
#include "poly/support_solver.hpp"
#include "rl/dqn.hpp"
#include "rl/mlp.hpp"
#include "rl/serialize.hpp"
#include "serve/service.hpp"

namespace {

/// Heap allocations so far, counted by the replacement operator new below.
std::atomic<long> g_allocations{0};

}  // namespace

// GCC flags free() on memory from the replaced operator new when it
// inlines both ends; the pair is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using oic::Rng;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::lp::PreparedProblem;
using oic::lp::Problem;
using oic::lp::Relation;
using oic::lp::SolverWorkspace;
using oic::poly::HPolytope;

/// Random bounded-feasible LP: box-bounded variables, mixed-relation rows
/// through the box's interior, random objective.
Problem random_lp(Rng& rng, std::size_t nv, std::size_t rows) {
  Problem p(nv);
  for (std::size_t j = 0; j < nv; ++j) {
    p.set_bounds(j, -10.0, 10.0);
    p.set_objective_coeff(j, rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    Vector a(nv);
    for (std::size_t j = 0; j < nv; ++j) a[j] = rng.uniform(-1.0, 1.0);
    // rhs large enough that the box keeps a feasible chunk.
    p.add_constraint(a, Relation::kLessEq, rng.uniform(1.0, 5.0));
  }
  return p;
}

TEST(PreparedProblem, MatchesOneShotSolveExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const Problem p = random_lp(rng, 2 + trial % 4, 3 + trial % 5);
    const oic::lp::Result fresh = oic::lp::solve(p);

    PreparedProblem prep(p);
    SolverWorkspace ws;
    const oic::lp::Result reused1 = prep.solve(ws);
    const oic::lp::Result reused2 = prep.solve(ws);  // workspace reuse

    ASSERT_EQ(fresh.status, reused1.status);
    ASSERT_EQ(fresh.status, reused2.status);
    if (fresh.status != oic::lp::Status::kOptimal) continue;
    EXPECT_EQ(fresh.objective, reused1.objective);
    EXPECT_EQ(fresh.objective, reused2.objective);
    for (std::size_t j = 0; j < p.num_vars(); ++j) {
      EXPECT_EQ(fresh.x[j], reused1.x[j]);
      EXPECT_EQ(fresh.x[j], reused2.x[j]);
    }
  }
}

TEST(PreparedProblem, SetRhsOnEqualityRowsMatchesRebuild) {
  // The TubeMpc pattern: equality rows whose rhs is patched per solve.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Problem base(3);
    for (std::size_t j = 0; j < 3; ++j) base.set_objective_coeff(j, rng.uniform(-1, 1));
    // x0 = v (patched), plus static inequality rows.
    base.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
    for (int i = 0; i < 4; ++i) {
      Vector a(3);
      for (std::size_t j = 0; j < 3; ++j) a[j] = rng.uniform(-1, 1);
      base.add_constraint(a, Relation::kLessEq, rng.uniform(1.0, 3.0));
    }
    for (std::size_t j = 0; j < 3; ++j) base.set_bounds(j, -8.0, 8.0);

    PreparedProblem prep(base);
    SolverWorkspace ws;
    for (int k = 0; k < 6; ++k) {
      const double v = rng.uniform(-2.0, 2.0);  // sign changes exercise the flip
      prep.set_rhs(0, v);
      const oic::lp::Result patched = prep.solve(ws);

      Problem rebuilt(3);
      for (std::size_t j = 0; j < 3; ++j) {
        rebuilt.set_objective_coeff(j, base.objective()[j]);
        rebuilt.set_bounds(j, -8.0, 8.0);
      }
      rebuilt.add_constraint(base.constraint(0).coeffs, Relation::kEqual, v);
      for (std::size_t i = 1; i < base.num_constraints(); ++i) {
        rebuilt.add_constraint(base.constraint(i).coeffs, Relation::kLessEq,
                               base.constraint(i).rhs);
      }
      const oic::lp::Result fresh = oic::lp::solve(rebuilt);
      ASSERT_EQ(fresh.status, patched.status) << "trial " << trial << " k " << k;
      if (fresh.status != oic::lp::Status::kOptimal) continue;
      EXPECT_EQ(fresh.objective, patched.objective);
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(fresh.x[j], patched.x[j]);
    }
  }
}

TEST(PreparedProblem, SetRhsSignFlipOnNonDynamicInequalityThrows) {
  Problem p(2);
  p.add_constraint(Vector{1, 1}, Relation::kLessEq, 1.0);
  p.set_bounds(0, 0.0, 5.0);
  p.set_bounds(1, 0.0, 5.0);
  PreparedProblem prep(p);
  EXPECT_THROW(prep.set_rhs(0, -1.0), oic::PreconditionError);
  // Declared dynamic, the same patch is legal.
  PreparedProblem dyn(p, {0});
  dyn.set_rhs(0, -1.0);  // must not throw
  SolverWorkspace ws;
  EXPECT_EQ(dyn.solve(ws).status, oic::lp::Status::kInfeasible);
}

TEST(PreparedProblem, WarmSolveMatchesColdOptimum) {
  // A drifting-rhs sequence (the MPC pattern): warm continuation must track
  // the cold optimum at every step.
  Rng rng(23);
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_objective_coeff(j, rng.uniform(0.2, 1.0));  // bounded below on the box
    p.set_bounds(j, -10.0, 10.0);
  }
  p.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{1, 1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 1, 1}, Relation::kGreaterEq, -4.0);

  PreparedProblem prep(p);
  SolverWorkspace ws_warm, ws_cold;
  PreparedProblem::WarmState warm;
  double x0 = -1.5;
  for (int k = 0; k < 40; ++k) {
    x0 += rng.uniform(-0.3, 0.35);  // drifts across zero
    prep.set_rhs(0, x0);
    const oic::lp::Result rw = prep.solve_warm(ws_warm, warm);
    const oic::lp::Result rc = prep.solve(ws_cold);
    ASSERT_EQ(rc.status, rw.status) << "step " << k;
    if (rc.status != oic::lp::Status::kOptimal) continue;
    EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
  }
}

TEST(PreparedProblem, WarmSolveTracksDynamicInequalityRhs) {
  // Regression: for a dynamic <=-row the warm path's B^-1 unit column is
  // the slack, not the (all-zero) eagerly reserved artificial; a wrong
  // column silently drops the rhs update.
  Problem p(2);
  p.set_objective_coeff(0, -1.0);  // maximize x0
  p.set_bounds(0, 0.0, 10.0);
  p.set_bounds(1, 0.0, 10.0);
  p.add_constraint(Vector{1, 1}, Relation::kLessEq, 4.0);
  PreparedProblem prep(p, {0});
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  EXPECT_NEAR(prep.solve_warm(ws, warm).objective, -4.0, 1e-9);
  prep.set_rhs(0, 2.5);  // same sign class, warm continuation
  EXPECT_NEAR(prep.solve_warm(ws, warm).objective, -2.5, 1e-9);
  // Crossing zero flips the row's orientation: x0 + x1 <= -1 is infeasible
  // over [0,10]^2, and the warm continuation must agree.
  prep.set_rhs(0, -1.0);
  EXPECT_EQ(prep.solve_warm(ws, warm).status, oic::lp::Status::kInfeasible);
}

/// The drifting-rhs LP of the warm tests: equality row 0 (the patched
/// "x(0) = x0" row), a <= row 1 and a >= row 2 whose artificial column is
/// barred from entering.
Problem hot_row_lp(Rng& rng) {
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_objective_coeff(j, rng.uniform(0.2, 1.0));
    p.set_bounds(j, -10.0, 10.0);
  }
  p.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{1, 1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 1, 1}, Relation::kGreaterEq, -4.0);
  return p;
}

TEST(PreparedProblem, SetRhsOnColdRowAfterSetHotRowsThrows) {
  // set_hot_rows freezes every other row: the warm pivots stop maintaining
  // their B^-1 columns, so a patch there must be refused, not mis-solved.
  Rng rng(31);
  PreparedProblem prep(hot_row_lp(rng));
  prep.set_hot_rows({0});
  EXPECT_THROW(prep.set_rhs(1, 3.0), oic::PreconditionError);
  EXPECT_THROW(prep.set_rhs(2, -3.0), oic::PreconditionError);
  prep.set_rhs(0, 0.5);  // the hot row still accepts patches
}

TEST(PreparedProblem, HotRowPatchesContinueWarmAndMatchCold) {
  Rng rng(37);
  const Problem p = hot_row_lp(rng);
  PreparedProblem hot(p), cold(p);
  hot.set_hot_rows({0});
  SolverWorkspace ws_warm, ws_cold;
  PreparedProblem::WarmState warm;
  double x0 = -1.5;
  for (std::size_t k = 0; k < 60; ++k) {
    x0 += rng.uniform(-0.3, 0.35);  // drifts across zero
    hot.set_rhs(0, x0);
    cold.set_rhs(0, x0);
    const oic::lp::Result rw = hot.solve_warm(ws_warm, warm);
    const oic::lp::Result rc = cold.solve(ws_cold);
    ASSERT_EQ(rc.status, oic::lp::Status::kOptimal) << "step " << k;
    ASSERT_EQ(rw.status, oic::lp::Status::kOptimal) << "step " << k;
    EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
    // Every solve is a dual continuation (the first one from the canonical
    // seed); a fallback to the two-phase path would reset the count.
    EXPECT_TRUE(warm.valid);
    EXPECT_EQ(warm.solves_since_cold, k + 1) << "step " << k;
  }
}

TEST(PreparedProblem, WithoutHotRowsEveryRowAcceptsWarmPatches) {
  // No set_hot_rows: every row stays patchable, including the >= row whose
  // B^-1 unit column is its (barred) artificial.
  Rng rng(41);
  const Problem p = hot_row_lp(rng);
  PreparedProblem prep(p);
  SolverWorkspace ws_warm, ws_cold;
  PreparedProblem::WarmState warm;
  for (int k = 0; k < 30; ++k) {
    prep.set_rhs(0, rng.uniform(-2.0, 2.0));
    prep.set_rhs(1, rng.uniform(3.0, 5.0));
    prep.set_rhs(2, rng.uniform(-5.0, -3.0));
    const oic::lp::Result rw = prep.solve_warm(ws_warm, warm);
    const oic::lp::Result rc = prep.solve(ws_cold);
    ASSERT_EQ(rc.status, rw.status) << "step " << k;
    if (rc.status != oic::lp::Status::kOptimal) continue;
    EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
  }
}

TEST(PreparedProblem, WarmStateFromAnotherProblemFallsBackCold) {
  // Two different problems sharing one (workspace, warm) pair: the second
  // solve must not continue from the first problem's tableau.
  Problem p1(1), p2(1);
  p1.set_objective_coeff(0, 1.0);
  p1.set_bounds(0, 2.0, 9.0);  // min x0 -> 2
  p2.set_objective_coeff(0, 1.0);
  p2.set_bounds(0, 5.0, 9.0);  // min x0 -> 5
  PreparedProblem a(p1), b(p2);
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  EXPECT_NEAR(a.solve_warm(ws, warm).objective, 2.0, 1e-9);
  EXPECT_NEAR(b.solve_warm(ws, warm).objective, 5.0, 1e-9);
  EXPECT_NEAR(a.solve_warm(ws, warm).objective, 2.0, 1e-9);
}

TEST(PreparedProblem, WarmStateWithForeignWorkspaceFallsBackCold) {
  Problem p(2);
  p.set_objective_coeff(0, 1.0);
  p.set_bounds(0, 0.0, 5.0);
  p.set_bounds(1, 0.0, 5.0);
  p.add_constraint(Vector{1, 1}, Relation::kGreaterEq, 1.0);
  PreparedProblem prep(p);
  SolverWorkspace ws1, ws2;
  PreparedProblem::WarmState warm;
  const auto r1 = prep.solve_warm(ws1, warm);
  // Same warm state, different (fresh) workspace: must cold-solve, not UB.
  const auto r2 = prep.solve_warm(ws2, warm);
  ASSERT_EQ(r1.status, oic::lp::Status::kOptimal);
  ASSERT_EQ(r2.status, oic::lp::Status::kOptimal);
  EXPECT_EQ(r1.objective, r2.objective);
}

/// An MPC-shaped LP in the layout TubeMpc builds: a double integrator over
/// horizon `n`, variables x(0..n), u(0..n-1) and the 1-norm auxiliaries
/// tx, tu; rows x(0) = 0 (the hot rows), the dynamics equalities, box
/// state rows for x(1..n), input rows, then the epigraph rows.
Problem mpc_shaped_lp(std::size_t n) {
  const std::size_t nx = 2, nu = 1;
  const std::size_t u0 = nx * (n + 1), tx0 = u0 + nu * n, tu0 = tx0 + nx * n;
  const std::size_t total = tu0 + nu * n;
  const double a[2][2] = {{1.0, 0.1}, {0.0, 1.0}};
  const double b[2] = {0.005, 0.1};
  const double xmax[2] = {5.0, 2.0};
  Problem p(total);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      p.set_objective_coeff(tx0 + k * nx + i, 1.0);
      p.set_bounds(tx0 + k * nx + i, 0.0, Problem::kInf);
    }
    p.set_objective_coeff(tu0 + k, 0.1);
    p.set_bounds(tu0 + k, 0.0, Problem::kInf);
  }
  auto row = [&](std::initializer_list<std::pair<std::size_t, double>> entries) {
    Vector r(total);
    for (const auto& [j, v] : entries) r[j] += v;
    return r;
  };
  for (std::size_t i = 0; i < nx; ++i) p.add_constraint(row({{i, 1.0}}), Relation::kEqual, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      p.add_constraint(row({{(k + 1) * nx + i, 1.0},
                            {k * nx, -a[i][0]},
                            {k * nx + 1, -a[i][1]},
                            {u0 + k, -b[i]}}),
                       Relation::kEqual, 0.0);
    }
  }
  for (std::size_t k = 1; k <= n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      // Tightened towards the horizon's end, as the tube sets are.
      const double lim = xmax[i] * (1.0 - 0.02 * static_cast<double>(k));
      p.add_constraint(row({{k * nx + i, 1.0}}), Relation::kLessEq, lim);
      p.add_constraint(row({{k * nx + i, -1.0}}), Relation::kLessEq, lim);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    p.add_constraint(row({{u0 + k, 1.0}}), Relation::kLessEq, 1.0);
    p.add_constraint(row({{u0 + k, -1.0}}), Relation::kLessEq, 1.0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t xi = k * nx + i, ti = tx0 + k * nx + i;
      p.add_constraint(row({{xi, 1.0}, {ti, -1.0}}), Relation::kLessEq, 0.0);
      p.add_constraint(row({{xi, -1.0}, {ti, -1.0}}), Relation::kLessEq, 0.0);
    }
    p.add_constraint(row({{u0 + k, 1.0}, {tu0 + k, -1.0}}), Relation::kLessEq, 0.0);
    p.add_constraint(row({{u0 + k, -1.0}, {tu0 + k, -1.0}}), Relation::kLessEq, 0.0);
  }
  return p;
}

std::size_t count_negative_zeros(const std::vector<double>& v) {
  std::size_t count = 0;
  for (const double x : v) count += (x == 0.0 && std::signbit(x)) ? 1 : 0;
  return count;
}

/// -0.0 entries in slot `slot` of the condensed warm tableau.
std::size_t slot_negative_zeros(const SolverWorkspace& ws, std::size_t m, std::uint32_t slot) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double x = ws.blk[slot * m + i];
    count += (x == 0.0 && std::signbit(x)) ? 1 : 0;
  }
  return count;
}

TEST(PreparedProblem, WarmTableauStaysFreeOfNegativeZeros) {
  // The condensed warm pivot is exact only while the tableau it carries
  // holds no -0.0 (docs/perf.md, "Signed zeros"): the column updates skip
  // the rows outside the entering column's nonzero span, an implicit unit
  // column stands for +0.0 off its row, and a leaving column's slot reuses
  // the entering column's +0.0 outside the span.  Pin that invariant, and
  // the slot bookkeeping, across seed restarts and a two-phase anchor (no
  // seed), with the warm continuations after each.  A slot written for a
  // leaving column is checked at the end of the solve that wrote it.
  using Ws = SolverWorkspace;
  for (const bool seeded : {true, false}) {
    SCOPED_TRACE(seeded ? "seed restarts" : "two-phase anchors");
    const Problem p = mpc_shaped_lp(10);
    PreparedProblem hot(p), cold(p);
    if (seeded) hot.set_hot_rows({0, 1});
    const std::size_t m = hot.num_rows();
    SolverWorkspace ws_warm, ws_cold;
    PreparedProblem::WarmState warm;
    Rng rng(53);
    double x[2] = {0.0, 0.0};
    std::size_t anchors = 0, leaving_slots = 0;
    std::vector<std::size_t> basis_before;
    for (std::size_t k = 0; k < 600; ++k) {
      // A random walk pulled back towards the origin: states stay feasible
      // while the active set keeps changing.
      x[0] = 0.9 * x[0] + rng.uniform(-0.4, 0.4);
      x[1] = 0.9 * x[1] + rng.uniform(-0.25, 0.25);
      for (std::size_t i = 0; i < 2; ++i) {
        hot.set_rhs(i, x[i]);
        cold.set_rhs(i, x[i]);
      }
      basis_before = ws_warm.basis;
      const oic::lp::Result rw = hot.solve_warm(ws_warm, warm);
      const oic::lp::Result rc = cold.solve(ws_cold);
      ASSERT_EQ(rc.status, oic::lp::Status::kOptimal) << "step " << k;
      ASSERT_EQ(rw.status, oic::lp::Status::kOptimal) << "step " << k;
      EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
      const bool continued = warm.solves_since_cold > 1;
      if (warm.solves_since_cold == 1) ++anchors;

      // Bookkeeping: the slot list ascends, each entry owns its slot, and
      // every implicit column is basic in the row it names.
      std::vector<unsigned char> slot_used(ws_warm.blk.size() / m, 0);
      for (std::size_t i = 0; i < ws_warm.listed.size(); ++i) {
        const Ws::Slot c = ws_warm.listed[i];
        if (i > 0) {
          ASSERT_LT(ws_warm.listed[i - 1].col, c.col) << "step " << k;
        }
        ASSERT_EQ(ws_warm.where[c.col], c.slot) << "step " << k;
        ASSERT_LT(c.slot, slot_used.size());
        ASSERT_EQ(slot_used[c.slot], 0) << "step " << k;
        slot_used[c.slot] = 1;
        ASSERT_EQ(slot_negative_zeros(ws_warm, m, c.slot), 0u)
            << "step " << k << " column " << c.col;
      }
      for (std::size_t j = 0; j < ws_warm.where.size(); ++j) {
        const std::uint32_t w = ws_warm.where[j];
        if (w == Ws::kDead || w < Ws::kImplicit) continue;
        ASSERT_EQ(ws_warm.basis[w & ~Ws::kImplicit], j) << "step " << k;
      }
      // Each column the continuation pivoted out owns a slot, written when
      // it left.
      if (continued) {
        for (const std::size_t j : basis_before) {
          if (std::find(ws_warm.basis.begin(), ws_warm.basis.end(), j) != ws_warm.basis.end()) {
            continue;
          }
          if (ws_warm.where[j] == Ws::kDead) continue;
          ASSERT_LT(ws_warm.where[j], Ws::kImplicit) << "step " << k << " column " << j;
          ++leaving_slots;
        }
      }
      // The rhs may carry a -0.0 only where the workspace says so.
      if (!ws_warm.rhs_neg_zero) {
        ASSERT_EQ(count_negative_zeros(ws_warm.rhs), 0u) << "step " << k;
      }
    }
    EXPECT_GE(anchors, 2u);
    EXPECT_GT(leaving_slots, 20u);
  }
}

TEST(PreparedProblem, ImplicitUnitColumnsMatchExplicitSlots) {
  // Condensing is exact: a certified unit column kept as an explicit slot
  // (its 1.0 and +0.0s stored) must give the same bits as the implicit
  // one.  Expand every implicit column of a warm workspace into a slot and
  // run the same solves through both copies.  The expanded copy takes the
  // paths the production tableaus rarely reach: a listed leaving column
  // updated in place, and hot-row rhs updates read from unit slots.
  using Ws = SolverWorkspace;
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const Problem p = mpc_shaped_lp(10);
  PreparedProblem prep(p);
  prep.set_hot_rows({0, 1});
  const std::size_t m = prep.num_rows();
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  ASSERT_EQ(prep.solve_warm(ws, warm).status, oic::lp::Status::kOptimal);

  SolverWorkspace full = ws;
  PreparedProblem::WarmState warm_full = warm;
  std::size_t expanded = 0;
  for (std::uint32_t j = 0; j < full.where.size(); ++j) {
    const std::uint32_t w = full.where[j];
    if (w == Ws::kDead || w < Ws::kImplicit) continue;
    const auto slot = static_cast<std::uint32_t>(full.blk.size() / m);
    full.blk.resize(full.blk.size() + m, 0.0);
    full.blk[slot * m + (w & ~Ws::kImplicit)] = 1.0;
    full.where[j] = slot;
    const auto pos = std::lower_bound(full.listed.begin(), full.listed.end(), j,
                                      [](const Ws::Slot& c, std::uint32_t col) {
                                        return c.col < col;
                                      });
    full.listed.insert(pos, {j, slot});
    ++expanded;
  }
  ASSERT_GT(expanded, 20u);

  Rng rng(61);
  double x[2] = {0.0, 0.0};
  for (std::size_t k = 0; k < 200; ++k) {
    x[0] = 0.9 * x[0] + rng.uniform(-0.4, 0.4);
    x[1] = 0.9 * x[1] + rng.uniform(-0.25, 0.25);
    for (std::size_t i = 0; i < 2; ++i) prep.set_rhs(i, x[i]);
    const oic::lp::Result rc = prep.solve_warm(ws, warm);
    const oic::lp::Result rf = prep.solve_warm(full, warm_full);
    ASSERT_EQ(rc.status, oic::lp::Status::kOptimal) << "step " << k;
    ASSERT_EQ(rf.status, oic::lp::Status::kOptimal) << "step " << k;
    ASSERT_EQ(bits(rc.objective), bits(rf.objective)) << "step " << k;
    ASSERT_EQ(rc.x.size(), rf.x.size());
    for (std::size_t j = 0; j < rc.x.size(); ++j) {
      ASSERT_EQ(bits(rc.x[j]), bits(rf.x[j])) << "step " << k;
    }
    ASSERT_EQ(ws.basis, full.basis) << "step " << k;
  }
  // Both stayed on their carried tableaus (no refactorization in between).
  EXPECT_EQ(warm_full.solves_since_cold, warm.solves_since_cold);
  EXPECT_GT(warm.solves_since_cold, 200u);
  // Some expanded unit columns left the basis as listed columns.
  EXPECT_LT(full.listed.size(), ws.listed.size() + expanded);
}

TEST(SupportSolver, MatchesFreshProblemAnswers) {
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    // Random bounded polytope: a box intersected with random halfspaces.
    Vector r(3);
    for (std::size_t i = 0; i < 3; ++i) r[i] = rng.uniform(0.5, 3.0);
    HPolytope p = HPolytope::sym_box(r);
    for (int i = 0; i < 4; ++i) {
      Vector a(3);
      for (std::size_t j = 0; j < 3; ++j) a[j] = rng.uniform(-1, 1);
      p = p.intersect(HPolytope(Matrix::from_rows({a}), Vector{rng.uniform(0.5, 2.0)}));
    }
    oic::poly::SupportSolver solver(p);
    for (int q = 0; q < 10; ++q) {
      Vector d(3);
      for (std::size_t j = 0; j < 3; ++j) d[j] = rng.uniform(-1, 1);
      const auto fresh = p.support(d);
      const auto reused = solver.support(d);
      ASSERT_EQ(fresh.bounded, reused.bounded);
      ASSERT_EQ(fresh.feasible, reused.feasible);
      if (!fresh.bounded || !fresh.feasible) continue;
      EXPECT_EQ(fresh.value, reused.value);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(fresh.maximizer[j], reused.maximizer[j]);
      }
    }
  }
}

TEST(Mlp, ForwardIntoMatchesReferenceForward) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    oic::rl::Mlp net({4, 32, 16, 2}, rng);
    oic::rl::MlpWorkspace ws;
    for (int s = 0; s < 20; ++s) {
      Vector in(4);
      for (std::size_t j = 0; j < 4; ++j) in[j] = rng.normal();
      const Vector ref = net.forward(in);
      const Vector& fast = net.forward_into(in, ws);
      ASSERT_EQ(ref.size(), fast.size());
      for (std::size_t j = 0; j < ref.size(); ++j) {
        EXPECT_NEAR(ref[j], fast[j], 1e-12);
      }
    }
  }
}

TEST(DoubleDqn, SteadyStateUpdateAllocatesNothing) {
  // The production update shape: state dim 6, hidden {64, 64}, 2 actions,
  // minibatch 32.  Replay sampling, the SoA minibatch, the batched passes,
  // the gradient and Adam all reuse member scratch, so once the first
  // updates have sized it an observe() allocates nothing.  The transitions
  // are built before the counted window; observe() only moves them in.
  oic::rl::DqnConfig cfg;
  cfg.min_replay = 64;
  cfg.replay_capacity = 512;
  cfg.target_sync_interval = 25;  // the counted window syncs the target too
  oic::rl::DoubleDqn agent(6, 2, cfg, Rng(7));
  Rng env(11);
  const auto transition = [&env] {
    oic::rl::Transition t;
    t.state = Vector(6);
    t.next_state = Vector(6);
    for (std::size_t i = 0; i < 6; ++i) {
      t.state[i] = env.uniform(-1.0, 1.0);
      t.next_state[i] = env.uniform(-1.0, 1.0);
    }
    t.action = env.uniform_int(0, 1);
    t.reward = env.uniform(-1.0, 1.0);
    t.terminal = env.bernoulli(0.05);
    return t;
  };
  while (agent.train_steps() < 10) agent.observe(transition());

  constexpr std::size_t kCalls = 100;
  std::vector<oic::rl::Transition> stream;
  for (std::size_t k = 0; k < kCalls; ++k) stream.push_back(transition());
  const std::size_t steps_before = agent.train_steps();
  const long before = g_allocations.load();
  for (oic::rl::Transition& t : stream) agent.observe(std::move(t));
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(agent.train_steps(), steps_before + kCalls);
  EXPECT_EQ(allocations, 0);
}

TEST(WHistory, RingSemanticsOldestFirst) {
  oic::core::WHistory h(3);
  EXPECT_EQ(h.capacity(), 3u);
  EXPECT_TRUE(h.empty());
  h.push(Vector{1.0});
  h.push(Vector{2.0});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[0][0], 1.0);
  EXPECT_DOUBLE_EQ(h.latest()[0], 2.0);
  h.push(Vector{3.0});
  h.push(Vector{4.0});  // evicts 1.0
  ASSERT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h[0][0], 2.0);
  EXPECT_DOUBLE_EQ(h[1][0], 3.0);
  EXPECT_DOUBLE_EQ(h[2][0], 4.0);
  h.push(Vector{5.0});
  EXPECT_DOUBLE_EQ(h[0][0], 3.0);
  EXPECT_DOUBLE_EQ(h.latest()[0], 5.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), 3u);
  h.push(Vector{9.0});
  EXPECT_DOUBLE_EQ(h[0][0], 9.0);
}

TEST(WHistory, ZeroCapacityRetainsNothing) {
  oic::core::WHistory h(0);
  h.push(Vector{1.0});
  EXPECT_TRUE(h.empty());
}

TEST(WHistory, ConvertsFromVectorForAdHocCallers) {
  std::vector<Vector> xs = {Vector{1.0}, Vector{2.0}};
  oic::core::WHistory h = xs;
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[0][0], 1.0);
  EXPECT_DOUBLE_EQ(h[1][0], 2.0);
}

TEST(HPolytope, L1BallGuardsAgainstHugeDimensions) {
  // 2^dim facet rows: beyond the cap the representation is a memory bomb.
  EXPECT_THROW(HPolytope::l1_ball(HPolytope::kL1BallMaxDim + 1, 1.0),
               oic::PreconditionError);
  EXPECT_THROW(HPolytope::l1_ball(64, 1.0), oic::PreconditionError);
  // At and below the cap it still works.
  const HPolytope small = HPolytope::l1_ball(3, 2.0);
  EXPECT_EQ(small.num_constraints(), 8u);
  EXPECT_TRUE(small.contains(Vector{2.0, 0.0, 0.0}));
  EXPECT_FALSE(small.contains(Vector{1.5, 1.0, 0.0}));
}

TEST(ServeTick, SteadyStateDrlTickAllocatesNothing) {
  // A DRL group's tick keeps its membership rows in the group's
  // DecisionCore and its DQN state rows and forward-pass buffers in the
  // group's DrlPolicy, all grown and never shrunk.  Once the first tick
  // (every row inside X', the largest consult) has sized them and the
  // sessions' disturbance rings are full, ticks whose consulted row count
  // varies allocate nothing.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  Rng rng(5);
  const oic::rl::AgentSnapshot agent{"toy2d", 1, Vector(),
                                     oic::rl::Mlp({4, 16, 2}, rng)};
  const std::string path = ::testing::TempDir() + "alloc_probe.agent";
  oic::rl::save_agent_file(agent, path);
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  using oic::serve::Request;
  using oic::serve::Response;
  constexpr std::size_t kSessions = 64;
  std::vector<Request> batch(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    batch[i].kind = Request::Kind::kOpen;
    batch[i].ref = batch[i].session = i + 1;
    batch[i].plant = "toy2d";
    batch[i].policy = "drl:" + path;
  }
  std::vector<Response> out;
  svc.serve(batch, out);
  long steady = 0;
  std::size_t min_forced = kSessions, max_forced = 0;
  for (std::size_t t = 0; t < 40; ++t) {
    // (0, 2.96) lies in toy2d's XI but outside X': a forced row.
    const double forced_share = t == 0 ? 0.0 : rng.uniform(0.0, 0.5);
    for (std::size_t i = 0; i < kSessions; ++i) {
      Request& r = batch[i];
      r.kind = Request::Kind::kDecide;
      r.x = rng.uniform(0.0, 1.0) < forced_share
                ? Vector{0.0, 2.96}
                : Vector{rng.uniform(-0.2, 0.2), rng.uniform(-0.5, 0.5)};
      r.has_u = t > 0;
      r.u = Vector(1);
    }
    const long before = g_allocations.load();
    svc.serve(batch, out);
    const long allocations = g_allocations.load() - before;
    std::size_t forced = 0;
    for (const Response& res : out) {
      ASSERT_EQ(res.kind, Response::Kind::kDecision) << res.error;
      forced += res.forced ? 1 : 0;
    }
    if (t < 8) continue;  // warm-up: scratch growth, disturbance rings filling
    steady += allocations;
    min_forced = std::min(min_forced, forced);
    max_forced = std::max(max_forced, forced);
  }
  // The consulted row count must really vary, or the check is vacuous.
  EXPECT_LT(min_forced, max_forced);
  EXPECT_EQ(steady, 0);
}

}  // namespace
