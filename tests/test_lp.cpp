// Unit and property tests for the two-phase simplex (oic::lp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "control/tube_mpc.hpp"
#include "eval/plant.hpp"
#include "eval/registry.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "poly/fourier_motzkin.hpp"
#include "poly/hpolytope.hpp"
#include "poly/support_solver.hpp"

namespace {

using oic::linalg::Vector;
using oic::lp::Problem;
using oic::lp::Relation;
using oic::lp::Result;
using oic::lp::Status;

TEST(Simplex, SimpleBoundedMinimum) {
  // min x + y  s.t. x + y >= 1, x,y >= 0  ->  objective 1.
  Problem p(2);
  p.set_objective(Vector{1, 1});
  p.set_bounds(0, 0.0, Problem::kInf);
  p.set_bounds(1, 0.0, Problem::kInf);
  p.add_constraint(Vector{1, 1}, Relation::kGreaterEq, 1.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(Simplex, ClassicMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum (2, 6) with value 36 (textbook Dantzig example).
  Problem p(2);
  p.set_objective(Vector{-3, -5});
  p.set_bounds(0, 0.0, Problem::kInf);
  p.set_bounds(1, 0.0, Problem::kInf);
  p.add_constraint(Vector{1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 2}, Relation::kLessEq, 12.0);
  p.add_constraint(Vector{3, 2}, Relation::kLessEq, 18.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-9);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 6.0, 1e-8);
}

TEST(Simplex, FreeVariables) {
  // min x s.t. x >= -7 with x free: optimum -7.
  Problem p(1);
  p.set_objective(Vector{1});
  p.add_constraint(Vector{1}, Relation::kGreaterEq, -7.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // min 2x + 3y s.t. x + y = 4, x - y = 0  ->  x = y = 2, objective 10.
  Problem p(2);
  p.set_objective(Vector{2, 3});
  p.add_constraint(Vector{1, 1}, Relation::kEqual, 4.0);
  p.add_constraint(Vector{1, -1}, Relation::kEqual, 0.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 2.0, 1e-8);
  EXPECT_NEAR(r.objective, 10.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  Problem p(1);
  p.add_constraint(Vector{1}, Relation::kLessEq, 0.0);
  p.add_constraint(Vector{1}, Relation::kGreaterEq, 1.0);
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Problem p(1);
  p.set_objective(Vector{-1});  // maximize x
  p.add_constraint(Vector{1}, Relation::kGreaterEq, 0.0);
  EXPECT_EQ(solve(p).status, Status::kUnbounded);
}

TEST(Simplex, VariableBoundsRespected) {
  // min -x - y with box bounds: solution at the upper corner.
  Problem p(2);
  p.set_objective(Vector{-1, -1});
  p.set_bounds(0, -1.0, 2.0);
  p.set_bounds(1, 0.5, 1.5);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.5, 1e-8);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // min x with x <= 3 (no lower bound) is unbounded.
  Problem p(1);
  p.set_objective(Vector{1});
  p.set_bounds(0, -Problem::kInf, 3.0);
  EXPECT_EQ(solve(p).status, Status::kUnbounded);
  // max x with x <= 3 hits the bound.
  p.set_objective(Vector{-1});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

TEST(Simplex, NegativeRhsRowsNormalizedCorrectly) {
  // min y s.t. -x - y <= -2 (i.e. x + y >= 2), 0 <= x <= 1, y >= 0.
  Problem p(2);
  p.set_objective(Vector{0, 1});
  p.set_bounds(0, 0.0, 1.0);
  p.set_bounds(1, 0.0, Problem::kInf);
  p.add_constraint(Vector{-1, -1}, Relation::kLessEq, -2.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-8);  // y = 2 - x >= 1
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-style degeneracy: many redundant rows through the optimum.
  Problem p(2);
  p.set_objective(Vector{-1, 0});
  p.set_bounds(0, 0.0, Problem::kInf);
  p.set_bounds(1, 0.0, Problem::kInf);
  for (int i = 0; i < 20; ++i) {
    p.add_constraint(Vector{1.0, static_cast<double>(i) * 1e-3}, Relation::kLessEq, 1.0);
  }
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
}

TEST(Simplex, ObjectiveOffsetWithShiftedVariables) {
  // min x with -5 <= x <= -2: optimum -5 (bounds both negative exercises
  // the shifted-variable bookkeeping).
  Problem p(1);
  p.set_objective(Vector{1});
  p.set_bounds(0, -5.0, -2.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-9);
}

TEST(Simplex, OneNormMinimizationViaSplit) {
  // min |x - 3| as min p + q with x - 3 = p - q, p,q >= 0.
  Problem p(3);  // x, pos, neg
  p.set_objective(Vector{0, 1, 1});
  p.set_bounds(1, 0.0, Problem::kInf);
  p.set_bounds(2, 0.0, Problem::kInf);
  p.add_constraint(Vector{1, -1, 1}, Relation::kEqual, 3.0);
  p.add_constraint(Vector{1, 0, 0}, Relation::kLessEq, 10.0);
  p.add_constraint(Vector{1, 0, 0}, Relation::kGreaterEq, -10.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-8);
  EXPECT_NEAR(r.x[0], 3.0, 1e-7);
}

// Property: for random feasible bounded LPs over a box, the simplex optimum
// must (a) be feasible and (b) not beat exhaustive corner enumeration
// (for LPs over boxes the optimum is at a box corner).
class BoxLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxLpProperty, MatchesCornerEnumeration) {
  oic::Rng rng{static_cast<std::uint64_t>(GetParam() * 7919 + 13)};
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 4));
  Vector c(n), lo(n), hi(n);
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = rng.uniform(-2, 2);
    lo[j] = rng.uniform(-3, 0);
    hi[j] = lo[j] + rng.uniform(0.1, 4.0);
  }
  Problem p(n);
  p.set_objective(c);
  for (std::size_t j = 0; j < n; ++j) p.set_bounds(j, lo[j], hi[j]);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    double v = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      v += c[j] * (((mask >> j) & 1u) ? hi[j] : lo[j]);
    best = std::min(best, v);
  }
  EXPECT_NEAR(r.objective, best, 1e-7);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_GE(r.x[j], lo[j] - 1e-7);
    EXPECT_LE(r.x[j], hi[j] + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxLpProperty, ::testing::Range(0, 40));

// Property: duality spot-check on random inequality-form LPs.
// min c.x s.t. Ax >= b, x >= 0 has dual max b.y s.t. A^T y <= c, y >= 0.
class DualityProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualityProperty, WeakDualityHolds) {
  oic::Rng rng{static_cast<std::uint64_t>(GetParam() * 104729 + 7)};
  const std::size_t n = 3, m = 3;
  std::vector<Vector> rows;
  Vector b(m), c(n);
  for (std::size_t j = 0; j < n; ++j) c[j] = rng.uniform(0.5, 3.0);
  for (std::size_t i = 0; i < m; ++i) {
    Vector a(n);
    for (std::size_t j = 0; j < n; ++j) a[j] = rng.uniform(0.1, 2.0);
    rows.push_back(a);
    b[i] = rng.uniform(0.1, 2.0);
  }

  Problem primal(n);
  primal.set_objective(c);
  for (std::size_t j = 0; j < n; ++j) primal.set_bounds(j, 0.0, Problem::kInf);
  for (std::size_t i = 0; i < m; ++i)
    primal.add_constraint(rows[i], Relation::kGreaterEq, b[i]);
  const Result rp = solve(primal);
  ASSERT_EQ(rp.status, Status::kOptimal);

  Problem dual(m);
  Vector negb = -b;
  dual.set_objective(negb);  // maximize b.y
  for (std::size_t i = 0; i < m; ++i) dual.set_bounds(i, 0.0, Problem::kInf);
  for (std::size_t j = 0; j < n; ++j) {
    Vector col(m);
    for (std::size_t i = 0; i < m; ++i) col[i] = rows[i][j];
    dual.add_constraint(col, Relation::kLessEq, c[j]);
  }
  const Result rd = solve(dual);
  ASSERT_EQ(rd.status, Status::kOptimal);

  // Strong duality for feasible bounded LPs.
  EXPECT_NEAR(rp.objective, -rd.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualityProperty, ::testing::Range(0, 25));

// ---- Golden pins of the cold two-phase path ----
// Seeded LP corpora solved cold through lp::solve (and one SupportSolver);
// each family hashes the status, the objective bits and the x bits of
// every solve.  Together they reach every branch of the cold path: <=, >=
// and = rows, flipped rows (negative normalized rhs), bound rows, split
// free variables, duplicate and all-zero rows, infeasible and unbounded
// exits, near-tied ratio tests, the production tube-MPC tableaus and the
// redundancy LPs of a Fourier-Motzkin projection.  The pins hold as built
// and with OIC_SIMD=off.

void hash_result(oic::Fnv1a& h, const Result& r) {
  h.u64(static_cast<std::uint64_t>(r.status));
  h.f64(r.objective);
  h.u64(r.x.size());
  for (std::size_t j = 0; j < r.x.size(); ++j) h.f64(r.x[j]);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// Random LP around a point x* inside the variable bounds: each row is
// <=, >= or = with rhs a.x* plus slack of the row's sign (so most
// instances are feasible), and a third of the rows are negated so their
// normalized rhs flips.  Variables are free, lower-, upper- or
// two-sided-bounded; some rows repeat an earlier one or are all zero.
Problem mixed_lp(oic::Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));
  Problem p(n);
  Vector xs(n), c(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = rng.uniform(-2.0, 2.0);
    c[j] = rng.uniform(-1.0, 1.0);
    const double lo = xs[j] - rng.uniform(0.0, 3.0);
    const double hi = xs[j] + rng.uniform(0.0, 3.0);
    switch (rng.uniform_int(0, 3)) {
      case 0: break;  // free: split into two columns
      case 1: p.set_bounds(j, lo, Problem::kInf); break;
      case 2: p.set_bounds(j, -Problem::kInf, hi); break;
      default: p.set_bounds(j, lo, hi); break;  // bound row
    }
  }
  p.set_objective(c);
  std::vector<Vector> rows;
  for (std::size_t i = 0; i < m; ++i) {
    Vector a(n);
    const int kind = rng.uniform_int(0, 9);
    if (kind == 0 && !rows.empty()) {
      a = rows[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(rows.size()) - 1))];
    } else if (kind != 1) {  // kind 1 leaves the row all zero
      for (std::size_t j = 0; j < n; ++j) {
        a[j] = rng.bernoulli(0.25) ? 0.0 : rng.uniform(-2.0, 2.0);
      }
    }
    rows.push_back(a);
    const double ax = oic::linalg::dot(a, xs);
    const double slack = rng.uniform(0.0, 1.0);
    const int rel = rng.uniform_int(0, 2);
    if (rel == 0) p.add_constraint(a, Relation::kLessEq, ax + slack);
    if (rel == 1) p.add_constraint(a, Relation::kGreaterEq, ax - slack);
    if (rel == 2) p.add_constraint(a, Relation::kEqual, ax);
  }
  return p;
}

TEST(ColdLpGolden, MixedRowsAndBoundsPinned) {
  oic::Rng rng(0x636f6c645f6d6978ull);
  oic::Fnv1a h;
  std::size_t optimal = 0;
  for (int k = 0; k < 400; ++k) {
    const Result r = solve(mixed_lp(rng));
    optimal += r.status == Status::kOptimal ? 1 : 0;
    hash_result(h, r);
  }
  EXPECT_GT(optimal, 200u);
  EXPECT_EQ(hex(h.value()), "0x6b597b4f2ca05d12");
}

TEST(ColdLpGolden, InfeasibleAndUnboundedPinned) {
  oic::Rng rng(0x636f6c645f696e66ull);
  oic::Fnv1a h;
  std::size_t infeasible = 0, unbounded = 0;
  for (int k = 0; k < 200; ++k) {
    Problem p = mixed_lp(rng);
    const std::size_t n = p.num_vars();
    Vector a(n);
    for (std::size_t j = 0; j < n; ++j) a[j] = rng.uniform(-1.0, 1.0);
    if (k % 2 == 0) {
      // A contradictory pair: a.x <= t and a.x >= t + gap.
      const double t = rng.uniform(-3.0, 3.0);
      p.add_constraint(a, Relation::kLessEq, t);
      p.add_constraint(a, Relation::kGreaterEq, t + rng.uniform(0.5, 2.0));
    } else {
      // A fresh free variable the objective drives to -infinity.
      const std::size_t v = p.add_variable();
      p.set_objective_coeff(v, -1.0);
    }
    const Result r = solve(p);
    infeasible += r.status == Status::kInfeasible ? 1 : 0;
    unbounded += r.status == Status::kUnbounded ? 1 : 0;
    hash_result(h, r);
  }
  EXPECT_GT(infeasible, 90u);
  EXPECT_GT(unbounded, 50u);
  EXPECT_EQ(hex(h.value()), "0x0c0ed63b9c9befa5");
}

TEST(ColdLpGolden, NearTiedRatioTestsPinned) {
  // Small integer data with degenerate (zero) right-hand sides makes exact
  // ratio ties common; a 1e-13 nudge on some rhs makes near ties inside
  // the 1e-12 tie window.  Each LP is solved three times: with the
  // defaults, with Bland's rule after one non-improving pivot, and with a
  // three-pivot budget (the iteration-limit exit).
  oic::lp::SimplexOptions bland;
  bland.stall_limit = 1;
  oic::lp::SimplexOptions short_budget;
  short_budget.max_iterations = 3;
  oic::Rng rng(0x636f6c645f746965ull);
  oic::Fnv1a h;
  for (int k = 0; k < 300; ++k) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 10));
    Problem p(n);
    Vector c(n);
    for (std::size_t j = 0; j < n; ++j) {
      c[j] = static_cast<double>(rng.uniform_int(-3, 1));
      p.set_bounds(j, 0.0, rng.bernoulli(0.3) ? 2.0 : Problem::kInf);
    }
    p.set_objective(c);
    for (std::size_t i = 0; i < m; ++i) {
      Vector a(n);
      for (std::size_t j = 0; j < n; ++j) a[j] = static_cast<double>(rng.uniform_int(-1, 2));
      double b = static_cast<double>(rng.uniform_int(0, 2));
      if (rng.bernoulli(0.3)) b += rng.bernoulli(0.5) ? 1e-13 : -1e-13;
      const int rel = rng.uniform_int(0, 5);
      p.add_constraint(a, rel == 0 ? Relation::kGreaterEq : Relation::kLessEq,
                       rel == 0 ? -b : b);
    }
    hash_result(h, solve(p));
    hash_result(h, solve(p, bland));
    hash_result(h, solve(p, short_budget));
  }
  EXPECT_EQ(hex(h.value()), "0x334b31502ed9921b");
}

TEST(ColdLpGolden, SupportSolverQueriesPinned) {
  // One SupportSolver on a 3-D polyhedron that is unbounded along +e2
  // (no row bounds it there), with duplicate rows: bounded, unbounded and
  // degenerate queries through one prepared tableau and workspace.
  oic::Rng rng(0x636f6c645f737570ull);
  const std::size_t rows = 40;
  oic::linalg::Matrix a(rows, 3);
  Vector b(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    if (i % 10 == 9) {
      for (std::size_t j = 0; j < 3; ++j) a(i, j) = a(i - 1, j);
      b[i] = b[i - 1];
      continue;
    }
    Vector d(3);
    for (std::size_t j = 0; j < 3; ++j) d[j] = rng.uniform(-1.0, 1.0);
    d[2] = -std::fabs(d[2]);  // every normal points away from +e2
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = d[j];
    b[i] = rng.uniform(0.5, 2.0);
  }
  oic::poly::SupportSolver solver(oic::poly::HPolytope(a, b));
  oic::Fnv1a h;
  std::size_t unbounded = 0;
  for (int k = 0; k < 300; ++k) {
    Vector d(3);
    for (std::size_t j = 0; j < 3; ++j) d[j] = rng.uniform(-1.0, 1.0);
    if (k % 7 == 0) d[2] = 0.0;
    const oic::poly::Support s = solver.support(d);
    unbounded += s.bounded ? 0 : 1;
    h.u64(s.bounded ? 1 : 0);
    h.u64(s.feasible ? 1 : 0);
    h.f64(s.value);
    h.u64(s.maximizer.size());
    for (std::size_t j = 0; j < s.maximizer.size(); ++j) h.f64(s.maximizer[j]);
  }
  EXPECT_GT(unbounded, 50u);
  EXPECT_EQ(hex(h.value()), "0xb4643177003edf2d");
}

// Equation (5) as TubeMpc builds it (x(0) = x0, nominal dynamics,
// tightened and terminal state rows, input rows, 1-norm epigraph), from
// the controller's public sets, solved cold in one shot.
Problem tube_mpc_lp(const oic::control::TubeMpc& mpc, const Vector& x0) {
  const auto& sys = mpc.system();
  const std::size_t nx = sys.nx(), nu = sys.nu(), n = mpc.config().horizon;
  const std::size_t u0 = nx * (n + 1), tx0 = u0 + nu * n, tu0 = tx0 + nx * n;
  const std::size_t total = tu0 + nu * n;
  Problem p(total);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      p.set_objective_coeff(tx0 + k * nx + i, mpc.config().state_weight);
      p.set_bounds(tx0 + k * nx + i, 0.0, Problem::kInf);
    }
    for (std::size_t i = 0; i < nu; ++i) {
      p.set_objective_coeff(tu0 + k * nu + i, mpc.config().input_weight);
      p.set_bounds(tu0 + k * nu + i, 0.0, Problem::kInf);
    }
  }
  const auto row_with = [&](std::initializer_list<std::pair<std::size_t, double>> e) {
    Vector row(total);
    for (const auto& [j, v] : e) row[j] = v;
    return row;
  };
  for (std::size_t i = 0; i < nx; ++i) {
    p.add_constraint(row_with({{i, 1.0}}), Relation::kEqual, x0[i]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      Vector row(total);
      row[(k + 1) * nx + i] = 1.0;
      for (std::size_t j = 0; j < nx; ++j) row[k * nx + j] -= sys.a()(i, j);
      for (std::size_t j = 0; j < nu; ++j) row[u0 + k * nu + j] -= sys.b()(i, j);
      p.add_constraint(row, Relation::kEqual, sys.c()[i]);
    }
  }
  const auto state_rows = [&](const oic::poly::HPolytope& set, std::size_t k) {
    for (std::size_t r = 0; r < set.num_constraints(); ++r) {
      Vector row(total);
      for (std::size_t j = 0; j < nx; ++j) row[k * nx + j] = set.a()(r, j);
      p.add_constraint(row, Relation::kLessEq, set.b()[r]);
    }
  };
  for (std::size_t k = 1; k < n; ++k) state_rows(mpc.tightened(k), k);
  state_rows(mpc.terminal_set(), n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& u = sys.u_set();
    for (std::size_t r = 0; r < u.num_constraints(); ++r) {
      Vector row(total);
      for (std::size_t j = 0; j < nu; ++j) row[u0 + k * nu + j] = u.a()(r, j);
      p.add_constraint(row, Relation::kLessEq, u.b()[r]);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t x = k * nx + i, t = tx0 + k * nx + i;
      p.add_constraint(row_with({{x, 1.0}, {t, -1.0}}), Relation::kLessEq, 0.0);
      p.add_constraint(row_with({{x, -1.0}, {t, -1.0}}), Relation::kLessEq, 0.0);
    }
    for (std::size_t i = 0; i < nu; ++i) {
      const std::size_t u = u0 + k * nu + i, t = tu0 + k * nu + i;
      p.add_constraint(row_with({{u, 1.0}, {t, -1.0}}), Relation::kLessEq, 0.0);
      p.add_constraint(row_with({{u, -1.0}, {t, -1.0}}), Relation::kLessEq, 0.0);
    }
  }
  return p;
}

TEST(ColdLpGolden, TubeMpcColdSolvesPinned) {
  // x0 drawn from X, so some states lie outside XI and phase 1 reports
  // them infeasible; the rest run both phases on the production tableaus.
  const auto& registry = oic::eval::ScenarioRegistry::builtin();
  oic::Rng rng(0x636f6c645f6d7063ull);
  oic::Fnv1a h;
  std::size_t infeasible = 0, solved = 0;
  for (const auto& pid : registry.production_plant_ids()) {
    const auto plant = registry.make_plant(pid);
    const auto& x = plant->sets().x;
    const auto box = x.bounding_box();
    for (int k = 0; k < 30; ++k) {
      const Vector x0 = oic::eval::sample_from_set(x, box, rng, "ColdLpGolden");
      const Result r = solve(tube_mpc_lp(plant->rmpc(), x0));
      infeasible += r.status == Status::kInfeasible ? 1 : 0;
      solved += r.status == Status::kOptimal ? 1 : 0;
      hash_result(h, r);
    }
  }
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(solved, 60u);
  EXPECT_EQ(hex(h.value()), "0xce5880de4aabf983");
}

TEST(ColdLpGolden, FourierMotzkinRedundancyLpsPinned) {
  // One unpruned elimination of a random 3-D polytope, then the LPs
  // HPolytope::remove_redundancy solves on its output, in its order: the
  // row's own normal as objective against every other kept row, capped at
  // b_i + 1.
  oic::Rng rng(0x636f6c645f666d70ull);
  const std::size_t rows = 36;
  oic::linalg::Matrix a(rows, 3);
  Vector b(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    Vector d(3);
    for (std::size_t j = 0; j < 3; ++j) d[j] = rng.uniform(-1.0, 1.0);
    const double norm = d.norm2();
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = d[j] / norm;
    b[i] = rng.uniform(0.5, 1.5);
  }
  oic::poly::FourierMotzkinOptions opt;
  opt.prune = false;
  const oic::poly::HPolytope proj =
      oic::poly::eliminate_variable(oic::poly::HPolytope(a, b), 2, opt);
  const std::size_t m = proj.num_constraints();
  ASSERT_GT(m, 200u);
  std::vector<bool> keep(m, true);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; keep[i] && j < m; ++j) {
      bool same = std::fabs(proj.b()[i] - proj.b()[j]) <= 1e-12;
      for (std::size_t c = 0; same && c < 2; ++c) {
        same = std::fabs(proj.a()(i, c) - proj.a()(j, c)) <= 1e-12;
      }
      if (same) keep[j] = false;
    }
  }
  oic::Fnv1a h;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (!keep[i]) continue;
    Problem p(2);
    p.set_objective(-proj.a().row(i));
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i && keep[j]) p.add_constraint(proj.a().row(j), Relation::kLessEq, proj.b()[j]);
    }
    p.add_constraint(proj.a().row(i), Relation::kLessEq, proj.b()[i] + 1.0);
    const Result r = solve(p);
    hash_result(h, r);
    if (r.status == Status::kOptimal && -r.objective <= proj.b()[i] + 1e-9) {
      keep[i] = false;
      ++dropped;
    }
  }
  EXPECT_GT(dropped, m / 2);
  EXPECT_EQ(hex(h.value()), "0x4490b7728d6681c0");
}

}  // namespace
