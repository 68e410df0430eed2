#include "control/tube_mpc.hpp"

#include "common/error.hpp"
#include "control/reach.hpp"
#include "lp/simplex.hpp"
#include "poly/ops.hpp"

namespace oic::control {

using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

TubeMpc::TubeMpc(AffineLTI sys, Matrix k_local, RmpcConfig config)
    : sys_(std::move(sys)), k_local_(std::move(k_local)), config_(config) {
  OIC_REQUIRE(config_.horizon >= 1, "TubeMpc: horizon must be at least 1");
  OIC_REQUIRE(k_local_.rows() == sys_.nu() && k_local_.cols() == sys_.nx(),
              "TubeMpc: local gain shape mismatch");

  const std::size_t n = config_.horizon;
  const HPolytope d = sys_.disturbance_in_state_space();
  const Matrix m_tighten =
      config_.closed_loop_tightening ? sys_.a() + sys_.b() * k_local_ : sys_.a();

  // X(0) = X;  X(k) = X(k-1) (-) M^{k-1} D.
  tightened_.clear();
  tightened_.push_back(sys_.x_set().remove_redundancy());
  Matrix mpow = Matrix::identity(sys_.nx());  // M^{k-1} for k = 1 is I
  for (std::size_t k = 1; k <= n; ++k) {
    // Materialize M^{k-1} D.
    const HPolytope dk = [&]() {
      if (sys_.nx() == 2) {
        const auto verts = d.vertices_2d();
        OIC_CHECK(!verts.empty(), "TubeMpc: disturbance set has no vertices");
        std::vector<Vector> imgs;
        imgs.reserve(verts.size());
        for (const auto& v : verts) imgs.push_back(mpow * v);
        return HPolytope::from_vertices_2d(imgs);
      }
      return poly::affine_image_projection(d, mpow, Vector(sys_.nx()));
    }();
    HPolytope next = tightened_.back().pontryagin_diff(dk).remove_redundancy();
    OIC_REQUIRE(!next.is_empty(),
                "TubeMpc: constraint tightening emptied X(k); disturbance too large "
                "for this horizon");
    tightened_.push_back(std::move(next));
    mpow = mpow * m_tighten;
  }

  // Terminal set: maximal RPI of the nominal closed loop x+ = (A+BK)x + c
  // under the residual disturbance M^N D, inside the most-tightened state
  // set intersected with input admissibility { x | K x in U }.
  const Matrix a_cl = sys_.a() + sys_.b() * k_local_;
  const HPolytope d_residual = [&]() {
    if (sys_.nx() == 2) {
      const auto verts = d.vertices_2d();
      std::vector<Vector> imgs;
      imgs.reserve(verts.size());
      for (const auto& v : verts) imgs.push_back(mpow * v);  // mpow == M^N here
      return HPolytope::from_vertices_2d(imgs);
    }
    return poly::affine_image_projection(d, mpow, Vector(sys_.nx()));
  }();
  const HPolytope input_ok = sys_.u_set().affine_preimage(k_local_, Vector(sys_.nu()));
  const HPolytope constraint = tightened_.back().intersect(input_ok);
  const InvariantResult terminal =
      maximal_rpi(a_cl, sys_.c(), d_residual, constraint, config_.terminal_options);
  OIC_REQUIRE(terminal.converged, "TubeMpc: terminal-set iteration did not converge");
  OIC_REQUIRE(!terminal.set.is_empty(),
              "TubeMpc: terminal set is empty; loosen constraints or shorten horizon");
  terminal_ = terminal.set;
}

TubeMpc::TubeMpc(AffineLTI sys, Matrix k_local, RmpcConfig config,
                 std::vector<HPolytope> tightened, HPolytope terminal)
    : sys_(std::move(sys)),
      k_local_(std::move(k_local)),
      config_(config),
      tightened_(std::move(tightened)),
      terminal_(std::move(terminal)) {
  OIC_REQUIRE(config_.horizon >= 1, "TubeMpc: horizon must be at least 1");
  OIC_REQUIRE(k_local_.rows() == sys_.nu() && k_local_.cols() == sys_.nx(),
              "TubeMpc: local gain shape mismatch");
  OIC_REQUIRE(tightened_.size() == config_.horizon + 1,
              "TubeMpc: need one tightened set per step X(0)..X(N)");
  for (const auto& t : tightened_) {
    OIC_REQUIRE(t.dim() == sys_.nx(), "TubeMpc: tightened-set dimension mismatch");
  }
  OIC_REQUIRE(terminal_.dim() == sys_.nx() && !terminal_.is_empty(),
              "TubeMpc: terminal set must be a non-empty state-space polytope");
}

TubeMpc::TubeMpc(const TubeMpc& other)
    : Controller(other),
      sys_(other.sys_),
      k_local_(other.k_local_),
      config_(other.config_),
      tightened_(other.tightened_),
      terminal_(other.terminal_),
      last_(other.last_) {
  // prepared_/ws_ are per-instance solver state; rebuilt lazily.
}

TubeMpc& TubeMpc::operator=(const TubeMpc& other) {
  if (this == &other) return *this;
  Controller::operator=(other);
  sys_ = other.sys_;
  k_local_ = other.k_local_;
  config_ = other.config_;
  tightened_ = other.tightened_;
  terminal_ = other.terminal_;
  last_ = other.last_;
  prepared_.reset();
  ws_ = lp::SolverWorkspace{};
  warm_ = lp::PreparedProblem::WarmState{};
  return *this;
}

void TubeMpc::reset_solver() { warm_.valid = false; }

const HPolytope& TubeMpc::tightened(std::size_t k) const {
  OIC_REQUIRE(k < tightened_.size(), "TubeMpc::tightened: index out of range");
  return tightened_[k];
}

TubeMpc::LpLayout TubeMpc::make_layout(bool with_objective) const {
  const std::size_t nx = sys_.nx();
  const std::size_t nu = sys_.nu();
  const std::size_t n = config_.horizon;
  // Variable blocks: states x(0..N), inputs u(0..N-1), then (only when the
  // objective is wanted) auxiliaries tx(0..N-1) >= |x| and tu(0..N-1) >= |u|.
  LpLayout layout;
  layout.x0 = 0;
  layout.u0 = nx * (n + 1);
  layout.tx0 = layout.u0 + nu * n;
  layout.tu0 = layout.tx0 + (with_objective ? nx * n : 0);
  layout.total = layout.tu0 + (with_objective ? nu * n : 0);
  return layout;
}

lp::Problem TubeMpc::build_lp(const Vector& x0, bool with_objective,
                              LpLayout& layout) const {
  const std::size_t nx = sys_.nx();
  const std::size_t nu = sys_.nu();
  const std::size_t n = config_.horizon;

  layout = make_layout(with_objective);

  lp::Problem p(layout.total);
  auto xv = [&](std::size_t k, std::size_t i) { return layout.x0 + k * nx + i; };
  auto uv = [&](std::size_t k, std::size_t i) { return layout.u0 + k * nu + i; };
  auto txv = [&](std::size_t k, std::size_t i) { return layout.tx0 + k * nx + i; };
  auto tuv = [&](std::size_t k, std::size_t i) { return layout.tu0 + k * nu + i; };

  if (with_objective) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < nx; ++i) {
        p.set_objective_coeff(txv(k, i), config_.state_weight);
        p.set_bounds(txv(k, i), 0.0, lp::Problem::kInf);
      }
      for (std::size_t i = 0; i < nu; ++i) {
        p.set_objective_coeff(tuv(k, i), config_.input_weight);
        p.set_bounds(tuv(k, i), 0.0, lp::Problem::kInf);
      }
    }
  }

  auto dense_row = [&](std::initializer_list<std::pair<std::size_t, double>> entries) {
    Vector row(layout.total);
    for (const auto& [idx, val] : entries) row[idx] = val;
    return row;
  };

  // x(0) = x0.
  for (std::size_t i = 0; i < nx; ++i) {
    p.add_constraint(dense_row({{xv(0, i), 1.0}}), lp::Relation::kEqual, x0[i]);
  }

  // Nominal dynamics x(k+1) = A x(k) + B u(k) + c.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      Vector row(layout.total);
      row[xv(k + 1, i)] = 1.0;
      for (std::size_t j = 0; j < nx; ++j) row[xv(k, j)] -= sys_.a()(i, j);
      for (std::size_t j = 0; j < nu; ++j) row[uv(k, j)] -= sys_.b()(i, j);
      p.add_constraint(row, lp::Relation::kEqual, sys_.c()[i]);
    }
  }

  // Tightened state constraints x(k) in X(k) for 1 <= k <= N-1 (k = 0 is
  // pinned by the equality; k = N is covered by the terminal set, which was
  // built inside X(N)).  Including k = 0 rows would only re-test x0.
  for (std::size_t k = 1; k < n; ++k) {
    const HPolytope& xk = tightened_[k];
    for (std::size_t r = 0; r < xk.num_constraints(); ++r) {
      Vector row(layout.total);
      for (std::size_t j = 0; j < nx; ++j) row[xv(k, j)] = xk.a()(r, j);
      p.add_constraint(row, lp::Relation::kLessEq, xk.b()[r]);
    }
  }

  // Terminal constraint x(N) in X_t.
  for (std::size_t r = 0; r < terminal_.num_constraints(); ++r) {
    Vector row(layout.total);
    for (std::size_t j = 0; j < nx; ++j) row[xv(n, j)] = terminal_.a()(r, j);
    p.add_constraint(row, lp::Relation::kLessEq, terminal_.b()[r]);
  }

  // Input constraints u(k) in U.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = 0; r < sys_.u_set().num_constraints(); ++r) {
      Vector row(layout.total);
      for (std::size_t j = 0; j < nu; ++j) row[uv(k, j)] = sys_.u_set().a()(r, j);
      p.add_constraint(row, lp::Relation::kLessEq, sys_.u_set().b()[r]);
    }
  }

  // 1-norm epigraph rows: tx >= x, tx >= -x (and likewise for u).
  if (with_objective) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < nx; ++i) {
        p.add_constraint(dense_row({{xv(k, i), 1.0}, {txv(k, i), -1.0}}),
                         lp::Relation::kLessEq, 0.0);
        p.add_constraint(dense_row({{xv(k, i), -1.0}, {txv(k, i), -1.0}}),
                         lp::Relation::kLessEq, 0.0);
      }
      for (std::size_t i = 0; i < nu; ++i) {
        p.add_constraint(dense_row({{uv(k, i), 1.0}, {tuv(k, i), -1.0}}),
                         lp::Relation::kLessEq, 0.0);
        p.add_constraint(dense_row({{uv(k, i), -1.0}, {tuv(k, i), -1.0}}),
                         lp::Relation::kLessEq, 0.0);
      }
    }
  }
  return p;
}

Vector TubeMpc::control(const Vector& x) {
  OIC_REQUIRE(x.size() == sys_.nx(), "TubeMpc::control: state dimension mismatch");
  count_invocation();

  // The LP structure is state-independent: x enters Equation (5) only via
  // the x(0) = x equality right-hand sides (the first nx constraint rows of
  // build_lp).  The standard-form tableau is prepared once; each step
  // patches those nx values and continues from the previous step's optimal
  // basis with the dual simplex -- a few dual pivots instead of a full
  // two-phase restart.  reset_solver() drops the carried basis.
  LpLayout layout = make_layout(/*with_objective=*/true);
  if (!prepared_) {
    // Build from the CANONICAL zero-state template, not from x: the x(0)
    // equality rows enter the LP only through their right-hand sides (the
    // structure is state-independent), and a state-independent template
    // lets set_hot_rows capture one canonical warm-start seed shared by
    // every copy of this controller -- which keeps parallel-worker
    // episode schedules bit-identical to serial (see lp/prepared.hpp).
    const lp::Problem p = build_lp(Vector(sys_.nx()), /*with_objective=*/true, layout);
    prepared_ = std::make_unique<lp::PreparedProblem>(p);
    std::vector<std::size_t> x0_rows(sys_.nx());
    for (std::size_t i = 0; i < sys_.nx(); ++i) x0_rows[i] = i;
    prepared_->set_hot_rows(x0_rows);
  }
  for (std::size_t i = 0; i < sys_.nx(); ++i) prepared_->set_rhs(i, x[i]);
  const lp::Result r = prepared_->solve_warm(ws_, warm_);
  if (r.status == lp::Status::kInfeasible) {
    throw NumericalError("TubeMpc::control: optimization infeasible at this state");
  }
  OIC_CHECK(r.status == lp::Status::kOptimal, "TubeMpc::control: unexpected LP status");

  const std::size_t nx = sys_.nx();
  const std::size_t nu = sys_.nu();
  const std::size_t n = config_.horizon;
  last_.cost = r.objective;
  // Overwrite the previous plan in place: at serve throughput control()
  // runs tens of thousands of times per second and reallocating ~2N small
  // vectors per solve is measurable against the solve itself.
  if (last_.planned_x.size() != n + 1) last_.planned_x.assign(n + 1, Vector(nx));
  if (last_.planned_u.size() != n) last_.planned_u.assign(n, Vector(nu));
  for (std::size_t k = 0; k <= n; ++k) {
    Vector& xs = last_.planned_x[k];
    if (xs.size() != nx) xs = Vector(nx);
    for (std::size_t i = 0; i < nx; ++i) xs[i] = r.x[layout.x0 + k * nx + i];
  }
  for (std::size_t k = 0; k < n; ++k) {
    Vector& us = last_.planned_u[k];
    if (us.size() != nu) us = Vector(nu);
    for (std::size_t i = 0; i < nu; ++i) us[i] = r.x[layout.u0 + k * nu + i];
  }
  return last_.planned_u.front();
}

bool TubeMpc::feasible(const Vector& x) const {
  OIC_REQUIRE(x.size() == sys_.nx(), "TubeMpc::feasible: state dimension mismatch");
  LpLayout layout;
  const lp::Problem p = build_lp(x, /*with_objective=*/false, layout);
  return lp::solve(p).status != lp::Status::kInfeasible;
}

HPolytope TubeMpc::compute_feasible_set() const {
  // Backward controllability recursion over the nominal dynamics:
  //   C_0 = X_t,   C_{j+1} = { x in X(N-j-1) | exists u in U : A x + B u + c in C_j }.
  // C_N is the feasible region X_F of Equation (5), and by Prop. 1 the
  // robust control invariant set of this controller.
  HPolytope c = terminal_;
  const std::size_t n = config_.horizon;
  for (std::size_t j = 0; j < n; ++j) {
    const HPolytope& xk = tightened_[n - j - 1];
    c = pre_exists_input_nominal(sys_, c, xk, sys_.u_set());
  }
  return c.remove_redundancy();
}

}  // namespace oic::control
