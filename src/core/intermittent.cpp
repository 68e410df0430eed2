#include "core/intermittent.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "poly/support_solver.hpp"

namespace oic::core {

using linalg::Vector;

IntermittentController::IntermittentController(const control::AffineLTI& sys,
                                               const SafeSets& sets,
                                               control::Controller& kappa,
                                               SkipPolicy& omega,
                                               IntermittentConfig config)
    : sys_(sys),
      sets_(sets),
      kappa_(kappa),
      omega_(omega),
      config_(std::move(config)),
      state_(config_.w_memory) {
  OIC_REQUIRE(config_.u_skip.size() == sys_.nu(),
              "IntermittentController: skip input dimension mismatch");
  OIC_REQUIRE(config_.w_memory >= 1,
              "IntermittentController: disturbance memory must be positive");
  OIC_REQUIRE(kappa_.state_dim() == sys_.nx() && kappa_.input_dim() == sys_.nu(),
              "IntermittentController: controller dimensions mismatch");
  OIC_REQUIRE(verify_nesting(sets_),
              "IntermittentController: sets must satisfy X' subset XI subset X");
  OIC_REQUIRE(sys_.u_set().contains(config_.u_skip, 1e-9),
              "IntermittentController: skip input must be admissible (in U)");
  OIC_REQUIRE(config_.recovery_gain.rows() == 0 ||
                  (config_.recovery_gain.rows() == sys_.nu() &&
                   config_.recovery_gain.cols() == sys_.nx()),
              "IntermittentController: recovery gain must be nu-by-nx");
  if (config_.burst_depth >= 1) {
    OIC_REQUIRE(!config_.ladder.empty(),
                "IntermittentController: burst mode needs the k-step ladder "
                "(certificate)");
    max_burst_ = std::min(config_.burst_depth, config_.ladder.size());
    for (const auto& rung : config_.ladder) {
      OIC_REQUIRE(rung.dim() == sys_.nx(),
                  "IntermittentController: ladder set dimension mismatch");
    }
    // The burst certificate composes with Theorem 1 only if the ladder's
    // base is inside X' (one certified skip implies the monitor would have
    // allowed it); deeper rungs must nest so "deepest containing rung"
    // searches are sound.  A certificate-fed ladder already carries both
    // properties (cert::synthesize is correct by construction, loads are
    // payload-hash-checked against it, cert::verify re-proves them), so
    // ladder_certified skips the LP-based re-checks -- the harness builds
    // one controller per episode and must not pay them per episode.
    if (!config_.ladder_certified) {
      OIC_REQUIRE(
          poly::contains_polytope(sets_.x_prime, config_.ladder.front(), 1e-6),
          "IntermittentController: ladder base X'_1 must be inside X'");
      for (std::size_t k = 1; k < max_burst_; ++k) {
        OIC_REQUIRE(poly::contains_polytope(config_.ladder[k - 1], config_.ladder[k],
                                            1e-6),
                    "IntermittentController: ladder chain must be nested");
      }
    }
  }
}

StepDecision IntermittentController::decide(const Vector& x) {
  OIC_REQUIRE(x.size() == sys_.nx(), "IntermittentController::decide: state mismatch");
  return decide_at(x, /*policy_ok=*/true, /*graceful=*/false);
}

StepDecision IntermittentController::decide_at(const Vector& x, bool policy_ok,
                                               bool graceful) {
  ++total_steps_;

  StepDecision d;
  if (state_.take_burst_skip()) {
    // Inside a certified burst: neither the monitor nor the policy runs.
    d.z = 0;
    d.u = config_.u_skip;
    ++skipped_steps_;
    ++burst_steps_;
    return d;
  }

  const MonitorSpec spec{sets_, config_.ladder, max_burst_, config_.strict_invariant};
  const DecisionRow row{&x, &state_, &omega_};
  RowDecision rd;
  core_.decide(spec, &row, 1, policy_ok, &rd);
  switch (rd.verdict) {
    case Verdict::kLeftXi:
      throw NumericalError(
          "IntermittentController: state left the robust invariant set XI; the "
          "plant violates the model assumptions (Algorithm 1 precondition)");
    case Verdict::kForced:
      // Line 8: outside X' the controller must run (no Omega consultation,
      // so a policy-compute outage does not degrade this branch).
      d.forced = true;
      ++forced_steps_;
      break;
    case Verdict::kConsulted:
      // Line 6: Omega chose freely -- safety holds either way.
      d.policy_consulted = true;
      break;
    case Verdict::kUnavailable:
      d.degraded = true;
      ++degraded_steps_;
      ++policy_unavail_;
      break;
  }
  d.z = rd.z;

  if (d.z == 1) {
    if (graceful) {
      // Under faults the true state can exit the controller's feasible
      // region (e.g. actuation drops); the saturated recovery feedback
      // keeps a restoring force on the loop so the MPC can take over
      // again, and the episode stays alive for the campaign to account
      // for the excursion.
      try {
        d.u = kappa_.control(x);
      } catch (const NumericalError&) {
        d.u = recovery_input(x);
        if (!d.degraded) {
          d.degraded = true;
          ++degraded_steps_;
        }
      }
    } else {
      d.u = kappa_.control(x);
    }
  } else {
    d.u = config_.u_skip;
    ++skipped_steps_;
  }
  return d;
}

void IntermittentController::seed_state(const Vector& x0) {
  OIC_REQUIRE(x0.size() == sys_.nx(),
              "IntermittentController::seed_state: state dimension mismatch");
  tracking_ = true;
  step_index_ = 0;
  x_hat_ = x0;
  seed_x0_ = x0;
  have_ew_hold_ = false;
  have_last_meas_ = false;
  last_meas_step_ = 0;
  const std::size_t ring = std::max<std::size_t>(config_.stale_limit, 1);
  if (issued_u_.size() != ring) issued_u_.assign(ring, Vector(sys_.nu()));
  if (zero_u_.size() != sys_.nu()) zero_u_ = Vector(sys_.nu());
  if (!ew_set_ready_) {
    // The disturbance observer's clamp region, built once per controller:
    // only degraded-mode users (faulted episode loops) ever reach here.
    ew_set_ = sys_.disturbance_in_state_space();
    ew_set_ready_ = true;
  }
}

void IntermittentController::track_issued(const Vector& u) {
  issued_u_[step_index_ % issued_u_.size()] = u;
  // Prior for the next period: nominal step plus the held disturbance
  // estimate; a fresh measurement overwrites it, a stale one re-rolls from
  // its own sample.
  roll_nominal(x_hat_, u);
  ++step_index_;
}

void IntermittentController::roll_nominal(Vector& x, const Vector& u) {
  sys_.step_nominal_into(x, u, roll_scratch_);
  std::swap(x, roll_scratch_);
  if (have_ew_hold_) {
    double* xp = x.data().data();
    const double* ew = ew_hold_.data().data();
    for (std::size_t i = 0; i < x.size(); ++i) xp[i] += ew[i];
  }
}

void IntermittentController::observe_delivered(const Vector& x_meas,
                                               std::size_t age) {
  if (age > step_index_) return;  // pre-episode sample: nothing to anchor on
  const std::size_t sample = step_index_ - age;
  // One-step disturbance observer: two delivered samples of CONSECUTIVE
  // periods, with the input issued between them still in the ring, give
  // the realized state-space disturbance of that period exactly (modulo
  // spike corruption and actuation-drop mismatch -- the clamp below bounds
  // both):  E w(s-1) = x(s) - A x(s-1) - B u(s-1) - c.
  if (have_last_meas_ && sample == last_meas_step_ + 1 &&
      step_index_ - last_meas_step_ <= issued_u_.size()) {
    sys_.step_nominal_into(last_meas_x_, issued_u_[last_meas_step_ % issued_u_.size()],
                           roll_scratch_);
    ew_hold_ = x_meas;
    const std::size_t nx = ew_hold_.size();
    double* ew = ew_hold_.data().data();
    for (std::size_t i = 0; i < nx; ++i) ew[i] -= roll_scratch_[i];
    // Ray-clamp into E W: scale the estimate toward the origin until every
    // face of the disturbance set admits it.  A corrupted residual then
    // never feeds forward more than the worst-case disturbance it stands
    // in for (0 is in E W whenever the disturbance set admits rest, w = 0).
    double lam = 1.0;
    for (std::size_t i = 0; i < ew_set_.num_constraints(); ++i) {
      const double* ai = ew_set_.a().row_data(i);
      double dot = 0.0;
      for (std::size_t j = 0; j < nx; ++j) dot += ai[j] * ew[j];
      const double bi = ew_set_.b()[i];
      if (dot > bi) lam = std::min(lam, bi > 0.0 ? bi / dot : 0.0);
    }
    if (lam < 1.0) {
      for (std::size_t i = 0; i < nx; ++i) ew[i] *= lam;
    }
    have_ew_hold_ = true;
  }
  if (!have_last_meas_ || sample > last_meas_step_) {
    last_meas_x_ = x_meas;
    last_meas_step_ = sample;
    have_last_meas_ = true;
  }
}

StepDecision IntermittentController::decide_measured(const MeasuredState& m,
                                                     bool policy_ok) {
  OIC_REQUIRE(tracking_,
              "IntermittentController::decide_measured: seed_state() required");
  const bool fresh = m.available && m.age == 0;
  if (m.available) observe_delivered(m.x, m.age);

  StepDecision d;
  if (fresh) {
    x_hat_ = m.x;
    d = decide_at(x_hat_, policy_ok, /*graceful=*/true);
    track_issued(d.u);
    return d;
  }

  // Reconcile a stale-but-usable measurement: roll its sample forward
  // through the inputs issued since it was taken, feeding the observer's
  // held disturbance estimate forward each period.  Beyond stale_limit the
  // issued-input ring no longer covers the gap and the propagated estimate
  // carries on.
  if (m.available && m.age <= config_.stale_limit && m.age <= step_index_) {
    x_hat_ = m.x;
    for (std::size_t s = step_index_ - m.age; s < step_index_; ++s) {
      roll_nominal(x_hat_, issued_u_[s % issued_u_.size()]);
    }
  }

  ++total_steps_;
  d.degraded = true;
  ++degraded_steps_;
  if (state_.take_burst_skip()) {
    // A certified burst covers a monitor blackout exactly: X'_k membership
    // at burst start bounds the whole burst inside XI for every
    // disturbance sequence, with no measurement needed.
    d.z = 0;
    d.u = config_.u_skip;
    ++skipped_steps_;
    ++burst_steps_;
  } else {
    // The monitor cannot evaluate x in X' without a fresh measurement:
    // conservatively force the controller at the estimate (the tube bounds
    // the estimate error over the blackout); if even that is infeasible,
    // apply the saturated recovery feedback rather than killing the
    // episode.
    d.z = 1;
    d.forced = true;
    ++forced_steps_;
    ++stale_forced_;
    try {
      d.u = kappa_.control(x_hat_);
    } catch (const NumericalError&) {
      d.u = recovery_input(x_hat_);
    }
    // Stale-step robustification (active recovery only): the estimate
    // may stand for any state reachable under the unmeasured disturbance
    // periods AND the unconfirmed actuation drops behind the anchor --
    // kappa at the nominal estimate under-reacts exactly when one of
    // those realizations is near its bound, and by the time a delivered
    // sample reveals it the state has already coasted past XI across a
    // face the input cannot reach in one step.  Robust-check kappa's
    // plan against every counterfactual and substitute the
    // hypothesis-robust max-contraction input when the worst case
    // violates XI.
    if (config_.recovery_gain.rows() > 0) robustify_stale_input(d);
  }
  track_issued(d.u);
  return d;
}

bool IntermittentController::contraction_input(
    const std::vector<Vector>& states, const std::vector<double>* inflation,
    const double* nominal_cap, Vector& u_out) const {
  // One-step max-contraction: choose the admissible input minimizing the
  // worst-case predicted XI violation,
  //
  //   min_{u in U, t}  t   s.t.  a_i (A x_h + B u + c + ew_hat) - b_i
  //                                + inflation_i  <=  t,
  //
  // over every face i of XI and every candidate estimate x_h.  Unlike a
  // fixed feedback gain this uses the full actuation authority while the
  // estimate is outside XI (the gain's proportional pull can be far
  // weaker than U allows, letting the state coast deeper before
  // turning), and it hands over to kappa at exactly the feasible
  // region's edge since XI is kappa's feasible set.  With several
  // candidate estimates (actuation-drop counterfactuals) and `inflation`
  // (per-face supports of the accumulated disturbance-error set), the
  // minimized quantity is the violation of the WORST state the estimate
  // could stand for: the blind-window robust action.
  //
  // `nominal_cap` guards the minimax against unfixable hypotheses: with
  // it set, states[0] (the nominal estimate) additionally keeps its
  // predicted violation at or below the cap as a HARD constraint.
  // Without the cap, a counterfactual no input can rescue would let the
  // optimizer trade the nominal branch's safety away to equalize the
  // maximum -- actively steering the (almost certainly real) nominal
  // trajectory toward the boundary.  Callers pass the violation level of
  // the plan being replaced, so the cap is always achievable.
  const std::size_t nu = sys_.nu();
  const std::size_t nx = sys_.nx();
  const poly::HPolytope& xi = sets_.xi;
  const poly::HPolytope& u_set = sys_.u_set();
  lp::Problem prob(nu + 1);
  prob.set_objective_coeff(nu, 1.0);
  Vector row(nu + 1);
  for (std::size_t h = 0; h < states.size(); ++h) {
    Vector xpred = sys_.a() * states[h];
    for (std::size_t i = 0; i < nx; ++i) {
      xpred[i] += sys_.c()[i];
      if (have_ew_hold_) xpred[i] += ew_hold_[i];
    }
    for (std::size_t i = 0; i < xi.num_constraints(); ++i) {
      double rhs = xi.b()[i];
      if (inflation != nullptr) rhs -= (*inflation)[i];
      for (std::size_t k = 0; k < nx; ++k) rhs -= xi.a()(i, k) * xpred[k];
      for (std::size_t j = 0; j < nu; ++j) {
        double coeff = 0.0;
        for (std::size_t k = 0; k < nx; ++k) {
          coeff += xi.a()(i, k) * sys_.b()(k, j);
        }
        row[j] = coeff;
      }
      if (h == 0 && nominal_cap != nullptr) {
        // The nominal branch is purely constrained, never optimized: the
        // minimax objective ranges over the counterfactual branches only.
        row[nu] = 0.0;
        prob.add_constraint(row, lp::Relation::kLessEq, rhs + *nominal_cap);
      } else {
        row[nu] = -1.0;
        prob.add_constraint(row, lp::Relation::kLessEq, rhs);
      }
    }
  }
  for (std::size_t i = 0; i < u_set.num_constraints(); ++i) {
    for (std::size_t j = 0; j < nu; ++j) row[j] = u_set.a()(i, j);
    row[nu] = 0.0;
    prob.add_constraint(row, lp::Relation::kLessEq, u_set.b()[i]);
  }
  const lp::Result res = lp::solve(prob);
  if (res.status != lp::Status::kOptimal) return false;
  u_out = Vector(nu);
  for (std::size_t j = 0; j < nu; ++j) u_out[j] = res.x[j];
  return true;
}

void IntermittentController::robustify_stale_input(StepDecision& d) {
  // Anchor on the freshest delivered sample (the exact initial state
  // before anything arrives): every estimate hypothesis is a roll-forward
  // of the anchor through the issued-input ring.
  const Vector& anchor = have_last_meas_ ? last_meas_x_ : seed_x0_;
  const std::size_t s = have_last_meas_ ? last_meas_step_ : 0;
  const std::size_t g = step_index_ - s;
  if (g == 0 || g > config_.stale_limit) return;

  // Counterfactual estimates.  The sensor confirms states, never applied
  // inputs, so each of the g periods since the anchor may have silently
  // dropped its actuation: the receiver then re-applied its hold register
  // (the previously delivered input) or -- zero-input receivers and a
  // first-period drop -- nothing.  One roll per (period, candidate) whose
  // applied input would differ from the issued one; in steady state
  // consecutive issues coincide and the nominal roll is the only
  // hypothesis.  hyps_[0] is the nominal roll (equal to x_hat_ whenever a
  // stale measurement was just reconciled).  The hypotheses live in
  // member scratch: slots are reassigned, never freed, between periods.
  std::size_t num_hyps = 0;
  const auto roll = [&](std::size_t drop_at, const Vector* applied) {
    if (hyps_.size() == num_hyps) hyps_.emplace_back();
    Vector& x = hyps_[num_hyps++];
    x = anchor;
    for (std::size_t j = s; j < step_index_; ++j) {
      const Vector& u = (applied != nullptr && j == drop_at)
                            ? *applied
                            : issued_u_[j % issued_u_.size()];
      roll_nominal(x, u);
    }
  };
  roll(0, nullptr);
  for (std::size_t j = s; j < step_index_; ++j) {
    const Vector& issued = issued_u_[j % issued_u_.size()];
    const Vector* candidates[2] = {&zero_u_, nullptr};
    // The hold register re-applies the previous issued input -- usable
    // only while that slot is still live in the ring.
    if (j >= 1 && step_index_ - (j - 1) <= issued_u_.size()) {
      candidates[1] = &issued_u_[(j - 1) % issued_u_.size()];
    }
    for (const Vector* cand : candidates) {
      if (cand == nullptr) continue;
      double delta = 0.0;
      for (std::size_t k = 0; k < issued.size(); ++k) {
        delta = std::max(delta, std::abs((*cand)[k] - issued[k]));
      }
      if (delta > 1e-9) roll(j, cand);
    }
  }
  // No counterfactual differs from the nominal roll: nothing an actuation
  // drop could hide.  Pure disturbance-accumulation uncertainty is kappa's
  // territory -- the tube margins absorb in-E W disturbances by design --
  // so overriding here would second-guess a controller with strictly more
  // lookahead than this one-step check.
  if (num_hyps <= 1) return;

  // Robust-check the planned input: worst-case next-step XI violation
  // over the COUNTERFACTUAL hypotheses, each face inflated by the support
  // of the accumulated disturbance-error set S_{g+1} (g unmeasured periods
  // behind the anchor plus the step being decided).  The nominal branch
  // never arms the override (see above); it only sets the safety budget.
  //
  // Branches no input can rescue are dropped entirely: minimizing the max
  // over an unfixable branch just equalizes the achievable branches UP to
  // the hopeless one, actively steering the (overwhelmingly likely) real
  // trajectory toward the boundary for nothing.  The screen is the sound
  // lower bound  max_i [a_i (A x_h + c + ew_hat) + infl_i - b_i + p_i]
  // with p_i = min_{u in U} a_i B u  (a per-face constant, built lazily
  // below): a positive bound proves even full authority cannot bring the
  // branch inside XI this step.
  const std::vector<double>& infl = stale_inflation(g + 1);
  const poly::HPolytope& xi = sets_.xi;
  const std::size_t faces = xi.num_constraints();
  const std::size_t nx = sys_.nx();
  const std::size_t nu = sys_.nu();
  if (u_pull_.empty()) {
    // face_b_ row i = a_i B (k-ascending sums), the per-face input gain
    // every hypothesis's planned-input pull reuses.
    const linalg::Matrix& b_mat = sys_.b();
    face_b_ = linalg::Matrix(faces, nu);
    linalg::Matrix dirs(faces, nu);
    for (std::size_t i = 0; i < faces; ++i) {
      for (std::size_t j = 0; j < nu; ++j) {
        double v = 0.0;
        for (std::size_t k = 0; k < nx; ++k) v += xi.a()(i, k) * b_mat(k, j);
        face_b_(i, j) = v;
        dirs(i, j) = -v;
      }
    }
    poly::SupportSolver u_solver(sys_.u_set());
    u_pull_.reserve(faces);
    for (const poly::Support& sup : u_solver.support_batch(dirs)) {
      // U is bounded nonempty by construction; degrade to "never screen"
      // on a degenerate input set rather than excluding rescuable
      // branches.
      u_pull_.push_back((sup.bounded && sup.feasible) ? -sup.value : -1e300);
    }
  }
  double worst = 0.0;
  double nominal = -1e300;
  actionable_.clear();
  actionable_.push_back(0);
  const double* up = d.u.data().data();
  const double* bp = xi.b().data().data();
  for (std::size_t h = 0; h < num_hyps; ++h) {
    // Drift-only prediction (B u contributes nothing): base_i plus the
    // planned input's pull gives the violation under d.u; plus the best
    // pull, the fixability bound.
    drift_ = hyps_[h];
    roll_nominal(drift_, zero_u_);
    const double* xp = drift_.data().data();
    double v_planned = -1e300;
    double fix_bound = -1e300;
    for (std::size_t i = 0; i < faces; ++i) {
      const double* ai = xi.a().row_data(i);
      double base = infl[i] - bp[i];
      for (std::size_t k = 0; k < nx; ++k) base += ai[k] * xp[k];
      const double* gi = face_b_.row_data(i);
      double pull = 0.0;
      for (std::size_t j = 0; j < nu; ++j) pull += gi[j] * up[j];
      v_planned = std::max(v_planned, base + pull);
      fix_bound = std::max(fix_bound, base + u_pull_[i]);
    }
    if (h == 0) {
      nominal = v_planned;
      continue;
    }
    if (fix_bound > 0.0) continue;  // provably unfixable: excluded
    actionable_.push_back(h);
    worst = std::max(worst, v_planned);
  }
  if (worst > 0.0 && actionable_.size() > 1) {
    std::vector<Vector> states;
    states.reserve(actionable_.size());
    for (const std::size_t h : actionable_) states.push_back(hyps_[h]);
    // The nominal branch may not end up worse off than under the plan
    // being replaced (and never pushed outside XI when the plan kept it
    // inside): the plan itself satisfies the cap, so the constrained
    // minimax is always feasible.
    const double cap = std::max(nominal, 0.0);
    Vector u_robust;
    if (contraction_input(states, &infl, &cap, u_robust)) d.u = u_robust;
  }
}

const std::vector<double>& IntermittentController::stale_inflation(
    std::size_t g) {
  const poly::HPolytope& xi = sets_.xi;
  const std::size_t faces = xi.num_constraints();
  const std::size_t nx = sys_.nx();
  if (infl_cache_.empty()) {
    infl_cache_.emplace_back(faces, 0.0);  // S_0 = {0}
    infl_dirs_ = xi.a();                   // (A^T)^0 a_i
  }
  if (infl_cache_.size() <= g) {
    // One solver over E W answers every face of every missing level; the
    // carried direction matrix feeds the batched entry as-is.
    poly::SupportSolver ew_solver(ew_set_);
    while (infl_cache_.size() <= g) {
      // Extend by one level: S_{L+1} = S_L + A^L E W, so each face gains
      // the support of E W along (A^T)^L a_i; then propagate the carried
      // directions by one more power of A (row-vector times A).
      std::vector<double> next = infl_cache_.back();
      const std::vector<poly::Support> sup = ew_solver.support_batch(infl_dirs_);
      for (std::size_t i = 0; i < faces; ++i) {
        const poly::Support& s = sup[i];
        // E W is a bounded nonempty polytope by construction; guard anyway
        // so a degenerate disturbance model degrades to no inflation
        // rather than poisoning the cache.
        next[i] += (s.bounded && s.feasible) ? s.value : 0.0;
      }
      linalg::Matrix propagated(faces, nx);
      for (std::size_t i = 0; i < faces; ++i) {
        for (std::size_t k = 0; k < nx; ++k) {
          double v = 0.0;
          for (std::size_t m = 0; m < nx; ++m) {
            v += infl_dirs_(i, m) * sys_.a()(m, k);
          }
          propagated(i, k) = v;
        }
      }
      infl_dirs_ = std::move(propagated);
      infl_cache_.push_back(std::move(next));
    }
  }
  return infl_cache_[g];
}

Vector IntermittentController::recovery_input(const Vector& x) const {
  if (config_.recovery_gain.rows() == 0) return config_.u_skip;
  Vector u;
  if (contraction_input({x}, nullptr, nullptr, u)) return u;
  // Fallback (solver iteration limit -- U is nonempty so the model is
  // never infeasible or unbounded): the saturated stabilizing gain.
  const poly::HPolytope& u_set = sys_.u_set();
  u = config_.recovery_gain * x;
  // Ray-saturate into U toward the skip input (admissible by the ctor
  // precondition): u <- u_skip + lam * (u - u_skip) with the largest
  // lam in [0, 1] every face of U admits.  Direction-preserving, so the
  // feedback keeps pointing where the stabilizing gain says even when the
  // estimate is far out and K x alone would violate the input limits.
  double lam = 1.0;
  for (std::size_t i = 0; i < u_set.num_constraints(); ++i) {
    double along = 0.0;
    double base = 0.0;
    for (std::size_t j = 0; j < u.size(); ++j) {
      along += u_set.a()(i, j) * (u[j] - config_.u_skip[j]);
      base += u_set.a()(i, j) * config_.u_skip[j];
    }
    const double room = u_set.b()[i] - base;
    if (along > room) lam = std::min(lam, room > 0.0 ? room / along : 0.0);
  }
  if (lam < 1.0) {
    for (std::size_t j = 0; j < u.size(); ++j) {
      u[j] = config_.u_skip[j] + lam * (u[j] - config_.u_skip[j]);
    }
  }
  return u;
}

void IntermittentController::record_transition(const Vector& x, const Vector& u,
                                               const Vector& x_next) {
  state_.record_transition(sys_, x, u, x_next);
}

void IntermittentController::reset() {
  state_.reset();
  tracking_ = false;
  step_index_ = 0;
  omega_.reset();
}

}  // namespace oic::core
