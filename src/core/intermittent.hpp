#pragma once
/// \file intermittent.hpp
/// Algorithm 1: the online opportunistic intermittent-control framework.
///
/// Per control period the monitor checks x(t) against the strengthened
/// safe set X'.  Inside X' the skipping policy Omega chooses z(t) freely;
/// outside (but inside XI) the monitor forces z(t) = 1.  The actuated
/// input is kappa(x) when z = 1 and the designated skip input otherwise.
/// Theorem 1 guarantees the loop never leaves XI.

#include <memory>
#include <vector>

#include "control/controller.hpp"
#include "control/lti.hpp"
#include "core/decision.hpp"
#include "core/policy.hpp"
#include "core/safe_sets.hpp"
#include "core/w_history.hpp"

namespace oic::core {

/// Framework configuration.
struct IntermittentConfig {
  linalg::Vector u_skip;      ///< input actuated on skipped steps (paper: 0)
  std::size_t w_memory = 1;   ///< disturbance observations retained (r)
  /// When true, a state outside XI raises NumericalError instead of
  /// silently running the controller -- XI membership is the framework's
  /// precondition (Algorithm 1 line 2) and losing it means the certificate
  /// was violated by the plant model.
  bool strict_invariant = true;
  /// Certified burst skipping (extension beyond the paper; the k-step
  /// ladder of core::compute_multi_step_safe_sets): ladder[k-1] = X'_k is
  /// the set of states from which k consecutive skipped periods provably
  /// stay inside XI for every disturbance sequence.  With burst_depth >= 1
  /// and a non-empty ladder, a skip decision at x in X'_k (deepest
  /// k <= burst_depth) certifies the whole burst: the next k-1 periods
  /// skip without membership checks or policy consultations, amortizing
  /// the monitor over the burst.  Default off (burst_depth = 0): the
  /// decision stream is bit-identical to the paper's per-period monitor.
  std::vector<poly::HPolytope> ladder;
  std::size_t burst_depth = 0;
  /// Set ONLY when `ladder` comes from a cert::PlantCertificate (correct
  /// by synthesis, or payload-hash-checked on load): skips the
  /// constructor's LP-based base/chain containment re-checks, which would
  /// otherwise run once per episode on the harness path.  Hand-assembled
  /// ladders must leave this false and pay for the validation.
  bool ladder_certified = false;
  /// Degraded mode (decide_measured): maximum staleness, in periods, at
  /// which a delayed measurement is still rolled forward through the
  /// issued-input ring to refresh the state estimate.  Older measurements
  /// are discarded and the propagated estimate carries on.  Also sizes the
  /// issued-input ring.
  std::size_t stale_limit = 8;
  /// Degraded-mode recovery feedback (u = K x, nu-by-nx; empty = off).
  /// Non-empty enables active recovery when the controller is infeasible
  /// at the state estimate on a graceful path: the framework actuates the
  /// one-step max-contraction input (the admissible u minimizing the
  /// worst-case predicted XI violation, an LP over U) instead of the skip
  /// input -- the skip input is certified only INSIDE X', and holding it
  /// outside the feasible region leaves an excursion with no restoring
  /// force (an open-loop-unstable plant then diverges).  The gain itself
  /// -- the tube controller's own local gain -- is the ray-saturated
  /// fallback if the LP solver hits its iteration limit.  Only graceful
  /// (faulted) paths ever read it.
  linalg::Matrix recovery_gain;
};

/// Outcome of one framework step.
struct StepDecision {
  linalg::Vector u;  ///< input to actuate
  int z = 1;         ///< skipping choice actually used
  bool forced = false;   ///< monitor overrode the policy (x outside X')
  bool policy_consulted = false;  ///< Omega was asked (x inside X')
  /// The step ran in degraded mode: the measurement was stale or missing,
  /// the skip-policy compute was unavailable, or the controller was
  /// infeasible at the estimate and the skip input was substituted.  Never
  /// set on the fault-free decide() path.
  bool degraded = false;
};

/// The monitor's view of the state under a faulted sensor link: the
/// freshest measurement that has arrived, if any (mirrors
/// fault::Measurement without making core depend on the fault layer).
struct MeasuredState {
  bool available = false;  ///< anything arrived yet?
  std::size_t age = 0;     ///< staleness in periods (0 = fresh)
  linalg::Vector x;        ///< measured state (valid when available)
};

/// The runtime of Algorithm 1.  Holds references to the plant description,
/// sets, controller, and policy; the caller owns their lifetimes.
class IntermittentController {
 public:
  IntermittentController(const control::AffineLTI& sys, const SafeSets& sets,
                         control::Controller& kappa, SkipPolicy& omega,
                         IntermittentConfig config);

  /// Lines 4-14 of Algorithm 1 for the current state.
  StepDecision decide(const linalg::Vector& x);

  /// Arm degraded-mode state tracking from the known initial state.  Must
  /// be called (after reset()) before the first decide_measured(); the
  /// plain decide() path never needs it and pays nothing for it.
  void seed_state(const linalg::Vector& x0);

  /// Algorithm 1 under a faulted sensor/compute channel.  With a FRESH
  /// measurement and an available policy this is exactly decide() at the
  /// measured state (same branch structure, same counters).  Otherwise the
  /// monitor degrades conservatively:
  ///
  ///   * fresh measurement, policy compute unavailable: inside X' the
  ///     monitor substitutes the conservative default z = 1 (it will never
  ///     skip without Omega's say-so); outside X' the forced path never
  ///     needed Omega and is unchanged.
  ///   * stale or missing measurement, burst certificate in flight: the
  ///     certified skip already covers a monitor blackout -- X'_k
  ///     membership at burst start guarantees the whole burst stays in XI
  ///     for EVERY disturbance, measured or not -- so the burst rides out.
  ///   * stale or missing measurement otherwise: the monitor cannot
  ///     evaluate x in X', so it forces z = 1 against the state estimate
  ///     (stale measurements within stale_limit are rolled forward through
  ///     the issued-input ring; otherwise the nominally propagated
  ///     estimate carries on).  If the controller is infeasible at the
  ///     estimate the skip input is substituted rather than aborting the
  ///     episode.
  ///
  /// The estimate uses a one-step disturbance observer: whenever two
  /// delivered measurements sample CONSECUTIVE periods, their residual
  /// against the issued input reconstructs the realized state-space
  /// disturbance E w of that period, and the roll-forward feeds it forward
  /// (held constant) instead of assuming w = 0.  For slew-bounded
  /// disturbances this shrinks the estimate error from O(age * w_max) to
  /// O(age * slew); the estimate is ray-clamped into E W, so a residual
  /// corrupted by a measurement spike or an actuation drop can never
  /// inject more error than the worst-case disturbance it replaces.
  ///
  /// See docs/faults.md for the stale-state degradation contract.
  StepDecision decide_measured(const MeasuredState& m, bool policy_ok);

  /// Tell the framework what actually happened so it can reconstruct the
  /// realized disturbance  E w = x_next - A x - B u - c  and maintain the
  /// history consumed by learning-based policies.
  void record_transition(const linalg::Vector& x, const linalg::Vector& u,
                         const linalg::Vector& x_next);

  /// Observed state-space disturbances, oldest first (up to w_memory).
  const WHistory& w_history() const { return state_.w_history(); }

  /// Reset per-episode state (history, burst, estimate; the counters stay
  /// cumulative).  Also resets the policy.
  void reset();

  /// Steps decided so far.
  std::size_t total_steps() const { return total_steps_; }
  /// Steps where the controller was skipped.
  std::size_t skipped_steps() const { return skipped_steps_; }
  /// Steps where the monitor forced z = 1.
  std::size_t forced_steps() const { return forced_steps_; }
  /// Skipped steps covered by a burst certificate (no per-step monitor
  /// check ran); always 0 with burst mode off.
  std::size_t burst_steps() const { return burst_steps_; }
  /// Remaining pre-certified skips of the burst in flight (diagnostics).
  std::size_t burst_remaining() const { return state_.burst_remaining(); }
  /// Steps handled in degraded mode (stale/missing measurement, policy
  /// compute unavailable, or infeasible-controller fallback); always 0 on
  /// the fault-free decide() path.
  std::size_t degraded_steps() const { return degraded_steps_; }
  /// Degraded steps where a stale/missing measurement forced z = 1 at the
  /// state estimate (excludes blackouts covered by a burst certificate).
  std::size_t stale_forced() const { return stale_forced_; }
  /// Degraded steps where the policy compute was unavailable inside X' and
  /// the conservative default z = 1 was substituted.
  std::size_t policy_unavail() const { return policy_unavail_; }
  /// Current state estimate (valid after seed_state; degraded-mode
  /// diagnostics and tests).
  const linalg::Vector& state_estimate() const { return x_hat_; }

  /// The safe sets in use.
  const SafeSets& sets() const { return sets_; }
  /// The configured skip input.
  const linalg::Vector& u_skip() const { return config_.u_skip; }

 private:
  /// The shared per-period body: the burst countdown, then the k = 1 pass
  /// of DecisionCore, then the input.  decide() is decide_at(x, true);
  /// decide_measured's fresh branch calls it with the channel's policy
  /// availability and graceful = true (controller infeasibility falls back
  /// to the skip input instead of propagating).
  StepDecision decide_at(const linalg::Vector& x, bool policy_ok, bool graceful);

  /// Advance the state estimate through the issued input
  /// (x_hat <- A x_hat + B u + c + ew_hold) and record u in the ring.
  void track_issued(const linalg::Vector& u);

  /// x <- A x + B u + c (+ ew_hold when held), through roll_scratch_.
  void roll_nominal(linalg::Vector& x, const linalg::Vector& u);

  /// Feed one delivered (possibly stale) measurement to the one-step
  /// disturbance observer: consecutive-period sample pairs update the held
  /// E w estimate (ray-clamped into E W).
  void observe_delivered(const linalg::Vector& x_meas, std::size_t age);

  /// One-step max-contraction LP: the admissible input minimizing the
  /// worst-case predicted XI violation over every candidate estimate in
  /// `states` (full actuation authority; each face optionally inflated
  /// by `inflation` to robustify against estimate error).  With
  /// `nominal_cap`, states[0]'s predicted violation is additionally
  /// bounded by the cap as a hard constraint, so the minimax can never
  /// trade the nominal branch's safety away against an unfixable
  /// counterfactual.  Returns false when the solver hits its iteration
  /// limit (U nonempty and an achievable cap make the model always
  /// feasible and bounded otherwise).
  bool contraction_input(const std::vector<linalg::Vector>& states,
                         const std::vector<double>* inflation,
                         const double* nominal_cap,
                         linalg::Vector& u_out) const;

  /// Stale-step robustification: robust-check the planned input against
  /// every state the estimate could stand for -- the roll-forward from
  /// the freshest delivered sample under each unconfirmed
  /// actuation-drop counterfactual (issued input replaced by the
  /// receiver's hold/zero candidate), every face inflated by the
  /// accumulated disturbance-error support -- and substitute the
  /// hypothesis-robust max-contraction input when the worst case
  /// violates XI.  No-op while the anchor is fresh or beyond the ring.
  void robustify_stale_input(StepDecision& d);

  /// Graceful fallback input when kappa is infeasible at `x`: the
  /// one-step max-contraction LP, the configured recovery feedback K x
  /// ray-saturated into U if the solver hits its iteration limit, or the
  /// skip input itself with no gain set.
  linalg::Vector recovery_input(const linalg::Vector& x) const;

  /// Per-XI-face supports of the accumulated estimate-error set
  /// S_g = sum_{j=0}^{g-1} A^j E W (the reachable error of an estimate
  /// that has absorbed g unmeasured disturbance periods), computed
  /// lazily per level and cached for the controller's lifetime.
  /// stale_inflation(g)[i] added to face i's violation gives the
  /// worst-case violation over every state the estimate could stand for.
  const std::vector<double>& stale_inflation(std::size_t g);

  const control::AffineLTI& sys_;
  SafeSets sets_;
  control::Controller& kappa_;
  SkipPolicy& omega_;
  IntermittentConfig config_;
  SessionState state_;        ///< disturbance history and burst countdown
  DecisionCore core_;         ///< the decision routine's scratch
  std::size_t max_burst_ = 0; ///< effective depth: min(burst_depth, ladder size)
  std::size_t total_steps_ = 0;
  std::size_t skipped_steps_ = 0;
  std::size_t forced_steps_ = 0;
  std::size_t burst_steps_ = 0;

  // Degraded-mode state (inert until seed_state()).
  bool tracking_ = false;          ///< seed_state() called this episode
  std::size_t step_index_ = 0;     ///< periods consumed by decide_measured
  linalg::Vector x_hat_;           ///< nominal state estimate
  linalg::Vector seed_x0_;         ///< episode anchor before any delivery
  linalg::Vector roll_scratch_;    ///< roll-forward scratch (see roll_nominal)
  linalg::Vector zero_u_;          ///< the zero input (drop counterfactuals, drift)
  std::vector<linalg::Vector> issued_u_;  ///< ring of issued inputs (by step)
  // robustify_stale_input scratch: estimate hypotheses (slots reused across
  // periods), the indices of the actionable ones, and one drift prediction.
  std::vector<linalg::Vector> hyps_;
  std::vector<std::size_t> actionable_;
  linalg::Vector drift_;
  // One-step disturbance observer (see decide_measured): held state-space
  // disturbance estimate, the last delivered sample it differences
  // against, and the E W clamp (built once per controller, on first
  // seed_state -- the fault-free decide() path never pays for it).
  linalg::Vector ew_hold_;         ///< held E w estimate (state space)
  bool have_ew_hold_ = false;
  linalg::Vector last_meas_x_;     ///< last delivered measurement sample
  std::size_t last_meas_step_ = 0; ///< its absolute sample period
  bool have_last_meas_ = false;
  poly::HPolytope ew_set_;         ///< E W, the observer's clamp region
  bool ew_set_ready_ = false;
  // Blind-window robustification cache (see stale_inflation):
  // infl_cache_[g][i] = h_{S_g}(a_i) for XI face i; infl_dirs_ row i
  // carries (A^T)^{levels-1} a_i so extending by one level is one
  // support LP per face plus a row-times-A propagation.
  std::vector<std::vector<double>> infl_cache_;
  linalg::Matrix infl_dirs_;
  // u_pull_[i] = min_{u in U} a_i B u, the strongest per-face pull the
  // actuator offers toward XI face i.  Lazily built (one support LP per
  // face, once per controller); robustify_stale_input uses it to screen
  // out counterfactual branches no input can rescue.  face_b_ row i is
  // a_i B itself, the per-face gain of the planned input; built with it.
  std::vector<double> u_pull_;
  linalg::Matrix face_b_;
  std::size_t degraded_steps_ = 0;
  std::size_t stale_forced_ = 0;
  std::size_t policy_unavail_ = 0;
};

}  // namespace oic::core
