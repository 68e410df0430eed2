#pragma once
/// \file runner.hpp
/// The closed loop of Algorithm 1 against the true (disturbed) plant: the
/// one place a monitored control period runs.  Each period checks x
/// against X', asks Omega or forces z = 1, applies kappa(x) or the skip
/// input, steps the plant, and flags safety violations.  Callers add their
/// own per-period bookkeeping (fuel sums, sim::Trace records, level
/// observers) through one callback.

#include <functional>

#include "core/intermittent.hpp"
#include "fault/fault.hpp"
#include "sim/trace.hpp"

namespace oic::core {

/// Rollout outcome.  Counters cover this rollout only.
struct RunResult {
  bool left_x = false;   ///< original safe set violated (never, by Thm 1)
  bool left_xi = false;  ///< invariant set violated (model mismatch)
  std::size_t skipped = 0;  ///< periods where the controller was skipped
  std::size_t forced = 0;   ///< periods where the monitor forced z = 1
  /// Fault accounting (all zero on the fault-free path).
  std::size_t degraded_steps = 0;  ///< steps handled in degraded mode
  std::size_t stale_forced = 0;    ///< stale/missing measurement forced z = 1
  std::size_t policy_unavail = 0;  ///< conservative default for Omega outage
  std::size_t meas_dropped = 0;    ///< measurement packets lost on the link
  std::size_t act_dropped = 0;     ///< actuation packets lost on the link
};

/// One finished period, as handed to the per-period callback.  The
/// references are valid only during the call.
struct Period {
  std::size_t t;
  const linalg::Vector& x;       ///< true state entering the period
  const StepDecision& decision;  ///< the monitor's output (commanded input)
  const linalg::Vector& u;       ///< input the plant received
  const linalg::Vector& w;       ///< true disturbance, in W-space
  const linalg::Vector& x_next;  ///< successor state
};

/// Fills the true disturbance of period t into `w` (dimension nw, owned by
/// the loop and reused across periods).
using DisturbanceFn = std::function<void(std::size_t t, linalg::Vector& w)>;

/// Called once per period, after the plant stepped.
using PeriodFn = std::function<void(const Period&)>;

/// The period as a trace record (fuel left at 0 for the caller to fill).
sim::TraceStep trace_step(const Period& p);

/// Run `steps` periods of Algorithm 1 from x0.  The plant evolves with the
/// true disturbance; the framework only observes states.  Per period the
/// calls run in the order decide, disturbance, plant step,
/// record_transition (fault-free path only), on_period, then the X / XI
/// membership checks.
/// Violations are recorded, not thrown (the runner also probes
/// deliberately broken configurations in tests); configure the controller
/// with strict_invariant = false for such probes.
///
/// With a non-null, active fault `link` the loop routes every channel
/// through it: the monitor sees only measurements the link delivers
/// (decide_measured, degraded mode), the plant receives the link's applied
/// input (actuation drops), and the policy sees compute outages.  The
/// disturbance-history residual is then reconstructed only between
/// consecutive FRESH measurements, from measured states and the commanded
/// input, so the framework never peeks at the true state.  The link must
/// be reset for this episode's stream; configure strict_invariant = false
/// (actuation drops can push the true state out of XI -- that is what
/// left_xi accounts).  A null or inactive link is the identity: decide()
/// on the true state and record_transition on the true successor.
RunResult run_closed_loop(const control::AffineLTI& sys, IntermittentController& ic,
                          const linalg::Vector& x0, std::size_t steps,
                          const DisturbanceFn& disturbance,
                          const PeriodFn& on_period = {}, fault::Link* link = nullptr);

}  // namespace oic::core
