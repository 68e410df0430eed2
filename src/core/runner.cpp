#include "core/runner.hpp"

#include <utility>

#include "common/error.hpp"

namespace oic::core {

using linalg::Vector;

sim::TraceStep trace_step(const Period& p) {
  sim::TraceStep step;
  step.t = p.t;
  step.x = p.x;
  step.u = p.u;
  step.z = p.decision.z;
  step.forced = p.decision.forced;
  step.disturbance = p.w.size() == 1 ? p.w[0] : p.w.norm2();
  return step;
}

RunResult run_closed_loop(const control::AffineLTI& sys, IntermittentController& ic,
                          const Vector& x0, std::size_t steps,
                          const DisturbanceFn& disturbance, const PeriodFn& on_period,
                          fault::Link* link) {
  OIC_REQUIRE(x0.size() == sys.nx(), "run_closed_loop: initial state mismatch");
  OIC_REQUIRE(static_cast<bool>(disturbance), "run_closed_loop: disturbance fn required");

  const bool faulted = link != nullptr && link->active();
  const std::size_t skipped0 = ic.skipped_steps();
  const std::size_t forced0 = ic.forced_steps();
  const std::size_t degraded0 = ic.degraded_steps();
  const std::size_t stale0 = ic.stale_forced();
  const std::size_t policy0 = ic.policy_unavail();
  if (faulted) ic.seed_state(x0);

  RunResult out;
  Vector x = x0;
  Vector x_next(sys.nx());
  Vector w(sys.nw());
  // Faulted path: the monitor's view, and the last fresh measured state
  // with the input commanded at that period (the w-history endpoints).
  MeasuredState m;
  Vector prev_meas_x;
  Vector prev_u_cmd;
  bool prev_fresh = false;

  // Sense and decide: the framework observes only what the link delivers.
  const auto decide_faulted = [&](std::size_t t) {
    const fault::Measurement& meas = link->sense_and_observe(t, x);
    const bool fresh = meas.available && meas.age == 0;
    if (fresh && prev_fresh) {
      // Residual from measured endpoints and the COMMANDED input -- the
      // framework cannot know what the actuator really applied.
      ic.record_transition(prev_meas_x, prev_u_cmd, meas.x);
    }
    m.available = meas.available;
    m.age = meas.age;
    if (meas.available) m.x = meas.x;
    StepDecision d = ic.decide_measured(m, link->policy_available(t));
    prev_fresh = fresh;
    if (fresh) {
      prev_meas_x = meas.x;
      prev_u_cmd = d.u;
    }
    return d;
  };

  for (std::size_t t = 0; t < steps; ++t) {
    const StepDecision d = faulted ? decide_faulted(t) : ic.decide(x);
    const Vector& u = faulted ? link->actuate(t, d.u) : d.u;
    disturbance(t, w);
    sys.step_into(x, u, w, x_next);
    if (!faulted) ic.record_transition(x, d.u, x_next);
    if (on_period) on_period(Period{t, x, d, u, w, x_next});

    if (!out.left_xi && !ic.sets().xi.contains(x_next, 1e-6)) out.left_xi = true;
    if (!out.left_x && !ic.sets().x.contains(x_next, 1e-6)) out.left_x = true;
    std::swap(x, x_next);
  }
  out.skipped = ic.skipped_steps() - skipped0;
  out.forced = ic.forced_steps() - forced0;
  out.degraded_steps = ic.degraded_steps() - degraded0;
  out.stale_forced = ic.stale_forced() - stale0;
  out.policy_unavail = ic.policy_unavail() - policy0;
  if (faulted) {
    out.meas_dropped = link->meas_dropped();
    out.act_dropped = link->act_dropped();
  }
  return out;
}

}  // namespace oic::core
