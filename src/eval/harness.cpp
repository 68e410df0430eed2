#include "eval/harness.hpp"

#include "common/error.hpp"

namespace oic::eval {

using linalg::Vector;

core::IntermittentConfig make_intermittent_config(const PlantCase& plant,
                                                  const core::SkipPolicy& policy,
                                                  bool faults_active) {
  core::IntermittentConfig icfg;
  icfg.u_skip = plant.u_skip();
  icfg.w_memory = kEpisodeWMemory;
  // Fault campaigns measure XI excursions instead of aborting on them:
  // actuation drops ARE model mismatch, and left_xi is the statistic.
  // The tube controller's own local gain doubles as the degraded-mode
  // recovery feedback: infeasible-at-the-estimate steps actuate the
  // saturated stabilizing feedback instead of holding the (uncertified
  // outside X') skip input through an excursion.
  if (faults_active) {
    icfg.strict_invariant = false;
    icfg.recovery_gain = plant.rmpc().local_gain();
  }
  // Burst-requesting policies get the plant certificate's skip ladder; for
  // every per-step policy (burst_depth() == 0) the config -- and therefore
  // the whole decision stream -- is exactly the historical one.
  const std::size_t depth = policy.burst_depth();
  if (depth >= 1) {
    icfg.burst_depth = depth;
    icfg.ladder = plant.ladder();
    // Plant ladders come from the certificate layer (synthesized or
    // payload-hash-checked load), so the controller skips its LP re-checks.
    icfg.ladder_certified = true;
  }
  return icfg;
}

CaseData make_case(const PlantCase& plant, const Scenario& scenario, Rng& rng,
                   std::size_t steps, bool with_fault_stream) {
  CaseData data;
  Rng x0_rng = rng.split();
  data.x0 = plant.sample_x0(x0_rng);
  auto profile = scenario.profile->clone();
  profile->reset(rng.split());
  data.signal.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) data.signal.push_back(profile->next());
  if (with_fault_stream) {
    // A third split, taken ONLY on faulted runs: fault-free case streams
    // stay bit-identical to the historical two-split sequence.
    data.fault_stream = rng.split().engine()();
  }
  return data;
}

EpisodeResult run_monitored_episode(const PlantCase& plant, control::TubeMpc& rmpc,
                                    core::IntermittentController& ic,
                                    const CaseData& data, fault::Link* link,
                                    const StateObserver& observer) {
  OIC_REQUIRE(!data.signal.empty(), "run_monitored_episode: empty case");
  ic.reset();
  rmpc.reset_solver();
  if (link != nullptr && link->active()) link->reset(data.fault_stream);

  double fuel = 0.0;
  double energy = 0.0;
  const auto disturbance = [&](std::size_t t, Vector& w) {
    plant.signal_to_w(data.signal[t], w);
  };
  const auto on_period = [&](const core::Period& p) {
    fuel += plant.cost_step(p.x, p.u, p.decision.z == 1);
    energy += plant.energy_raw(p.u);
    if (observer) observer(p.t, p.x_next);
  };
  EpisodeResult out;
  static_cast<core::RunResult&>(out) = core::run_closed_loop(
      plant.system(), ic, data.x0, data.signal.size(), disturbance, on_period, link);
  out.fuel = fuel;
  out.energy = energy;
  out.steps = data.signal.size();
  return out;
}

EpisodeResult run_episode(PlantCase& plant, core::SkipPolicy& policy,
                          const CaseData& data, const fault::FaultSpec& faults) {
  core::IntermittentController ic(
      plant.system(), plant.sets(), plant.rmpc(), policy,
      make_intermittent_config(plant, policy, faults.active()));
  fault::Link link(faults, data.fault_stream);
  return run_monitored_episode(plant, plant.rmpc(), ic, data, &link);
}

double fuel_saving(const EpisodeResult& baseline, const EpisodeResult& ours) {
  OIC_REQUIRE(baseline.fuel > 0.0, "fuel_saving: baseline consumed no fuel");
  return (baseline.fuel - ours.fuel) / baseline.fuel;
}

}  // namespace oic::eval
