/// \file campaign.cpp
/// `campaign` and `lossy`: the paper's experiment as an mc campaign over
/// the four production plants (family `mixed`; policies bang-bang,
/// periodic-5, burst:4 and the plant's DRL agent, each paired against the
/// always-run baseline), fault-free or under the `lossy` fault preset.
///
/// Untraced runs repeat the whole campaign on one worker until the
/// measuring time is spent (on a shared host, multi-worker wall time swings
/// with the neighbours' load; the scaling to kWorkers is the traced
/// mc.efficiency).  Every repetition must reproduce the first bit for bit, and no
/// episode may leave X.  Traced runs additionally replay a sample of the
/// same cases through eval::run_episode with timing decorators (see
/// trace.hpp), check them against eval::EpisodeEngine, and measure the
/// campaign's parallel efficiency.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "eval/engine.hpp"
#include "eval/harness.hpp"
#include "eval/policy_spec.hpp"
#include "eval/registry.hpp"
#include "fleet.hpp"
#include "mc/campaign.hpp"
#include "mc/family.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using oic::eval::EpisodeResult;

constexpr std::size_t kSteps = 100;
constexpr const char* kFamily = "mixed";

struct Plan {
  std::uint64_t episodes = 0;  ///< per plant
  std::uint64_t block = 8;     ///< small blocks so every worker gets work
  std::size_t traced_cases = 0;
  std::string faults;
};

Plan make_plan(const Args& args, bool lossy) {
  Plan p;
  p.episodes = args.quick ? 16 : (lossy ? 48 : 96);
  p.traced_cases = args.quick ? 2 : 8;
  p.faults = lossy ? "lossy" : "";
  return p;
}

std::vector<std::string> policy_specs(const Fleet& fleet, std::size_t plant) {
  return {"bang-bang", "periodic-5", "burst:4", "drl:" + fleet.agent_paths[plant]};
}

std::uint64_t plant_seed(std::uint64_t seed, std::size_t plant) {
  return oic::derive_stream(seed, plant);
}

/// Aggregates of one full campaign (all plants).
struct Totals {
  double wall_s = 0.0;             ///< raw wall time (parallel efficiency)
  double ref_wall_s = 0.0;         ///< wall time at the reference host speed
  double ref_cpu_s = 0.0;          ///< CPU time at the reference host speed
  std::uint64_t periods = 0;       ///< every cell, baseline included
  std::uint64_t episodes = 0;      ///< episode runs, baseline included
  std::uint64_t policy_steps = 0;  ///< periods in policy cells
  double skipped = 0.0;            ///< skipped periods in policy cells
  double saving_weighted = 0.0;    ///< sum of per-episode savings
  std::uint64_t saving_n = 0;
  std::uint64_t fault_steps = 0, degraded = 0, meas_dropped = 0, act_dropped = 0;
  bool safety_violation = false;
  std::vector<double> fingerprint;  ///< exact statistics, for determinism

  double periods_per_s() const { return static_cast<double>(periods) / wall_s; }
  double skip_ratio() const { return skipped / static_cast<double>(policy_steps); }
  double kappa_share() const {
    return (static_cast<double>(policy_steps) - skipped) / static_cast<double>(policy_steps);
  }
  double saving_pct() const { return 100.0 * saving_weighted / static_cast<double>(saving_n); }
};

void fold(Totals& t, const oic::mc::PolicyStats& ps, bool policy_cell) {
  t.fault_steps += ps.steps;
  t.degraded += ps.degraded_steps;
  t.meas_dropped += ps.meas_dropped;
  t.act_dropped += ps.act_dropped;
  t.fingerprint.push_back(ps.cost.mean());
  t.fingerprint.push_back(static_cast<double>(ps.left_x_episodes));
  t.fingerprint.push_back(static_cast<double>(ps.degraded_steps));
  if (!policy_cell) return;
  const double n = static_cast<double>(ps.skipped.count());
  t.skipped += ps.skipped.mean() * n;
  t.policy_steps += ps.episodes * kSteps;
  t.saving_weighted += ps.saving.mean() * static_cast<double>(ps.saving.count());
  t.saving_n += ps.saving.count();
  t.fingerprint.push_back(ps.saving.mean());
  t.fingerprint.push_back(ps.skipped.mean());
}

/// One full campaign: one mc::run_campaign per plant (a DRL agent pins
/// its campaign to the plant it was trained on).  Calibration timings
/// bracket every call, so host-speed changes are scaled out call by call.
Totals run_once(const oic::eval::ScenarioRegistry& reg, const Fleet& fleet,
                const Plan& plan, std::uint64_t seed, std::size_t workers,
                CaseClock* clock) {
  Totals t;
  double cal = calibration_s();
  for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
    oic::mc::CampaignSpec spec;
    spec.plants = {fleet.ids[i]};
    spec.families = {kFamily};
    spec.policies = policy_specs(fleet, i);
    spec.episodes = plan.episodes;
    spec.steps = kSteps;
    spec.seed = plant_seed(seed, i);
    spec.workers = workers;
    spec.block = plan.block;
    spec.faults = plan.faults;
    if (clock) clock->next_epoch();
    const double cpu0 = self_cpu_s();
    const oic::mc::CampaignResult r = oic::mc::run_campaign(reg, spec);
    const double cpu_s = self_cpu_s() - cpu0;
    const double cal_after = calibration_s();
    const double slow = host_slowness(cal, cal_after);
    cal = cal_after;
    t.wall_s += r.wall_s;
    t.ref_cpu_s += cpu_s / slow;
    t.ref_wall_s += r.wall_s / slow;
    t.periods += r.total_steps;
    t.episodes += r.episodes_run;
    t.safety_violation = t.safety_violation || r.safety_violations;
    for (const auto& cell : r.cells) {
      fold(t, cell.baseline, false);
      for (const auto& ps : cell.policies) fold(t, ps, true);
    }
  }
  return t;
}

bool same_result(const EpisodeResult& a, const EpisodeResult& b) {
  return std::memcmp(&a.fuel, &b.fuel, sizeof(double)) == 0 &&
         std::memcmp(&a.energy, &b.energy, sizeof(double)) == 0 &&
         a.skipped == b.skipped && a.forced == b.forced && a.steps == b.steps &&
         a.left_x == b.left_x && a.left_xi == b.left_xi &&
         a.degraded_steps == b.degraded_steps && a.stale_forced == b.stale_forced &&
         a.policy_unavail == b.policy_unavail && a.meas_dropped == b.meas_dropped &&
         a.act_dropped == b.act_dropped;
}

/// The traced harness pass (see file comment): adds its checks and
/// per-layer metrics to `out`.
void traced_pass(const Args& args, const Fleet& fleet, const Plan& plan, Outcome& out) {
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  const oic::fault::FaultSpec faults = builtin.resolve_faults(plan.faults);
  const bool faulted = faults.active();
  Tracer tracer;
  double traced_us = 0.0, plain_us = 0.0;
  std::uint64_t unit = 0;

  for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
    const oic::eval::PlantCase& plant = *fleet.plants[i];
    const oic::mc::ScenarioFamily family =
        oic::mc::family_by_id(builtin.plant(fleet.ids[i]).signal_band, kFamily);
    std::vector<std::string> specs = {"always-run"};
    for (const auto& s : policy_specs(fleet, i)) specs.push_back(s);

    // Reference engines (the untraced campaign's episode path) and the two
    // harness plants: one plain (tracing overhead baseline), one traced.
    std::vector<std::unique_ptr<oic::core::SkipPolicy>> engine_policies, plain_policies;
    std::vector<std::unique_ptr<TimedPolicy>> timed_policies;
    std::vector<std::unique_ptr<oic::eval::EpisodeEngine>> engines;
    for (const auto& s : specs) {
      const bool drl = oic::eval::parse_policy_spec(s).kind ==
                       oic::eval::PolicySpec::Kind::kDrl;
      engine_policies.push_back(oic::eval::make_policy(s));
      plain_policies.push_back(oic::eval::make_policy(s));
      timed_policies.push_back(
          std::make_unique<TimedPolicy>(oic::eval::make_policy(s), &tracer, drl));
      engines.push_back(std::make_unique<oic::eval::EpisodeEngine>(
          plant, *engine_policies.back(), faults));
    }
    ProxyPlant plain(plant, nullptr, nullptr);
    ProxyPlant traced(plant, &tracer, nullptr);

    // Cases exactly as the campaign draws them: episode e of the plant's
    // single cell (cell index 0) of the untraced run.
    const std::uint64_t cell_seed = oic::derive_stream(plant_seed(args.seed, i), 0);
    for (std::size_t e = 0; e < plan.traced_cases; ++e) {
      oic::Rng rng(oic::derive_stream(cell_seed, e));
      const oic::eval::Scenario scenario = family.sample(rng);
      const oic::eval::CaseData data =
          oic::eval::make_case(plant, scenario, rng, kSteps, faulted);
      for (std::size_t p = 0; p < specs.size(); ++p) {
        const EpisodeResult ref = engines[p]->run(data);

        auto t0 = Clock::now();
        const EpisodeResult r_plain =
            oic::eval::run_episode(plain, *plain_policies[p], data, faults);
        plain_us += 1e6 * seconds_between(t0, Clock::now());

        TimedPolicy& tp = *timed_policies[p];
        tp.reset_calls();
        traced.timed_rmpc()->reset_calls();
        tracer.set_unit_drl(p == specs.size() - 1);
        const double u0 = tracer.now_us();
        tracer.begin_unit(unit++, u0);
        const EpisodeResult r = oic::eval::run_episode(traced, tp, data, faults);
        const double u1 = tracer.now_us();
        tracer.end_unit(u1);
        traced_us += u1 - u0;

        const std::string where = fleet.ids[i] + "/" + specs[p] + " case " + std::to_string(e);
        out.check(same_result(r, ref) && same_result(r_plain, ref),
                  "traced episode differs from EpisodeEngine: " + where);
        out.check(!r.left_x, "episode left X: " + where);
        // Seam guards: kappa runs exactly on controller-run periods, and
        // Omega exactly on monitor-consulted ones (a burst continuation
        // consults nobody, so burst policies get the certified bounds).
        out.check(traced.timed_rmpc()->calls() == r.steps - r.skipped,
                  "kappa seam bypassed (calls != controller-run periods): " + where);
        const std::uint64_t open = r.steps - r.forced - r.policy_unavail;
        const std::size_t depth = tp.burst_depth();
        const bool policy_ok =
            depth == 0 ? tp.calls() == open
                       : tp.calls() <= open && tp.calls() * depth >= open;
        out.check(policy_ok, "policy seam bypassed (calls != consulted periods): " + where);
      }
    }
  }

  const Tracer::Stats& s = tracer.stats();
  out.check(s.nesting_violations == 0, "trace: stages overlap or leave their period");
  const double stage_sum = s.mpc_sum + s.policy_sum + s.hooks_sum + s.self_sum;
  const double gap_pct = 100.0 * std::fabs(stage_sum - s.period_sum) / s.period_sum;
  out.check(gap_pct < 1e-6, "trace: stage sums do not reconcile with period time");
  // Under a delivery delay the monitor never has a fresh measurement, so
  // Omega is legitimately never consulted on the faulted path.
  out.check(s.periods > 0 && s.mpc_calls > 0 && (faulted || s.drl_calls > 0),
            "trace: no periods, kappa calls or DRL calls recorded");

  out.metric("control.mpc_us.p50", quantile(s.mpc_call_us, 0.5), "us");
  out.metric("control.mpc_us.p99", quantile(s.mpc_call_us, 0.99), "us");
  out.metric("control.mpc_per_period",
             static_cast<double>(s.mpc_calls) / static_cast<double>(s.periods), "ratio");
  out.metric("core.policy_us.p50", quantile(s.drl_call_us, 0.5), "us");
  out.metric("core.policy_per_period",
             s.drl_periods ? static_cast<double>(s.drl_calls) / static_cast<double>(s.drl_periods)
                           : 0.0,
             "ratio");
  out.metric("core.monitor_self_us.p50", quantile(s.self_us, 0.5), "us");
  out.metric("eval.hooks_us.p50", quantile(s.hooks_us, 0.5), "us");
  out.metric("core.period_us.p50", quantile(s.period_us, 0.5), "us");
  out.metric("core.period_us.p99", quantile(s.period_us, 0.99), "us");
  out.metric("eval.episode_setup_us", quantile(s.unit_setup_us, 0.5), "us");
  out.metric("trace.overhead_pct", 100.0 * (traced_us - plain_us) / plain_us, "%");
  out.metric("trace.stage_gap_pct", gap_pct, "%");
  tracer.write(args.work_dir + "/trace-" + args.workload + ".spans");
}

}  // namespace

void campaign_workload(const Args& args, Outcome& out, bool lossy) {
  const Plan plan = make_plan(args, lossy);

  std::vector<SetupTimes> setups;
  Fleet fleet;
  for (int r = 0; r < kSetupReps; ++r) {
    const double cal0 = calibration_s();
    fleet = make_fleet(args.work_dir + "/setup", /*with_agents=*/true);
    setups.push_back(at_reference_speed(times_of(fleet), cal0, calibration_s()));
  }
  const SetupTimes setup = median_setup(setups);

  CaseClock clock;
  const oic::eval::ScenarioRegistry reg =
      proxy_registry(fleet.ids, fleet.plant_ptrs(), &clock);

  // Warm-up campaign (untimed; first-touch page faults, lazy LP builds),
  // then repetitions until the measuring time is spent.
  const Totals first = run_once(reg, fleet, plan, args.seed, kMeasureWorkers, nullptr);
  std::vector<double> pps, cpu_us, raw_pps;
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.seconds);
  do {
    const Totals t = run_once(reg, fleet, plan, args.seed, kMeasureWorkers, &clock);
    pps.push_back(static_cast<double>(t.periods) / t.ref_wall_s);
    raw_pps.push_back(t.periods_per_s());
    cpu_us.push_back(1e6 * t.ref_cpu_s / static_cast<double>(t.periods));
    out.check(!t.safety_violation, "campaign episode left the safe set", t.episodes);
    out.check(t.fingerprint == first.fingerprint,
              "campaign statistics differ between identical repetitions");
  } while (Clock::now() < t_end);
  out.check(!first.safety_violation, "campaign episode left the safe set", first.episodes);
  const std::vector<double> case_ms = clock.durations_ms();

  if (!args.trace) {
    out.metric("setup_s", setup.total_s, "s");
    out.metric("periods_per_s", median_of(pps), "1/s");
    out.metric("kappa_share", first.kappa_share(), "ratio");
    out.metric("cpu_us_per_period", median_of(cpu_us), "us");
    out.metric("rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  out.metric("mc.case_ms.p50", quantile(case_ms, 0.5), "ms");
  out.metric("mc.case_ms.p99", quantile(case_ms, 0.99), "ms");

  out.metric("cert.synth_ms", setup.synth_ms, "ms");
  out.metric("eval.plant_build_ms", setup.build_ms, "ms");
  out.metric("train.agent_prep_ms", setup.agent_ms, "ms");
  out.metric("mc.saving_pct", first.saving_pct(), "%");
  out.metric("core.skip_ratio", first.skip_ratio(), "ratio");
  const double steps = static_cast<double>(first.fault_steps);
  out.metric("fault.degraded_share", steps > 0 ? first.degraded / steps : 0.0, "ratio");
  out.metric("fault.meas_drop_share", steps > 0 ? first.meas_dropped / steps : 0.0, "ratio");
  out.metric("fault.act_drop_share", steps > 0 ? first.act_dropped / steps : 0.0, "ratio");

  // Parallel efficiency: the same campaign at kWorkers against the
  // measured single-worker repetitions (both unscaled wall time).
  const Totals wide = run_once(reg, fleet, plan, args.seed, kWorkers, nullptr);
  out.check(wide.fingerprint == first.fingerprint,
            "campaign statistics depend on the worker count");
  out.metric("mc.efficiency",
             wide.periods_per_s() / (static_cast<double>(kWorkers) * median_of(raw_pps)),
             "ratio");

  traced_pass(args, fleet, plan, out);
}

}  // namespace perfbench
