/// \file train.cpp
/// `train`: a train::train_grid_parallel DQN grid over the production
/// plants -- one short job per (plant, seed), scenarios drawn from each
/// plant's catalogue by the run seed, on kMeasureWorkers workers.  Untraced
/// runs repeat the grid until
/// the measuring time is spent; every repetition must reproduce the first
/// one's learning curves bit for bit, and no training state may leave X.
/// Traced runs replay one job per plant through train::Trainer on a traced
/// proxy plant (kappa timed through plant.rmpc(), the trainer's seam).

#include <cmath>
#include <cstring>

#include "eval/registry.hpp"
#include "fleet.hpp"
#include "train/grid.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Plan {
  std::size_t seeds_per_plant = 0;
  oic::train::TrainerConfig trainer;
};

Plan make_plan(const Args& args) {
  Plan p;
  p.seeds_per_plant = args.quick ? 1 : 8;
  p.trainer.episodes = args.quick ? 2 : 3;
  p.trainer.steps_per_episode = 100;
  p.trainer.dqn.min_replay = 64;
  // Jobs hold at most episodes x steps transitions; a replay buffer sized
  // to them keeps page-fault work out of the update timing.
  p.trainer.dqn.replay_capacity = 1024;
  return p;
}

std::vector<oic::train::TrainJob> make_jobs(const Fleet& fleet, const Plan& plan,
                                            std::uint64_t seed) {
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  std::vector<oic::train::TrainJob> jobs;
  oic::Rng rng(oic::derive_stream(seed, 0x7a11));
  for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
    const auto& ids = builtin.plant(fleet.ids[i]).scenario_ids;
    for (std::size_t s = 0; s < plan.seeds_per_plant; ++s) {
      oic::train::TrainJob job;
      job.plant = fleet.ids[i];
      job.scenario = ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      job.seed = rng.engine()();
      jobs.push_back(job);
    }
  }
  return jobs;
}

bool same_curve(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct GridTotals {
  double ref_wall_s = 0.0;  ///< wall time at the reference host speed
  double ref_cpu_s = 0.0;   ///< CPU time at the reference host speed
  double periods = 0.0;
  double updates = 0.0;
  double skipped = 0.0;
  std::vector<double> job_ms;
  std::vector<oic::train::TrainJobResult> results;  ///< job order
};

/// The whole grid, one train_grid_parallel call per plant's jobs.
/// Calibration timings bracket every call, so host-speed changes are
/// scaled out call by call.
GridTotals run_grid(const oic::eval::ScenarioRegistry& reg,
                    const std::vector<oic::train::TrainJob>& jobs, const Plan& plan,
                    std::size_t workers) {
  GridTotals g;
  const double steps = static_cast<double>(plan.trainer.steps_per_episode);
  double cal = calibration_s();
  for (std::size_t b = 0; b < jobs.size(); b += plan.seeds_per_plant) {
    const auto first = jobs.begin() + static_cast<std::ptrdiff_t>(b);
    const std::vector<oic::train::TrainJob> part(
        first, first + static_cast<std::ptrdiff_t>(
                           std::min(plan.seeds_per_plant, jobs.size() - b)));
    const double cpu0 = self_cpu_s();
    oic::train::TrainGridResult r =
        oic::train::train_grid_parallel(reg, part, plan.trainer, workers);
    const double cpu_s = self_cpu_s() - cpu0;
    const double cal_after = calibration_s();
    const double slow = host_slowness(cal, cal_after);
    cal = cal_after;
    g.ref_wall_s += r.wall_s / slow;
    g.ref_cpu_s += cpu_s / slow;
    for (auto& jr : r.results) {
      g.job_ms.push_back(1e3 * jr.wall_s);
      g.updates += static_cast<double>(jr.agent.agent->train_steps());
      for (double ratio : jr.log.episode_skip_ratio) {
        g.periods += steps;
        g.skipped += std::round(ratio * steps);
      }
      g.results.push_back(std::move(jr));
    }
  }
  return g;
}

}  // namespace

void train_workload(const Args& args, Outcome& out) {
  const Plan plan = make_plan(args);

  std::vector<SetupTimes> setups;
  Fleet fleet;
  for (int r = 0; r < kSetupReps; ++r) {
    const double cal0 = calibration_s();
    fleet = make_fleet(args.work_dir + "/setup", /*with_agents=*/false);
    setups.push_back(at_reference_speed(times_of(fleet), cal0, calibration_s()));
  }
  const SetupTimes setup = median_setup(setups);
  const oic::eval::ScenarioRegistry reg =
      proxy_registry(fleet.ids, fleet.plant_ptrs(), nullptr);
  const std::vector<oic::train::TrainJob> jobs = make_jobs(fleet, plan, args.seed);

  const GridTotals first = run_grid(reg, jobs, plan, kMeasureWorkers);  // warm-up
  std::vector<double> pps, ups, cpu_us, job_ms;
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.seconds);
  do {
    const GridTotals g = run_grid(reg, jobs, plan, kMeasureWorkers);
    cpu_us.push_back(1e6 * g.ref_cpu_s / g.periods);
    pps.push_back(g.periods / g.ref_wall_s);
    ups.push_back(g.updates / g.ref_wall_s);
    job_ms.insert(job_ms.end(), g.job_ms.begin(), g.job_ms.end());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto& a = g.results[j].log;
      const auto& b = first.results[j].log;
      out.check(!a.left_x, "training state left X: job " + std::to_string(j));
      out.check(same_curve(a.episode_reward, b.episode_reward) &&
                    same_curve(a.episode_skip_ratio, b.episode_skip_ratio),
                "training differs between identical repetitions: job " +
                    std::to_string(j));
    }
  } while (Clock::now() < t_end);

  if (!args.trace) {
    out.metric("setup_s", setup.total_s, "s");
    out.metric("periods_per_s", median_of(pps), "1/s");
    out.metric("kappa_share", (first.periods - first.skipped) / first.periods, "ratio");
    out.metric("cpu_us_per_period", median_of(cpu_us), "us");
    out.metric("rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  out.metric("train.job_ms.p50", quantile(job_ms, 0.5), "ms");
  out.metric("train.job_ms.p99", quantile(job_ms, 0.99), "ms");
  out.metric("cert.synth_ms", setup.synth_ms, "ms");
  out.metric("eval.plant_build_ms", setup.build_ms, "ms");
  out.metric("train.updates_per_s", median_of(ups), "1/s");
  out.metric("core.skip_ratio", first.skipped / first.periods, "ratio");

  // Traced replay: the first job of every plant, serially, through a
  // Trainer on a traced proxy; the same job untraced gives the overhead.
  Tracer tracer;
  double traced_us = 0.0, plain_us = 0.0;
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  for (std::size_t j = 0; j < jobs.size(); j += plan.seeds_per_plant) {
    const oic::train::TrainJob& job = jobs[j];
    std::size_t i = 0;
    while (fleet.ids[i] != job.plant) ++i;
    const oic::eval::Scenario scenario = builtin.make_scenario(job.plant, job.scenario);
    oic::train::TrainerConfig cfg = plan.trainer;
    cfg.seed = job.seed;

    ProxyPlant plain(*fleet.plants[i], nullptr, nullptr);
    auto t0 = Clock::now();
    oic::train::TrainingLog plain_log;
    (void)oic::train::Trainer(plain, cfg).train(scenario, &plain_log);
    plain_us += 1e6 * seconds_between(t0, Clock::now());

    ProxyPlant traced(*fleet.plants[i], &tracer, nullptr);
    oic::train::TrainingLog log;
    const double u0 = tracer.now_us();
    tracer.begin_unit(j, u0);
    (void)oic::train::Trainer(traced, cfg).train(scenario, &log);
    const double u1 = tracer.now_us();
    tracer.end_unit(u1);
    traced_us += u1 - u0;

    const auto& ref = first.results[j].log;
    out.check(same_curve(log.episode_reward, ref.episode_reward) &&
                  same_curve(plain_log.episode_reward, ref.episode_reward),
              "traced training differs from the grid: job " + std::to_string(j));
    // Seam guard: the trainer runs kappa on exactly its executed z = 1
    // periods.
    double ran = 0.0;
    for (double ratio : log.episode_skip_ratio) {
      ran += cfg.steps_per_episode - std::round(ratio * cfg.steps_per_episode);
    }
    out.check(static_cast<double>(traced.timed_rmpc()->calls()) == ran,
              "kappa seam bypassed in training: job " + std::to_string(j));
  }

  const Tracer::Stats& s = tracer.stats();
  out.check(s.nesting_violations == 0, "trace: stages overlap or leave their period");
  const double stage_sum = s.mpc_sum + s.policy_sum + s.hooks_sum + s.self_sum;
  const double gap_pct = 100.0 * std::fabs(stage_sum - s.period_sum) / s.period_sum;
  out.check(gap_pct < 1e-6, "trace: stage sums do not reconcile with period time");
  const double periods = static_cast<double>(s.periods);
  out.metric("train.mpc_share", s.mpc_sum / s.period_sum, "ratio");
  out.metric("train.agent_us", (s.period_sum - s.mpc_sum) / periods, "us");
  out.metric("control.mpc_us.p50", quantile(s.mpc_call_us, 0.5), "us");
  out.metric("control.mpc_us.p99", quantile(s.mpc_call_us, 0.99), "us");
  out.metric("control.mpc_per_period", static_cast<double>(s.mpc_calls) / periods, "ratio");
  out.metric("eval.hooks_us.p50", quantile(s.hooks_us, 0.5), "us");
  out.metric("core.period_us.p50", quantile(s.period_us, 0.5), "us");
  out.metric("core.period_us.p99", quantile(s.period_us, 0.99), "us");
  out.metric("trace.overhead_pct", 100.0 * (traced_us - plain_us) / plain_us, "%");
  out.metric("trace.stage_gap_pct", gap_pct, "%");
  tracer.write(args.work_dir + "/trace-train.spans");
}

}  // namespace perfbench
