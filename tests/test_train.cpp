// Tests for the plant-generic training layer (src/train): golden parity
// with the pre-lift ACC trainer, serial/parallel grid bit-identity, agent
// serialization round-trips, the drl:<path> policy spec, and end-to-end
// train -> serialize -> evaluate safety on the non-ACC plants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/drl_policy.hpp"
#include "core/w_history.hpp"
#include "eval/registry.hpp"
#include "eval/sweep.hpp"
#include "rl/serialize.hpp"
#include "train/grid.hpp"
#include "train/trainer.hpp"

namespace {

using oic::Rng;
using oic::linalg::Vector;
using oic::eval::ScenarioRegistry;

oic::acc::AccCase& shared_acc() {
  static oic::acc::AccCase acc;
  return acc;
}

/// Trainer configuration small enough for a test but large enough that the
/// DQN actually performs gradient updates.
oic::train::TrainerConfig small_cfg() {
  oic::train::TrainerConfig cfg;
  cfg.episodes = 8;
  cfg.steps_per_episode = 50;
  cfg.seed = 11;
  cfg.dqn.hidden = {16, 16};
  cfg.dqn.min_replay = 100;
  cfg.dqn.batch_size = 16;
  return cfg;
}

bool same_mlp(const oic::rl::Mlp& a, const oic::rl::Mlp& b) {
  if (a.sizes() != b.sizes()) return false;
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    for (std::size_t i = 0; i < a.weight(l).rows(); ++i) {
      for (std::size_t j = 0; j < a.weight(l).cols(); ++j) {
        if (a.weight(l)(i, j) != b.weight(l)(i, j)) return false;
      }
    }
    for (std::size_t i = 0; i < a.bias(l).size(); ++i) {
      if (a.bias(l)[i] != b.bias(l)[i]) return false;
    }
  }
  return true;
}

/// FNV-1a over the bit patterns of a trained agent and its training log:
/// online and target weights and biases layer by layer, the update count,
/// then the three per-episode log series in order.
std::uint64_t trained_hash(const oic::train::TrainedAgent& trained,
                           const oic::train::TrainingLog& log) {
  oic::Fnv1a h;
  for (const oic::rl::Mlp* net : {&trained.agent->online(), &trained.agent->target()}) {
    for (std::size_t l = 0; l < net->num_layers(); ++l) {
      const oic::linalg::Matrix& w = net->weight(l);
      for (std::size_t k = 0; k < w.rows() * w.cols(); ++k) h.f64(w.data()[k]);
      for (double b : net->bias(l)) h.f64(b);
    }
  }
  h.u64(trained.agent->train_steps());
  for (const auto* series :
       {&log.episode_reward, &log.episode_skip_ratio, &log.episode_energy}) {
    h.u64(series->size());
    for (double v : *series) h.f64(v);
  }
  return h.value();
}

/// trained_hash of the pre-lift replica below on small_cfg() under the ACC
/// Fig.4 scenario, captured while the replica still ran the (since deleted)
/// per-sample DQN update: the golden the generic Trainer must reproduce.
constexpr std::uint64_t kPreLiftAccAgentHash = 0x84fa756ff2cec306ull;

// ------------------------------------------------------------ golden parity

/// Verbatim replica of the pre-lift acc::train_dqn loop (src/acc/trainer.cpp
/// before the src/train lift), kept here as the golden reference: the
/// ACC-specific calls (fuel_step / delta, w_from_vf).  The original ran the
/// per-sample DQN update, since deleted; kPreLiftAccAgentHash pins what it
/// produced.  The generic Trainer must reproduce its agent and log bit for
/// bit.
oic::train::TrainedAgent legacy_acc_train_dqn(oic::acc::AccCase& acc,
                                              const oic::acc::Scenario& scenario,
                                              const oic::train::TrainerConfig& cfg,
                                              oic::train::TrainingLog* log) {
  namespace core = oic::core;
  namespace rl = oic::rl;
  const std::size_t nx = acc.system().nx();
  const std::size_t state_dim = core::drl_state_dim(nx, nx, cfg.memory);
  const Vector scale = core::drl_state_scale(acc.system(), cfg.memory);

  Rng master(cfg.seed);
  rl::DqnConfig dqn_cfg = cfg.dqn;
  const std::size_t budget = cfg.episodes * cfg.steps_per_episode;
  dqn_cfg.epsilon_decay_steps =
      std::max<std::size_t>(500, std::min(dqn_cfg.epsilon_decay_steps, budget * 6 / 10));
  auto agent = std::make_shared<rl::DoubleDqn>(state_dim, 2, dqn_cfg, master.split());

  const auto& sets = acc.sets();
  const Vector u_skip = acc.u_skip();

  for (std::size_t ep = 0; ep < cfg.episodes; ++ep) {
    Rng ep_rng = master.split();
    acc.rmpc().reset_solver();
    Vector x = acc.sample_x0(ep_rng);
    auto profile = scenario.profile->clone();
    profile->reset(ep_rng.split());

    core::WHistory w_history(cfg.memory);
    double ep_reward = 0.0;
    double ep_energy = 0.0;
    std::size_t ep_skips = 0;

    for (std::size_t t = 0; t < cfg.steps_per_episode; ++t) {
      const Vector s1 = core::apply_state_scale(
          core::build_drl_state(x, w_history, cfg.memory, nx), scale);
      const bool in_xprime = sets.x_prime.contains(x);

      const int desired = agent->select_action(s1);
      const int z = in_xprime ? desired : 1;

      Vector u;
      double kappa_energy = 0.0;
      if (z == 1) {
        u = acc.rmpc().control(x);
        kappa_energy = cfg.energy_mode == oic::train::EnergyMode::kCost
                           ? acc.fuel_step(x, u) / acc.params().delta
                           : acc.energy_raw(u);
      } else {
        u = u_skip;
        ++ep_skips;
      }
      ep_energy += acc.energy_raw(u);

      const double vf = profile->next();
      const Vector w{acc.w_from_vf(vf)};
      const Vector x_next = acc.system().step(x, u, w);

      const Vector ew =
          x_next - acc.system().a() * x - acc.system().b() * u - acc.system().c();
      w_history.push(ew);

      const double reward =
          core::skipping_reward(sets, x, z, x_next, kappa_energy, cfg.w1, cfg.w2);
      ep_reward += reward;

      const Vector s2 = core::apply_state_scale(
          core::build_drl_state(x_next, w_history, cfg.memory, nx), scale);
      rl::Transition tr;
      tr.state = s1;
      tr.action = z;
      tr.reward = reward;
      tr.next_state = s2;
      tr.terminal = false;
      agent->observe(std::move(tr));

      x = x_next;
    }

    if (log != nullptr) {
      log->episode_reward.push_back(ep_reward);
      log->episode_skip_ratio.push_back(static_cast<double>(ep_skips) /
                                        static_cast<double>(cfg.steps_per_episode));
      log->episode_energy.push_back(ep_energy);
    }
  }
  oic::train::TrainedAgent out;
  out.agent = agent;
  out.state_scale = scale;
  out.memory = cfg.memory;
  out.plant = "acc";
  return out;
}

TEST(TrainerGolden, GenericTrainerReproducesPreLiftAccAgentBitwise) {
  auto& acc = shared_acc();
  const auto scen = oic::acc::fig4_scenario(acc.params());
  const auto cfg = small_cfg();

  oic::train::TrainingLog legacy_log;
  const auto legacy = legacy_acc_train_dqn(acc, scen, cfg, &legacy_log);
  ASSERT_GT(legacy.agent->train_steps(), 0u);  // the budget must train

  // Bitwise agreement with the replica pins the plant-genericity lift;
  // the hash pins the batched DQN update against the per-sample update
  // the replica ran when the constant was captured.
  oic::train::TrainingLog lifted_log;
  const auto lifted = oic::train::train_dqn(acc, scen, cfg, &lifted_log);

  EXPECT_TRUE(same_mlp(legacy.agent->online(), lifted.agent->online()));
  EXPECT_TRUE(same_mlp(legacy.agent->target(), lifted.agent->target()));
  EXPECT_EQ(legacy.agent->train_steps(), lifted.agent->train_steps());
  EXPECT_EQ(legacy_log.episode_reward, lifted_log.episode_reward);
  EXPECT_EQ(legacy_log.episode_skip_ratio, lifted_log.episode_skip_ratio);
  EXPECT_EQ(legacy_log.episode_energy, lifted_log.episode_energy);
  EXPECT_FALSE(lifted_log.left_x);
  for (std::size_t i = 0; i < legacy.state_scale.size(); ++i) {
    EXPECT_EQ(legacy.state_scale[i], lifted.state_scale[i]);
  }
  EXPECT_EQ(lifted.plant, "acc");
  EXPECT_EQ(trained_hash(legacy, legacy_log), kPreLiftAccAgentHash)
      << "hash 0x" << std::hex << trained_hash(legacy, legacy_log);
  EXPECT_EQ(trained_hash(lifted, lifted_log), kPreLiftAccAgentHash)
      << "hash 0x" << std::hex << trained_hash(lifted, lifted_log);

  // The historical acc:: spelling is the same code path.
  static_assert(std::is_same_v<oic::train::TrainedAgent, oic::train::TrainedAgent>);
}

// ---------------------------------------------------------------- grid

TEST(TrainGrid, ParallelBitIdenticalToSerialAtAnyWorkerCount) {
  const auto& reg = ScenarioRegistry::builtin();
  std::vector<oic::train::TrainJob> jobs = {
      {"lane-keep", "sine", 3}, {"lane-keep", "white", 4}, {"lane-keep", "sine", 5}};
  oic::train::TrainerConfig cfg = small_cfg();
  cfg.episodes = 4;
  cfg.steps_per_episode = 30;

  const auto serial = oic::train::train_grid_parallel(reg, jobs, cfg, 1);
  const auto parallel = oic::train::train_grid_parallel(reg, jobs, cfg, 3);
  ASSERT_EQ(serial.results.size(), jobs.size());
  ASSERT_EQ(parallel.results.size(), jobs.size());
  EXPECT_FALSE(serial.safety_violations);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_TRUE(same_mlp(serial.results[j].agent.agent->online(),
                         parallel.results[j].agent.agent->online()))
        << "job " << j;
    EXPECT_EQ(serial.results[j].log.episode_reward,
              parallel.results[j].log.episode_reward)
        << "job " << j;
  }
  // Same-seed same-scenario jobs agree; a different seed trains differently.
  EXPECT_FALSE(same_mlp(serial.results[0].agent.agent->online(),
                        serial.results[2].agent.agent->online()));
}

TEST(TrainGrid, ExpandValidatesAndIntersects) {
  const auto& reg = ScenarioRegistry::builtin();
  oic::train::TrainGridSpec spec;
  // lane-keep, quad-alt, and toy2d list "white"; the ACC does not.
  spec.scenarios = {"white"};
  spec.seeds = {1, 2};
  const auto jobs = oic::train::expand_jobs(reg, spec);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].plant, "lane-keep");
  EXPECT_EQ(jobs[2].plant, "quad-alt");
  EXPECT_EQ(jobs[4].plant, "toy2d");

  spec.plants = {"acc"};
  EXPECT_THROW(oic::train::expand_jobs(reg, spec), oic::PreconditionError);
  spec.plants = {"submarine"};
  spec.scenarios = {};
  EXPECT_THROW(oic::train::expand_jobs(reg, spec), oic::PreconditionError);

  EXPECT_EQ(oic::train::agent_filename({"lane-keep", "sine", 7}),
            "lane-keep__sine__seed7.agent");
}

// ------------------------------------------------------- serialize + deploy

TEST(AgentSnapshot, RoundTripsThroughFileAndDrlPolicySpec) {
  const auto& reg = ScenarioRegistry::builtin();
  const auto plant = reg.make_plant("lane-keep");
  const auto scen = reg.make_scenario("lane-keep", "sine");
  oic::train::TrainerConfig cfg = small_cfg();
  cfg.episodes = 4;
  cfg.steps_per_episode = 30;
  const auto trained = oic::train::train_dqn(*plant, scen, cfg);

  const std::string path = ::testing::TempDir() + "lane_keep_sine.agent";
  oic::rl::save_agent_file(trained.snapshot(), path);
  const auto snap = oic::rl::load_agent_file(path);
  EXPECT_EQ(snap.plant, "lane-keep");
  EXPECT_EQ(snap.memory, cfg.memory);
  EXPECT_TRUE(same_mlp(snap.net, trained.agent->online()));
  for (std::size_t i = 0; i < snap.state_scale.size(); ++i) {
    EXPECT_EQ(snap.state_scale[i], trained.state_scale[i]);
  }

  // from_snapshot rebuilds a deployable agent with identical decisions.
  const auto rebuilt = oic::train::TrainedAgent::from_snapshot(snap);
  auto policy_a = trained.make_policy();
  auto policy_b = rebuilt.make_policy();
  auto policy_c = oic::eval::make_policy("drl:" + path);
  EXPECT_EQ(policy_c->name(), "drl:" + path);
  Rng rng(5);
  oic::core::WHistory hist(cfg.memory);
  for (int i = 0; i < 50; ++i) {
    Vector x(2);
    x[0] = rng.uniform(-0.5, 0.5);
    x[1] = rng.uniform(-0.5, 0.5);
    Vector w(2);
    w[0] = rng.uniform(-0.2, 0.2);
    w[1] = rng.uniform(-0.2, 0.2);
    hist.push(w);
    const int za = policy_a->decide(x, hist);
    EXPECT_EQ(za, policy_b->decide(x, hist));
    EXPECT_EQ(za, policy_c->decide(x, hist));
  }

  std::remove(path.c_str());
}

TEST(PolicyFactory, DrlSpecRejectsMissingAndMalformed) {
  EXPECT_THROW(oic::eval::make_policy("drl:"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("drl:/nonexistent/agent.file"),
               oic::PreconditionError);
}

// --------------------------------------------- end-to-end on the new plants

TEST(TrainEval, TrainedAgentsSweepSafelyWithNonzeroSkipsOnNewPlants) {
  // The acceptance loop: train on a registry plant, serialize, sweep
  // through the oic_eval code path with --policies drl:<path>.  Must be
  // violation-free (Theorem 1) with a nonzero skip ratio on both non-ACC
  // plants.
  const auto& reg = ScenarioRegistry::builtin();
  for (const std::string pid : {"lane-keep", "quad-alt"}) {
    std::vector<oic::train::TrainJob> jobs = {{pid, "sine", 13}};
    oic::train::TrainerConfig cfg = small_cfg();
    cfg.episodes = 6;
    cfg.steps_per_episode = 40;
    const auto grid = oic::train::train_grid_parallel(reg, jobs, cfg, 1);
    ASSERT_FALSE(grid.safety_violations) << pid;

    const std::string path =
        ::testing::TempDir() + oic::train::agent_filename(jobs[0]);
    oic::rl::save_agent_file(grid.results[0].agent.snapshot(), path);

    oic::eval::SweepSpec spec;
    spec.plants = {pid};
    spec.scenarios = {"sine"};
    spec.policies = {"drl:" + path};
    spec.cases = 4;
    spec.steps = 40;
    spec.workers = 2;
    const auto result = oic::eval::run_sweep(reg, spec);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.safety_violations) << pid;
    const auto& r = result.cells[0].result;
    ASSERT_EQ(r.policy_names.size(), 1u);
    EXPECT_FALSE(r.any_violation[0]) << pid;
    EXPECT_GT(r.mean_skipped[0], 0.0) << pid;

    // Agents are plant-specific: deploying on any other plant is rejected
    // up front (before any plant is built), even though the state
    // dimensions happen to match across the 2-state plants.
    oic::eval::SweepSpec wrong = spec;
    wrong.plants = {pid == "lane-keep" ? "quad-alt" : "lane-keep"};
    EXPECT_THROW(oic::eval::run_sweep(reg, wrong), oic::PreconditionError) << pid;

    std::remove(path.c_str());
  }
}

}  // namespace
