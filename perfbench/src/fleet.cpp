#include "fleet.hpp"

#include <filesystem>

#include "eval/registry.hpp"
#include "rl/serialize.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace {

/// Agent preparation budget: enough training for a non-trivial network,
/// small enough that set-up stays a fraction of a run.
oic::train::TrainerConfig agent_config(std::size_t plant_index) {
  oic::train::TrainerConfig cfg;
  cfg.episodes = 10;
  cfg.steps_per_episode = 100;
  cfg.seed = 20200607 + plant_index;
  cfg.dqn.min_replay = 200;
  return cfg;
}

double ms_since(Clock::time_point t0) {
  return 1e3 * seconds_between(t0, Clock::now());
}

}  // namespace

std::vector<const oic::eval::PlantCase*> Fleet::plant_ptrs() const {
  std::vector<const oic::eval::PlantCase*> out;
  for (const auto& p : plants) out.push_back(p.get());
  return out;
}

Fleet make_fleet(const std::string& dir, bool with_agents) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const auto t0 = Clock::now();
  fresh_dir(dir);
  Fleet f;
  f.ids = reg.production_plant_ids();
  f.cert_dir = std::filesystem::absolute(dir + "/certs").string();
  f.store = std::make_unique<oic::cert::Store>(f.cert_dir);

  auto t = Clock::now();
  for (const auto& id : f.ids) (void)f.store->get(reg.make_model(id));
  f.synth_ms = ms_since(t);

  t = Clock::now();
  for (const auto& id : f.ids) f.plants.push_back(reg.make_plant(id, f.store->provider()));
  f.build_ms = ms_since(t);

  if (with_agents) {
    t = Clock::now();
    std::filesystem::create_directories(dir + "/agents");
    for (std::size_t i = 0; i < f.ids.size(); ++i) {
      const oic::eval::PlantInfo& info = reg.plant(f.ids[i]);
      const oic::eval::Scenario scenario = info.make_scenario(info.scenario_ids.front());
      const oic::train::TrainedAgent agent =
          oic::train::Trainer(*f.plants[i], agent_config(i)).train(scenario);
      const std::string path =
          std::filesystem::absolute(dir + "/agents/" + f.ids[i] + ".agent").string();
      oic::rl::save_agent_file(agent.snapshot(), path);
      f.agent_paths.push_back(path);
    }
    f.agent_ms = ms_since(t);
  }
  f.total_s = seconds_between(t0, Clock::now());
  return f;
}

SetupTimes median_setup(const std::vector<SetupTimes>& runs) {
  std::vector<double> total, synth, build, agent;
  for (const auto& r : runs) {
    total.push_back(r.total_s);
    synth.push_back(r.synth_ms);
    build.push_back(r.build_ms);
    agent.push_back(r.agent_ms);
  }
  return {median_of(total), median_of(synth), median_of(build), median_of(agent)};
}

}  // namespace perfbench
