/// \file oic_train.cpp
/// Training driver over the plant/scenario registry -- the offline half of
/// the paper's pipeline, CLI-shaped like oic_eval:
///
///   oic_train --plant lane-keep --scenario sine --episodes 200 --out agents/
///
/// Trains a DQN skipping agent per (plant, scenario, seed) grid cell
/// through train_grid_parallel (bit-identical to serial at any worker
/// count), serializes each agent via rl/serialize, and prints a per-job
/// summary; --json writes the machine-readable document (bench schema
/// family).  Serialized agents deploy straight into the evaluation side:
///
///   oic_eval --plant lane-keep --policies drl:agents/lane-keep__sine__seedN.agent
///
/// Flags (--key value and --key=value are both accepted):
///   --plant/--plants a,b     plants to train on        (default: all)
///   --scenario/--scenarios   scenario ids              (default: all per plant)
///   --seed/--seeds a,b       training seeds            (default 20200607)
///   --episodes N             training episodes per job (default 200)
///   --steps N                steps per episode         (default 100)
///   --memory N               disturbance memory r      (default 2)
///   --energy cost|kappa      R2 energy mode            (default cost)
///   --workers N              grid workers, 0 = auto    (default 0)
///   --cert-dir DIR           certificate cache (cert::Store) for the
///                            per-worker plant builds
///   --out DIR                agent output directory    (default .)
///   --json PATH              write the JSON document
///   --list                   list plants/scenarios and exit
///
/// Exit status: 0 on a clean grid, 1 on training-time safety violations
/// (Theorem 1: must never happen) or bad usage.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "rl/serialize.hpp"
#include "train/grid.hpp"

namespace {

using oic::cliutil::Args;
using oic::cliutil::print_registry;
using oic::cliutil::split_list;
using oic::eval::ScenarioRegistry;
using oic::train::tail_mean;
using oic::train::TrainGridResult;
using oic::train::TrainGridSpec;
using oic::train::TrainJob;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();

  if (args.flag("help")) {
    std::printf(
        "usage: oic_train [--plant a,b] [--scenario a,b] [--seeds a,b]\n"
        "                 [--episodes N] [--steps N] [--memory N]\n"
        "                 [--energy cost|kappa] [--workers N] [--cert-dir DIR]\n"
        "                 [--out DIR] [--json PATH] [--list]\n");
    print_registry(registry);
    return 0;
  }
  if (args.flag("list")) {
    print_registry(registry);
    return 0;
  }

  TrainGridSpec spec;
  std::string v;
  if (args.value("plant", v) || args.value("plants", v)) spec.plants = split_list(v);
  if (args.value("scenario", v) || args.value("scenarios", v)) {
    spec.scenarios = split_list(v);
  }
  if (!oic::cliutil::count_flag(args, "oic_train", "episodes",
                                spec.trainer.episodes) ||
      !oic::cliutil::count_flag(args, "oic_train", "steps",
                                spec.trainer.steps_per_episode) ||
      !oic::cliutil::count_flag(args, "oic_train", "memory", spec.trainer.memory)) {
    return 1;
  }
  if (args.value("energy", v)) {
    if (v == "cost") {
      spec.trainer.energy_mode = oic::train::EnergyMode::kCost;
    } else if (v == "kappa") {
      spec.trainer.energy_mode = oic::train::EnergyMode::kKappaNorm;
    } else {
      std::fprintf(stderr, "oic_train: --energy expects cost|kappa, got '%s'\n",
                   v.c_str());
      return 1;
    }
  }
  oic::cliutil::CommonOpts common;
  oic::cliutil::CommonFlagSet accept;
  accept.faults = false;  // training has no network fault model
  if (!oic::cliutil::parse_common(args, "oic_train", common, accept)) return 1;
  if (!common.seeds.empty()) spec.seeds = common.seeds;
  spec.workers = common.workers;
  spec.cert_dir = common.cert_dir;
  std::string out_dir = ".";
  (void)args.value("out", out_dir);

  if (!oic::cliutil::reject_unknown(args, "oic_train")) return 1;

  try {
    const std::vector<TrainJob> jobs = oic::train::expand_jobs(registry, spec);
    // Create/validate the agent directory BEFORE spending minutes training:
    // a missing --out must not discard a finished grid.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec || !std::filesystem::is_directory(out_dir)) {
      std::fprintf(stderr, "oic_train: cannot create output directory '%s'\n",
                   out_dir.c_str());
      return 1;
    }
    std::printf("=== oic_train grid ===\n");
    std::printf("jobs=%zu episodes=%zu steps=%zu memory=%zu workers=%zu out=%s\n",
                jobs.size(), spec.trainer.episodes, spec.trainer.steps_per_episode,
                spec.trainer.memory, spec.workers, out_dir.c_str());

    const TrainGridResult result = oic::train::train_grid_parallel(
        registry, jobs, spec.trainer, spec.workers, spec.cert_dir);

    std::vector<std::string> agent_paths;
    agent_paths.reserve(jobs.size());
    for (const auto& r : result.results) {
      const std::string path = out_dir + "/" + oic::train::agent_filename(r.job);
      oic::rl::save_agent_file(r.agent.snapshot(), path);
      agent_paths.push_back(path);
    }

    std::printf("\n%-10s %-10s %-12s %12s %12s %8s %5s\n", "plant", "scenario", "seed",
                "reward", "skip-ratio", "wall[s]", "safe");
    for (const auto& r : result.results) {
      std::printf("%-10s %-10s %-12llu %12.5f %12.3f %8.2f %5s\n", r.job.plant.c_str(),
                  r.job.scenario.c_str(), static_cast<unsigned long long>(r.job.seed),
                  tail_mean(r.log.episode_reward), tail_mean(r.log.episode_skip_ratio),
                  r.wall_s, r.log.left_x ? "NO!" : "yes");
    }
    std::printf("\ngrid: %zu jobs, %.2f s wall; agents written to %s\n",
                result.results.size(), result.wall_s, out_dir.c_str());
    std::printf("safety violations during training: %s (Theorem 1: must be none)\n",
                result.safety_violations ? "YES (BUG!)" : "none");

    if (common.write_json &&
        !oic::cliutil::write_json_file(
            "oic_train", common.json_path,
            oic::train::grid_json(spec, jobs, result, agent_paths))) {
      return 1;
    }
    return result.safety_violations ? 1 : 0;
  } catch (const oic::Error& e) {
    std::fprintf(stderr, "oic_train: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything escaping the oic::Error hierarchy (bad_alloc, filesystem
    // errors, ...) must still die with a diagnosable message and a
    // nonzero exit, never a raw terminate().
    std::fprintf(stderr, "oic_train: unexpected error: %s\n", e.what());
    return 1;
  }
}
