#pragma once
/// \file grid.hpp
/// The oic_train driver: train plant x scenario x seed grids of skipping
/// agents through the scenario registry, sharded over the common thread
/// pool, and serialize the results for the evaluation side.
///
/// Mirrors eval/sweep.hpp deliberately: jobs are resolved and validated up
/// front (a typo fails before any expensive plant build), each worker owns
/// its private plant instances (training drives the plant's RMPC), and the
/// job partition is a pure function of (jobs, workers) -- so a grid's
/// agents and logs are bit-identical to the serial run at any worker count.
///
/// The JSON document shares the tools' schema family (a "bench" tag, a
/// "config" object, "meta" build provenance, a final "safety_violations"
/// flag) so scripts/check_bench_json.py validates it like the others.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/registry.hpp"
#include "train/trainer.hpp"

namespace oic::train {

/// One training job.
struct TrainJob {
  std::string plant;     ///< registry plant id
  std::string scenario;  ///< scenario id listed by that plant
  std::uint64_t seed = 0;
};

/// Grid specification.  Empty plant / scenario lists mean "all registered"
/// (scenario ids intersect per plant, as in eval::SweepSpec).
struct TrainGridSpec {
  std::vector<std::string> plants;
  std::vector<std::string> scenarios;
  std::vector<std::uint64_t> seeds = {20200607};
  TrainerConfig trainer;    ///< per-job seed overrides trainer.seed
  std::size_t workers = 0;  ///< 0 = hardware concurrency, 1 = inline
  /// Certificate cache directory (cert::Store); empty = synthesize every
  /// worker's plants fresh.  Set, per-worker plant builds load cached
  /// `oic-cert v1` files (concurrent cold-cache misses are write-race-safe:
  /// identical bytes through a temp-file rename).
  std::string cert_dir;
};

/// Outcome of one job.
struct TrainJobResult {
  TrainJob job;
  TrainedAgent agent;
  TrainingLog log;
  double wall_s = 0.0;
};

/// Whole-grid outcome.
struct TrainGridResult {
  std::vector<TrainJobResult> results;
  double wall_s = 0.0;
  bool safety_violations = false;  ///< any training step left X (Thm 1: never)
};

/// Expand a spec into the concrete job list (validates ids against the
/// registry; throws PreconditionError on unknown ids or an empty grid).
std::vector<TrainJob> expand_jobs(const eval::ScenarioRegistry& registry,
                                  const TrainGridSpec& spec);

/// Train every job, sharded over the thread pool with per-worker plant
/// instances.  Agents and logs are bit-identical to workers = 1 for any
/// worker count (each job is self-contained and seeded by job.seed).
/// `cert_dir` (optional) caches plant certificates across workers and
/// process runs; loaded certificates are bit-identical to fresh synthesis,
/// so it cannot change any agent either.
TrainGridResult train_grid_parallel(const eval::ScenarioRegistry& registry,
                                    const std::vector<TrainJob>& jobs,
                                    const TrainerConfig& base, std::size_t workers,
                                    const std::string& cert_dir = "");

/// Canonical agent filename for a job: "<plant>__<scenario>__seed<seed>.agent".
std::string agent_filename(const TrainJob& job);

/// Mean of the final stretch of a learning curve (last 25 %, at least one
/// episode): the "converged" tail the summaries and the JSON report.
double tail_mean(const std::vector<double>& xs);

/// Render a finished grid as a JSON document (bench schema family; carries
/// per-job learning-curve tails and agent paths).
std::string grid_json(const TrainGridSpec& spec, const std::vector<TrainJob>& jobs,
                      const TrainGridResult& result,
                      const std::vector<std::string>& agent_paths);

}  // namespace oic::train
