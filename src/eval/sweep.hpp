#pragma once
/// \file sweep.hpp
/// The oic_eval sweep driver: runs plant x scenario x policy x seed grids
/// through compare_policies_parallel and emits one JSON document per sweep.
///
/// The JSON document follows the tools' shared schema: a top-level
/// "bench" tag, a "meta" object with build provenance (git SHA, compiler,
/// build type; common/buildinfo.hpp), a "config" object ({cases, steps,
/// workers, policies, seed}, plus the grid axes), timing objects with
/// {wall_s, episodes, episodes_per_s, step_ns}, and a final
/// "safety_violations" flag -- so the CI smoke jobs validate it with the
/// same checker as the other tools' documents.
///
/// The CLI (tools/oic_eval.cpp) is a thin flag-parsing wrapper over
/// run_sweep/sweep_json; tests drive the same entry points, so the binary
/// and the test suite cannot drift.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/engine.hpp"
#include "eval/policy_spec.hpp"
#include "eval/registry.hpp"

namespace oic::eval {

/// Grid specification.  Empty plant / scenario lists mean "all registered".
struct SweepSpec {
  std::vector<std::string> plants;     ///< plant ids; empty = all
  std::vector<std::string> scenarios;  ///< scenario ids; empty = all per plant;
                                       ///< otherwise every id must exist on
                                       ///< every selected plant
  std::vector<std::string> policies = {"bang-bang", "periodic-5"};
  std::size_t cases = 24;
  std::size_t steps = 100;
  std::vector<std::uint64_t> seeds = {20200406};
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  /// Certificate cache directory (cert::Store).  Empty = synthesize every
  /// plant's safety artifacts fresh (the historical behavior); set, plant
  /// construction loads cached `oic-cert v1` files and the sweep's cold
  /// start is file-read-bound instead of LP-bound.
  std::string cert_dir;
  /// Fault model for every episode: "" / "off" (default), a registered
  /// preset id ("lossy", ...), or the FaultSpec::parse grammar.  Resolved
  /// against the registry at sweep start.
  std::string faults;
};

/// One grid cell: the paired comparison of every policy against the
/// always-run baseline on (plant, scenario, seed).
struct SweepCell {
  std::string plant;
  std::string scenario;
  std::uint64_t seed = 0;
  ComparisonResult result;
  double wall_s = 0.0;
};

/// Whole-sweep outcome.
struct SweepResult {
  std::vector<SweepCell> cells;
  double wall_s = 0.0;           ///< total wall time including plant builds
  std::size_t episodes = 0;      ///< episodes run (baseline + each policy)
  std::size_t total_steps = 0;   ///< control periods simulated
  /// Fault-free sweeps: any left_x / left_xi anywhere (Theorem 1: never).
  /// Faulted sweeps: any left_x (hard safe-set violation) -- XI excursions
  /// are the measured degradation there, not a bug.
  bool safety_violations = false;
  fault::FaultSpec faults;       ///< resolved fault model (inactive = none)

  double episodes_per_s() const { return static_cast<double>(episodes) / wall_s; }
  double step_ns() const { return 1e9 * wall_s / static_cast<double>(total_steps); }
};

/// Per-worker factory over a list of policy specs (validates every spec
/// eagerly, so bad CLI input fails before any plant is built).
PolicySetFactory make_policy_factory(const std::vector<std::string>& specs);

/// Reject grids that would deploy a plant-specific trained agent on other
/// plants: every `drl:<path>` spec whose agent header carries provenance
/// (a non-empty plant tag) pins the whole grid to that plant; agents
/// without provenance pass.  Shared by the sweep and campaign drivers so
/// the rule cannot drift.  `who` prefixes the error message.
void require_policies_trained_for(const std::vector<std::string>& policy_specs,
                                  const std::vector<std::string>& plant_ids,
                                  const char* who);

/// Run the grid.  Plants are built once each and reused across their
/// scenarios and seeds; each cell is a compare_policies_parallel call, so
/// cell results are bit-identical for any worker count.  Throws
/// PreconditionError for unknown ids or empty grids.
SweepResult run_sweep(const ScenarioRegistry& registry, const SweepSpec& spec);

/// Render the sweep as a JSON document (schema in the file comment).
std::string sweep_json(const SweepSpec& spec, const SweepResult& result);

}  // namespace oic::eval
