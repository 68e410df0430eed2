/// \file oic_eval.cpp
/// Unified evaluation sweep driver over the plant/scenario registry.
///
///   oic_eval --plant acc --scenario Ex.1 --policies bang-bang,periodic-5 --cases 24
///
/// Sweeps plant x scenario x policy x seed grids through the parallel
/// episode engine and prints a per-cell summary table; --json writes the
/// machine-readable document (schema in eval/sweep.hpp).
/// Cell results are bit-identical to the serial ACC harness for the same
/// seed (see eval/engine.hpp), so this binary reproduces the paper's
/// Fig. 4/5/6 numbers when pointed at the acc plant.
///
/// Flags (--key value and --key=value are both accepted):
///   --plant/--plants a,b     plants to sweep           (default: all)
///   --scenario/--scenarios   scenario ids              (default: all per plant)
///   --policies a,b           skip policies             (default: bang-bang,periodic-5)
///                            (always-run | bang-bang | periodic-N |
///                             drl:<path to an oic_train agent file>)
///   --cases N                Monte-Carlo cases per cell (default 24)
///   --steps N                steps per episode          (default 100)
///   --seed/--seeds a,b       episode-stream seeds       (default 20200406)
///   --workers N              sweep workers, 0 = auto    (default 0)
///   --cert-dir DIR           certificate cache (cert::Store): plant
///                            construction loads cached `oic-cert v1`
///                            files, synthesizing+writing only on miss
///   --faults SPEC            network fault model: a preset id ("lossy",
///                            ...) or the key:value grammar, e.g.
///                            meas_drop:0.05,meas_delay:2,act_drop:0.02,hold
///                            (default: off -- bit-identical legacy runs)
///   --json PATH              write the JSON document
///   --list                   list plants/scenarios/fault presets and exit
///
/// Exit status: 0 on a clean sweep, 1 on safety violations or bad usage.
/// Under --faults, "safety violation" means leaving the hard safe set X;
/// XI excursions are the measured degradation, reported not fatal.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "eval/sweep.hpp"

namespace {

using oic::cliutil::Args;
using oic::cliutil::print_registry;
using oic::cliutil::split_list;
using oic::eval::ScenarioRegistry;
using oic::eval::SweepResult;
using oic::eval::SweepSpec;

std::string join_or_all(const std::vector<std::string>& items) {
  if (items.empty()) return "<all>";
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out;
}

void print_summary(const SweepSpec& spec, const SweepResult& result) {
  const bool faulted = result.faults.active();
  std::printf("\n%-10s %-10s %-12s %-14s %10s %10s %10s %5s\n", "plant", "scenario",
              "seed", "policy", "saving[%]", "skipped", "degraded", "safe");
  for (const auto& cell : result.cells) {
    const auto& r = cell.result;
    for (std::size_t p = 0; p < r.policy_names.size(); ++p) {
      // Fault-free: any excursion (X or XI) is a bug.  Faulted: only
      // leaving the hard safe set X is; XI excursions are degradation.
      const bool unsafe = faulted ? r.any_left_x[p] : r.any_violation[p];
      std::printf("%-10s %-10s %-12llu %-14s %10.2f %10.1f %10.1f %5s\n",
                  cell.plant.c_str(), cell.scenario.c_str(),
                  static_cast<unsigned long long>(cell.seed),
                  r.policy_names[p].c_str(), 100.0 * oic::mean(r.savings[p]),
                  r.mean_skipped[p], r.mean_degraded[p], unsafe ? "NO!" : "yes");
    }
  }
  if (faulted) {
    std::printf("\nfaults: %s (hard violations = leaving X; XI excursions are "
                "measured degradation)\n",
                result.faults.canonical().c_str());
  }
  std::printf("\nsweep: %zu cells, %zu episodes, %.2f s wall  |  %.1f episodes/s  |  "
              "%.0f ns/step\n",
              result.cells.size(), result.episodes, result.wall_s,
              result.episodes_per_s(), result.step_ns());
  std::printf("cases=%zu steps=%zu workers=%zu\n", spec.cases, spec.steps, spec.workers);
  std::printf("safety violations: %s (Theorem 1: must be none)\n",
              result.safety_violations ? "YES (BUG!)" : "none");
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();

  if (args.flag("help")) {
    std::printf("usage: oic_eval [--plant a,b] [--scenario a,b] [--policies a,b]\n"
                "                [--cases N] [--steps N] [--seeds a,b] [--workers N]\n"
                "                [--cert-dir DIR] [--faults SPEC] [--json PATH]\n"
                "                [--list]\n"
                "policies: always-run | bang-bang | periodic-N | burst:<k> | "
                "drl:<agent file>\n");
    print_registry(registry);
    oic::cliutil::print_fault_presets(registry);
    return 0;
  }
  if (args.flag("list")) {
    print_registry(registry);
    oic::cliutil::print_fault_presets(registry);
    return 0;
  }

  SweepSpec spec;
  std::string v;
  if (args.value("plant", v) || args.value("plants", v)) spec.plants = split_list(v);
  if (args.value("scenario", v) || args.value("scenarios", v)) {
    spec.scenarios = split_list(v);
  }
  if (args.value("policies", v)) spec.policies = split_list(v);
  if (!oic::cliutil::count_flag(args, "oic_eval", "cases", spec.cases) ||
      !oic::cliutil::count_flag(args, "oic_eval", "steps", spec.steps)) {
    return 1;
  }
  oic::cliutil::CommonOpts common;
  if (!oic::cliutil::parse_common(args, "oic_eval", common)) return 1;
  if (!common.seeds.empty()) spec.seeds = common.seeds;
  spec.workers = common.workers;
  spec.cert_dir = common.cert_dir;
  spec.faults = common.faults;

  if (!oic::cliutil::reject_unknown(args, "oic_eval")) return 1;

  try {
    std::printf("=== oic_eval sweep ===\n");
    std::printf("plants=%s scenarios=%s cases=%zu steps=%zu seeds=%zu workers=%zu\n",
                join_or_all(spec.plants).c_str(), join_or_all(spec.scenarios).c_str(),
                spec.cases, spec.steps, spec.seeds.size(), spec.workers);

    const SweepResult result = oic::eval::run_sweep(registry, spec);
    print_summary(spec, result);

    if (common.write_json &&
        !oic::cliutil::write_json_file("oic_eval", common.json_path,
                                       oic::eval::sweep_json(spec, result))) {
      return 1;
    }
    return result.safety_violations ? 1 : 0;
  } catch (const oic::Error& e) {
    std::fprintf(stderr, "oic_eval: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything escaping the oic::Error hierarchy (bad_alloc, filesystem
    // errors, ...) must still die with a diagnosable message and a
    // nonzero exit, never a raw terminate().
    std::fprintf(stderr, "oic_eval: unexpected error: %s\n", e.what());
    return 1;
  }
}
