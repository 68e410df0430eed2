#include "eval/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>

#include "cert/store.hpp"
#include "common/buildinfo.hpp"
#include "common/error.hpp"
#include "common/jsonout.hpp"
#include "common/stats.hpp"
#include "rl/serialize.hpp"

namespace oic::eval {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using jsonout::append_format;
using jsonout::append_string_array;

}  // namespace

void require_policies_trained_for(const std::vector<std::string>& policy_specs,
                                  const std::vector<std::string>& plant_ids,
                                  const char* who) {
  for (const auto& pspec : policy_specs) {
    const std::string drl = "drl:";
    if (pspec.rfind(drl, 0) != 0) continue;
    const std::string trained_on =
        rl::load_agent_header_file(pspec.substr(drl.size())).plant;
    if (trained_on.empty()) continue;
    for (const auto& pid : plant_ids) {
      OIC_REQUIRE(pid == trained_on,
                  std::string(who) + ": policy '" + pspec +
                      "' was trained on plant '" + trained_on +
                      "' but the grid includes plant '" + pid +
                      "' (restrict the plants or retrain)");
    }
  }
}

PolicySetFactory make_policy_factory(const std::vector<std::string>& specs) {
  OIC_REQUIRE(!specs.empty(), "make_policy_factory: need at least one policy");
  for (const auto& s : specs) (void)make_policy(s);  // validate before any plant build
  return [specs] {
    std::vector<std::unique_ptr<core::SkipPolicy>> ps;
    ps.reserve(specs.size());
    for (const auto& s : specs) ps.push_back(make_policy(s));
    return ps;
  };
}

SweepResult run_sweep(const ScenarioRegistry& registry, const SweepSpec& spec) {
  OIC_REQUIRE(spec.cases >= 1, "run_sweep: need at least one case");
  OIC_REQUIRE(spec.steps >= 1, "run_sweep: need at least one step");
  OIC_REQUIRE(!spec.seeds.empty(), "run_sweep: need at least one seed");

  const bool plants_defaulted = spec.plants.empty();
  const std::vector<std::string> plant_ids =
      plants_defaulted ? registry.production_plant_ids() : spec.plants;
  OIC_REQUIRE(!plant_ids.empty(), "run_sweep: registry is empty");

  // Resolve the grid up front: ids, scenario membership, policies.  Plants
  // are expensive to build; a typo should fail in milliseconds.  Scenario
  // ids are per-plant, so with explicit scenarios each plant sweeps the
  // intersection with its catalogue; a plant the user *named* must list
  // every requested scenario (typo protection), while a *defaulted* plant
  // that lacks them is skipped (`--scenario sine` sweeps exactly the
  // plants that have "sine").
  std::vector<std::pair<std::string, std::vector<std::string>>> grid;
  for (const auto& pid : plant_ids) {
    const PlantInfo& info = registry.plant(pid);
    std::vector<std::string> scenario_ids;
    if (spec.scenarios.empty()) {
      scenario_ids = info.scenario_ids;
    } else {
      for (const auto& sid : spec.scenarios) {
        const bool listed = std::find(info.scenario_ids.begin(),
                                      info.scenario_ids.end(),
                                      sid) != info.scenario_ids.end();
        if (listed) {
          scenario_ids.push_back(sid);
        } else if (!plants_defaulted) {
          (void)registry.make_scenario(pid, sid);  // throws with the known ids
        }
      }
    }
    if (!scenario_ids.empty()) grid.emplace_back(pid, std::move(scenario_ids));
  }
  OIC_REQUIRE(!grid.empty(), "run_sweep: no registered plant lists the requested "
                             "scenarios");
  const PolicySetFactory factory = make_policy_factory(spec.policies);
  // Trained agents are plant-specific: a drl:<path> policy carries the
  // registry id it was trained on (the oic-agent header), and deploying it
  // on another plant would silently compare meaningless decisions even
  // when the state dimensions happen to match.  Reject the grid up front
  // (the factory above already vetted that every file loads).
  std::vector<std::string> grid_plants;
  for (const auto& [pid, scenario_ids] : grid) grid_plants.push_back(pid);
  require_policies_trained_for(spec.policies, grid_plants, "run_sweep");

  // Certificate cache: with --cert-dir every plant build resolves its
  // offline artifacts through the store (load on hit, synthesize-and-write
  // on miss), so a warm sweep's cold start is file-read-bound.
  std::unique_ptr<cert::Store> store;
  cert::Provider provider;
  if (!spec.cert_dir.empty()) {
    store = std::make_unique<cert::Store>(spec.cert_dir);
    provider = store->provider();
  }

  const fault::FaultSpec faults = registry.resolve_faults(spec.faults);

  SweepResult out;
  out.faults = faults;
  const auto t0 = Clock::now();
  for (const auto& [pid, scenario_ids] : grid) {
    const PlantInfo& info = registry.plant(pid);
    const auto plant = info.make_plant(provider);
    for (const auto& sid : scenario_ids) {
      const Scenario scenario = registry.make_scenario(pid, sid);
      for (const std::uint64_t seed : spec.seeds) {
        SweepConfig cfg;
        cfg.cases = spec.cases;
        cfg.steps = spec.steps;
        cfg.seed = seed;
        cfg.workers = spec.workers;
        cfg.faults = faults;

        SweepCell cell;
        cell.plant = pid;
        cell.scenario = sid;
        cell.seed = seed;
        const auto cell_t0 = Clock::now();
        cell.result = compare_policies_parallel(*plant, scenario, factory, cfg);
        cell.wall_s = seconds_since(cell_t0);

        out.episodes += spec.cases * (cell.result.policy_names.size() + 1);
        // Fault-free: any violation is a Theorem-1 bug.  Faulted: only a
        // hard safe-set exit counts (XI excursions are the degradation the
        // sweep measures).
        if (faults.active()) {
          for (const bool v : cell.result.any_left_x) {
            out.safety_violations = out.safety_violations || v;
          }
        } else {
          for (const bool v : cell.result.any_violation) {
            out.safety_violations = out.safety_violations || v;
          }
        }
        out.cells.push_back(std::move(cell));
      }
    }
  }
  out.wall_s = seconds_since(t0);
  out.total_steps = out.episodes * spec.steps;
  return out;
}

std::string sweep_json(const SweepSpec& spec, const SweepResult& result) {
  jsonout::Doc doc("oic_eval");
  std::string& out = doc.body();

  // "config" carries the run sizing (cases, steps, workers, policies,
  // seed) plus the sweep's grid axes.
  append_format(out, "  \"config\": {\"cases\": %zu, \"steps\": %zu, \"workers\": %zu, ",
                spec.cases, spec.steps, spec.workers);
  out += "\"policies\": ";
  append_string_array(out, spec.policies);
  append_format(out, ", \"seed\": %llu, \"seeds\": [",
                static_cast<unsigned long long>(spec.seeds.front()));
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) {
    if (i) out += ", ";
    append_format(out, "%llu", static_cast<unsigned long long>(spec.seeds[i]));
  }
  out += "], \"plants\": ";
  append_string_array(out, spec.plants);
  out += ", \"scenarios\": ";
  append_string_array(out, spec.scenarios);
  out += ", \"cert_dir\": ";
  jsonout::append_string(out, spec.cert_dir);
  out += ", \"faults\": ";
  jsonout::append_string(out, result.faults.canonical());
  out += "},\n";

  append_format(out,
                "  \"sweep\": {\"wall_s\": %.6f, \"episodes\": %zu, "
                "\"episodes_per_s\": %.3f, \"step_ns\": %.1f},\n",
                result.wall_s, result.episodes, result.episodes_per_s(),
                result.step_ns());

  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& cell = result.cells[i];
    append_format(out, "    {\"plant\": \"%s\", \"scenario\": \"%s\", \"seed\": %llu, ",
                  cell.plant.c_str(), cell.scenario.c_str(),
                  static_cast<unsigned long long>(cell.seed));
    append_format(out, "\"wall_s\": %.6f, \"policies\": [\n", cell.wall_s);
    const ComparisonResult& r = cell.result;
    for (std::size_t p = 0; p < r.policy_names.size(); ++p) {
      // Policy names can be user-controlled drl:<path> specs: append them
      // escaped and outside the fixed-size formatter.
      out += "      {\"name\": ";
      jsonout::append_string(out, r.policy_names[p]);
      append_format(out,
                    ", \"mean_saving\": %.17g, "
                    "\"mean_skipped\": %.17g, \"violation\": %s, ",
                    mean(r.savings[p]), r.mean_skipped[p],
                    r.any_violation[p] ? "true" : "false");
      append_format(out,
                    "\"left_x\": %s, \"left_xi\": %s, \"mean_degraded\": %.17g, "
                    "\"mean_stale_forced\": %.17g, \"mean_act_dropped\": %.17g, "
                    "\"savings\": [",
                    r.any_left_x[p] ? "true" : "false",
                    r.any_left_xi[p] ? "true" : "false", r.mean_degraded[p],
                    r.mean_stale_forced[p], r.mean_act_dropped[p]);
      for (std::size_t c = 0; c < r.savings[p].size(); ++c) {
        if (c) out += ", ";
        append_format(out, "%.17g", r.savings[p][c]);
      }
      out += (p + 1 < r.policy_names.size()) ? "]},\n" : "]}\n";
    }
    out += (i + 1 < result.cells.size()) ? "    ]},\n" : "    ]}\n";
  }
  out += "  ],\n";
  return std::move(doc).finish(result.safety_violations);
}

}  // namespace oic::eval
