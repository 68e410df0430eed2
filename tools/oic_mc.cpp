/// \file oic_mc.cpp
/// Monte Carlo campaign driver over randomized scenario families.
///
///   oic_mc --plants acc --families mixed --policies bang-bang
///          --episodes 10000 --seed 7 --json campaign.json
///
/// Runs N-episode campaigns per (plant, family) cell through the blocked
/// streaming engine (src/mc): every episode samples a fresh scenario from
/// the family, statistics stream into Welford accumulators (no per-episode
/// storage), and the JSON report carries violation-rate Wilson intervals
/// and saving/cost normal intervals.  Results are bit-identical for any
/// --workers value and across --checkpoint resume boundaries; the whole
/// campaign is determined by --seed alone.
///
/// Flags (--key value and --key=value are both accepted):
///   --plant/--plants a,b     plants to campaign        (default: all)
///   --family/--families a,b  scenario families         (default: all standard)
///   --policies a,b           skip policies             (default: bang-bang,periodic-5)
///                            (always-run | bang-bang | periodic-N |
///                             burst:<k> | drl:<agent file>)
///   --episodes N             episodes per cell          (default 1000)
///   --steps N                steps per episode          (default 100)
///   --seed N                 campaign seed              (default 20200406)
///   --workers N              workers, 0 = auto          (default 0)
///   --block N                episodes per stats block   (default 256)
///   --cert-dir DIR           certificate cache (cert::Store)
///   --checkpoint PATH        stats checkpoint: written periodically,
///                            resumed from when present and matching
///   --checkpoint-blocks N    checkpoint cadence in blocks (default 64)
///   --max-blocks N           per-process block budget: stop after N blocks
///                            (resume later from --checkpoint); 0 = run all
///   --faults SPEC            network fault model: a preset id ("lossy",
///                            ...) or the key:value grammar, e.g.
///                            meas_drop:0.05,meas_delay:2,act_drop:0.02,hold
///                            (default: off -- bit-identical legacy runs).
///                            Part of the checkpoint fingerprint.
///   --json PATH              write the JSON document
///   --list                   list plants/families/fault presets and exit
///
/// Rare-event mode (see docs/mc_stats.md):
///   --splitting              estimate violation probabilities by fixed-
///                            effort multilevel splitting instead of crude
///                            counting (per cell: baseline + each policy;
///                            the test-only "rare1d" plant runs its single
///                            analytic unit and reports p_true)
///   --falsify                per-cell cross-entropy falsification: search
///                            the family's MixtureProfile space for the
///                            most dangerous profile; with --splitting its
///                            peak-level quantiles seed the ladder
///   --levels a,b,c           explicit splitting ladder (strictly
///                            increasing negative distances-to-boundary);
///                            default: falsify-seeded or adaptive
///   --split-trials N         clones per stage per batch    (default 256)
///   --split-batches N        independent replicate runs whose empirical
///                            spread forms the combined CI  (default 16)
///   --split-stages N         adaptive stage cap per batch  (default 24)
///   --split-quantile Q       adaptive survivor fraction    (default 0.25)
///   --falsify-iterations N   CE refits                     (default 6)
///   --falsify-population N   CE candidates per refit       (default 24)
///   --falsify-elites N       CE elite refit sample         (default 6)
///   --falsify-probes N       CRN probe episodes/candidate  (default 3)
///
/// Exit status: 0 on a clean campaign, 1 on safety violations or bad usage.
/// Under --faults, "safety violation" means leaving the hard safe set X;
/// XI excursions are the measured degradation, reported not fatal.  In
/// rare-event mode a violation is a falsifier counterexample or a real
/// plant's splitting run reaching the boundary with a surviving clone
/// (the rare1d bed's violations are the point, not a bug).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "mc/campaign.hpp"

namespace {

using oic::cliutil::Args;
using oic::cliutil::split_list;
using oic::eval::ScenarioRegistry;
using oic::mc::CampaignResult;
using oic::mc::CampaignSpec;

std::string join_or_all(const std::vector<std::string>& items) {
  if (items.empty()) return "<all>";
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out;
}

void print_families(const ScenarioRegistry& registry) {
  std::printf("registered plants (campaigns sample scenario families inside each "
              "plant's signal band):\n");
  for (const auto& pid : registry.plant_ids()) {
    const auto& info = registry.plant(pid);
    std::printf("  %-10s signal band [%g, %g]\n", info.id.c_str(),
                info.signal_band.lo, info.signal_band.hi);
  }
  std::printf("standard families:\n");
  const oic::eval::SignalBand band{-1.0, 1.0};
  for (const auto& fam : oic::mc::standard_families(band)) {
    std::printf("  %-15s %s\n", fam.id().c_str(), fam.description().c_str());
  }
}

void print_split_summary(const CampaignSpec& spec, const CampaignResult& result) {
  std::printf("\n%-10s %-15s %-14s %6s %9s %12s %26s\n", "plant", "family",
              "unit", "stages", "episodes", "p_hat", "ci95");
  for (const auto& cell : result.split_cells) {
    if (cell.falsified) {
      std::printf("%-10s %-15s %-14s worst_level=%.4g %s (%llu episodes)\n",
                  cell.plant.c_str(), cell.family.c_str(), "falsify",
                  cell.falsify.worst_level,
                  cell.falsify.violation ? "VIOLATION" : "no violation",
                  static_cast<unsigned long long>(cell.falsify.episodes));
    }
    for (const auto& unit : cell.units) {
      const oic::mc::SplitState& st = unit.state;
      const oic::Interval ci = st.ci95();
      std::printf("%-10s %-15s %-14s %6llu %9llu %12.4e [%10.4e, %10.4e]%s%s\n",
                  cell.plant.c_str(), cell.family.c_str(), unit.policy.c_str(),
                  static_cast<unsigned long long>(st.stages_done()),
                  static_cast<unsigned long long>(st.episodes()), st.p_hat(),
                  ci.lo, ci.hi,
                  st.extinct_batches()
                      ? (" (" + std::to_string(st.extinct_batches()) +
                         " extinct batches)")
                            .c_str()
                      : "",
                  st.done ? "" : " (in progress)");
    }
    if (cell.p_true >= 0.0) {
      std::printf("%-10s %-15s %-14s p_true=%.4e (analytic ground truth)\n",
                  cell.plant.c_str(), cell.family.c_str(), "ground-truth",
                  cell.p_true);
    }
  }
  std::printf("\ncampaign: %zu cells, %llu episodes aggregated "
              "(%llu run now, %llu stages resumed), %.2f s wall\n",
              result.split_cells.size(),
              static_cast<unsigned long long>(result.episodes),
              static_cast<unsigned long long>(result.episodes_run),
              static_cast<unsigned long long>(result.resumed_blocks),
              result.wall_s);
  std::printf(
      "split: trials=%llu batches=%llu stages<=%llu quantile=%g workers=%zu\n",
      static_cast<unsigned long long>(spec.split_trials),
      static_cast<unsigned long long>(spec.split_batches),
      static_cast<unsigned long long>(spec.split_stages), spec.split_quantile,
      spec.workers);
  std::printf("safety violations: %s\n",
              result.safety_violations ? "YES (BUG!)" : "none");
}

void print_summary(const CampaignSpec& spec, const CampaignResult& result) {
  if (spec.splitting || spec.falsify) {
    print_split_summary(spec, result);
    return;
  }
  const bool faulted = result.faults.active();
  std::printf("\n%-10s %-15s %-14s %12s %22s %10s %10s %12s\n", "plant", "family",
              "policy", "saving[%]", "ci95[%]", "skipped", "degraded", "viol-ub95");
  for (const auto& cell : result.cells) {
    for (const auto& ps : cell.policies) {
      const oic::Interval saving = oic::normal_interval(ps.saving);
      const oic::Interval wilson = oic::wilson_interval(ps.violations, ps.episodes);
      std::printf("%-10s %-15s %-14s %12.2f [%8.2f, %8.2f] %10.1f %10.1f %12.2e\n",
                  cell.plant.c_str(), cell.family.c_str(), ps.name.c_str(),
                  100.0 * ps.saving.mean(), 100.0 * saving.lo, 100.0 * saving.hi,
                  ps.skipped.mean(), ps.degraded.mean(), wilson.hi);
    }
  }
  if (faulted) {
    std::printf("\nfaults: %s (hard violations = leaving X; XI excursions are "
                "measured degradation)\n",
                result.faults.canonical().c_str());
  }
  std::printf("\ncampaign: %zu cells, %llu episodes aggregated "
              "(%llu run now, %llu blocks resumed), %.2f s wall  |  "
              "%.1f episodes/s  |  %.0f ns/step\n",
              result.cells.size(), static_cast<unsigned long long>(result.episodes),
              static_cast<unsigned long long>(result.episodes_run),
              static_cast<unsigned long long>(result.resumed_blocks), result.wall_s,
              result.episodes_per_s(), result.step_ns());
  std::printf("episodes/cell=%llu steps=%zu block=%llu workers=%zu\n",
              static_cast<unsigned long long>(spec.episodes), spec.steps,
              static_cast<unsigned long long>(spec.block), spec.workers);
  std::printf("safety violations: %s (Theorem 1: must be none)\n",
              result.safety_violations ? "YES (BUG!)" : "none");
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();

  if (args.flag("help")) {
    std::printf(
        "usage: oic_mc [--plants a,b] [--families a,b] [--policies a,b]\n"
        "              [--episodes N] [--steps N] [--seed N] [--workers N]\n"
        "              [--block N] [--cert-dir DIR] [--checkpoint PATH]\n"
        "              [--checkpoint-blocks N] [--max-blocks N] [--faults SPEC]\n"
        "              [--splitting] [--falsify] [--levels a,b,c]\n"
        "              [--split-trials N] [--split-batches N] [--split-stages N]\n"
        "              [--split-quantile Q]\n"
        "              [--falsify-iterations N] [--falsify-population N]\n"
        "              [--falsify-elites N] [--falsify-probes N]\n"
        "              [--json PATH] [--list]\n"
        "policies: always-run | bang-bang | periodic-N | burst:<k> | "
        "drl:<agent file>\n");
    print_families(registry);
    oic::cliutil::print_fault_presets(registry);
    return 0;
  }
  if (args.flag("list")) {
    print_families(registry);
    oic::cliutil::print_fault_presets(registry);
    return 0;
  }

  CampaignSpec spec;
  std::string v;
  if (args.value("plant", v) || args.value("plants", v)) spec.plants = split_list(v);
  if (args.value("family", v) || args.value("families", v)) {
    spec.families = split_list(v);
  }
  if (args.value("policies", v)) spec.policies = split_list(v);
  if (!oic::cliutil::u64_flag(args, "oic_mc", "episodes", spec.episodes) ||
      !oic::cliutil::count_flag(args, "oic_mc", "steps", spec.steps) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "block", spec.block) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "checkpoint-blocks",
                              spec.checkpoint_blocks) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "max-blocks", spec.max_blocks)) {
    return 1;
  }
  oic::cliutil::CommonOpts common;
  if (!oic::cliutil::parse_common(args, "oic_mc", common)) return 1;
  if (common.seeds.size() > 1) {
    std::fprintf(stderr, "oic_mc: --seed expects a single campaign seed\n");
    return 1;
  }
  if (!common.seeds.empty()) spec.seed = common.seeds.front();
  spec.workers = common.workers;
  spec.cert_dir = common.cert_dir;
  spec.faults = common.faults;
  (void)args.value("checkpoint", spec.checkpoint);

  spec.splitting = args.flag("splitting");
  spec.falsify = args.flag("falsify");
  if (!oic::cliutil::u64_flag(args, "oic_mc", "split-trials", spec.split_trials) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "split-batches",
                              spec.split_batches) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "split-stages", spec.split_stages) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "falsify-iterations",
                              spec.falsify_iterations) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "falsify-population",
                              spec.falsify_population) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "falsify-elites",
                              spec.falsify_elites) ||
      !oic::cliutil::u64_flag(args, "oic_mc", "falsify-probes",
                              spec.falsify_probes)) {
    return 1;
  }
  if (args.value("levels", v)) {
    try {
      spec.levels = oic::mc::parse_levels(v);
    } catch (const oic::Error& e) {
      std::fprintf(stderr, "oic_mc: --levels: %s\n", e.what());
      return 1;
    }
  }
  if (args.value("split-quantile", v)) {
    try {
      spec.split_quantile = oic::mc::parse_split_quantile(v);
    } catch (const oic::Error& e) {
      std::fprintf(stderr, "oic_mc: --split-quantile %s\n", e.what());
      return 1;
    }
  }

  if (!oic::cliutil::reject_unknown(args, "oic_mc")) return 1;

  try {
    std::printf("=== oic_mc campaign ===\n");
    std::printf("plants=%s families=%s episodes/cell=%llu steps=%zu seed=%llu "
                "workers=%zu\n",
                join_or_all(spec.plants).c_str(), join_or_all(spec.families).c_str(),
                static_cast<unsigned long long>(spec.episodes), spec.steps,
                static_cast<unsigned long long>(spec.seed), spec.workers);

    const CampaignResult result = oic::mc::run_campaign(registry, spec);
    print_summary(spec, result);

    if (common.write_json &&
        !oic::cliutil::write_json_file("oic_mc", common.json_path,
                                       oic::mc::campaign_json(spec, result))) {
      return 1;
    }
    return result.safety_violations ? 1 : 0;
  } catch (const oic::Error& e) {
    std::fprintf(stderr, "oic_mc: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything escaping the oic::Error hierarchy (bad_alloc, filesystem
    // errors, ...) must still die with a diagnosable message and a
    // nonzero exit, never a raw terminate().
    std::fprintf(stderr, "oic_mc: unexpected error: %s\n", e.what());
    return 1;
  }
}
