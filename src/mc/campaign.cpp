#include "mc/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>

#include "cert/store.hpp"
#include "common/buildinfo.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/jsonout.hpp"
#include "common/parallel.hpp"
#include "common/textio.hpp"
#include "eval/engine.hpp"
#include "eval/sweep.hpp"

namespace oic::mc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resolved campaign grid: plant-major (plant, family) cells.
struct Grid {
  std::vector<std::string> plants;
  std::vector<std::string> families;
  std::size_t cells() const { return plants.size() * families.size(); }
};

Grid resolve_grid(const eval::ScenarioRegistry& registry, const CampaignSpec& spec) {
  Grid grid;
  // Defaulted grids take the production catalogue only: test-only plants
  // (the rare1d analytic bed) must be named explicitly.
  grid.plants = spec.plants.empty() ? registry.production_plant_ids() : spec.plants;
  OIC_REQUIRE(!grid.plants.empty(), "run_campaign: registry is empty");
  for (const auto& pid : grid.plants) (void)registry.plant(pid);  // typo check
  const bool rare = std::find(grid.plants.begin(), grid.plants.end(),
                              std::string(kRare1dPlantId)) != grid.plants.end();
  if (rare) {
    // The analytic bed has no real scenario families (its episodes are
    // i.i.d. by construction); it forms exactly one cell.
    OIC_REQUIRE(grid.plants.size() == 1,
                "run_campaign: the rare1d analytic bed cannot share a grid "
                "with other plants");
    grid.families = spec.families.empty() ? std::vector<std::string>{"analytic"}
                                          : spec.families;
    OIC_REQUIRE(grid.families == std::vector<std::string>{"analytic"},
                "run_campaign: rare1d supports only the 'analytic' "
                "pseudo-family");
    return grid;
  }
  grid.families = spec.families.empty() ? standard_family_ids() : spec.families;
  // Families are band-generic; validate the ids once against any band.
  const eval::SignalBand& band = registry.plant(grid.plants.front()).signal_band;
  for (const auto& fid : grid.families) (void)family_by_id(band, fid);
  return grid;
}

void check_token(const std::string& s, const char* what) {
  OIC_REQUIRE(!s.empty() && s.find_first_of(" \t\n\r") == std::string::npos,
              std::string("mc checkpoint: ") + what +
                  " must be a non-empty whitespace-free token, got '" + s + "'");
}

void write_welford(std::ostream& os, const Welford& w) {
  os << ' ' << w.count() << ' ' << w.mean() << ' ' << w.m2();
  if (w.count() > 0) {
    os << ' ' << w.min() << ' ' << w.max();
  } else {
    os << " 0 0";
  }
}

Welford read_welford(textio::Reader& in) {
  const std::uint64_t n = in.u64("accumulator count");
  const double mean = in.finite("accumulator mean");
  const double m2 = in.finite("accumulator m2");
  const double lo = in.finite("accumulator min");
  const double hi = in.finite("accumulator max");
  return Welford(n, mean, m2, lo, hi);
}

void write_policy_stats(std::ostream& os, const PolicyStats& ps) {
  check_token(ps.name, "policy name");
  os << "stats " << ps.name << ' ' << ps.episodes << ' ' << ps.violations << ' '
     << ps.left_x_episodes << ' ' << ps.steps << ' ' << ps.degraded_steps << ' '
     << ps.stale_forced << ' ' << ps.policy_unavail << ' ' << ps.meas_dropped
     << ' ' << ps.act_dropped;
  write_welford(os, ps.saving);
  write_welford(os, ps.cost);
  write_welford(os, ps.skipped);
  write_welford(os, ps.degraded);
  os << '\n';
}

PolicyStats read_policy_stats(textio::Reader& in) {
  PolicyStats ps;
  in.expect("stats");
  ps.name = in.token("policy name");
  ps.episodes = in.u64("episode count");
  ps.violations = in.u64("violation count");
  ps.left_x_episodes = in.u64("left-X count");
  ps.steps = in.u64("step count");
  ps.degraded_steps = in.u64("degraded-step count");
  ps.stale_forced = in.u64("stale-forced count");
  ps.policy_unavail = in.u64("policy-unavailable count");
  ps.meas_dropped = in.u64("measurement-drop count");
  ps.act_dropped = in.u64("actuation-drop count");
  OIC_REQUIRE(ps.violations <= ps.episodes && ps.left_x_episodes <= ps.violations,
              "mc checkpoint: inconsistent violation counters");
  OIC_REQUIRE(ps.degraded_steps <= ps.steps && ps.stale_forced <= ps.degraded_steps &&
                  ps.policy_unavail <= ps.degraded_steps &&
                  ps.meas_dropped <= ps.steps && ps.act_dropped <= ps.steps,
              "mc checkpoint: inconsistent fault counters");
  ps.saving = read_welford(in);
  ps.cost = read_welford(in);
  ps.skipped = read_welford(in);
  ps.degraded = read_welford(in);
  return ps;
}

/// A 0/1 flag field.
bool read_flag(textio::Reader& in, const char* what) {
  const std::uint64_t v = in.u64(what);
  if (v > 1) in.fail(std::string(what) + " must be 0 or 1");
  return v == 1;
}

/// Read a level ladder of `n` entries and reject non-monotone / NaN /
/// non-negative ladders (validate_levels) -- a corrupted checkpoint must
/// not seed a nonsense splitting run.
std::vector<double> read_ladder(textio::Reader& in, std::size_t n, const char* what) {
  std::vector<double> out(n);
  for (double& level : out) level = in.finite(what);
  validate_levels(out);
  return out;
}

void write_split_cell(std::ostream& os, const SplitCellResult& sc) {
  check_token(sc.plant, "plant id");
  check_token(sc.family, "family id");
  os << "scell " << sc.plant << ' ' << sc.family << ' ' << (sc.falsified ? 1 : 0)
     << ' ' << sc.seeded_levels.size();
  for (double lv : sc.seeded_levels) os << ' ' << lv;
  os << ' ' << sc.units.size() << '\n';
  if (sc.falsified) {
    const FalsifyResult& f = sc.falsify;
    os << "falsify " << f.worst_level << ' ' << (f.violation ? 1 : 0) << ' '
       << f.episodes << ' ' << f.suggested_levels.size();
    for (double lv : f.suggested_levels) os << ' ' << lv;
    os << '\n';
    const MixtureParams& p = f.worst;
    check_token(p.label, "falsify label");
    os << "params " << p.label << ' ' << p.center << ' ' << p.lo << ' ' << p.hi
       << ' ' << p.noise_gain << ' ' << p.noise_alpha << ' ' << p.burst_rate
       << ' ' << p.burst_len_min << ' ' << p.burst_len_max << ' ' << p.burst_amp
       << ' ' << p.ramp_rate << ' ' << p.ramp_span << ' ' << p.ramp_slew << ' '
       << p.sines.size();
    for (const auto& s : p.sines) {
      os << ' ' << s.amplitude << ' ' << s.omega << ' ' << s.phase;
    }
    os << '\n';
  }
  for (const auto& unit : sc.units) {
    check_token(unit.policy, "unit policy name");
    std::uint64_t trials = 0;
    for (const SplitBatch& b : unit.state.batches) {
      trials = std::max(trials, b.estimate.trials);
    }
    os << "unit " << unit.policy << ' ' << (unit.state.done ? 1 : 0) << ' '
       << trials << ' ' << unit.state.batches.size() << '\n';
    for (const SplitBatch& b : unit.state.batches) {
      const SplitEstimate& e = b.estimate;
      os << "batch " << (b.done ? 1 : 0) << ' ' << e.episodes << ' '
         << e.levels.size() << '\n';
      for (std::size_t k = 0; k < e.levels.size(); ++k) {
        os << "stage " << e.levels[k] << ' ' << e.survivors[k] << '\n';
      }
      os << "frontier " << b.frontier.size() << '\n';
      for (const Lineage& lin : b.frontier) {
        os << "lin " << lin.size();
        for (const LineageEntry& le : lin) {
          os << ' ' << le.from_step << ' ' << le.seed;
        }
        os << '\n';
      }
    }
  }
}

SplitCellResult read_split_cell(textio::Reader& in) {
  SplitCellResult sc;
  in.expect("scell");
  sc.plant = in.token("plant id");
  sc.family = in.token("family id");
  sc.falsified = read_flag(in, "falsified flag");
  const std::size_t nseeded = in.count("seeded ladder size", 64);
  sc.seeded_levels = read_ladder(in, nseeded, "seeded level");
  const std::size_t nunits = in.count("splitting unit count", 256);
  if (sc.falsified) {
    FalsifyResult& f = sc.falsify;
    in.expect("falsify");
    f.worst_level = in.finite("falsify objective");
    f.violation = read_flag(in, "falsify violation flag");
    f.episodes = in.u64("falsify episode count");
    OIC_REQUIRE(f.violation == (f.worst_level >= 0.0),
                "mc checkpoint: falsify violation flag disagrees with the "
                "objective");
    const std::size_t nsug = in.count("suggested ladder size", 64);
    f.suggested_levels = read_ladder(in, nsug, "suggested level");
    MixtureParams& p = f.worst;
    in.expect("params");
    p.label = in.token("falsify label");
    for (double* field : {&p.center, &p.lo, &p.hi, &p.noise_gain, &p.noise_alpha,
                          &p.burst_rate}) {
      *field = in.finite("falsify params");
    }
    p.burst_len_min = in.u64("burst length min");
    p.burst_len_max = in.u64("burst length max");
    for (double* field : {&p.burst_amp, &p.ramp_rate, &p.ramp_span, &p.ramp_slew}) {
      *field = in.finite("falsify params");
    }
    p.sines.resize(in.count("sine count", 16));
    for (SineComponent& s : p.sines) {
      s.amplitude = in.finite("sine component");
      s.omega = in.finite("sine component");
      s.phase = in.finite("sine component");
    }
    // Constructing the profile runs the full MixtureParams validation, so
    // a corrupted parameter vector is rejected here and not at use time.
    (void)MixtureProfile(p);
  }
  for (std::size_t u = 0; u < nunits; ++u) {
    SplitUnitResult unit;
    in.expect("unit");
    unit.policy = in.token("unit policy name");
    unit.state.done = read_flag(in, "unit done flag");
    const std::uint64_t trials = in.u64("unit trial count");
    const std::size_t nbatches = in.count("batch count", 4096);
    OIC_REQUIRE(nbatches == 0 || trials >= 1,
                "mc checkpoint: splitting unit with batches but zero trials");
    OIC_REQUIRE(!unit.state.done || nbatches > 0,
                "mc checkpoint: a done unit must carry its batches");
    for (std::size_t bi = 0; bi < nbatches; ++bi) {
      SplitBatch batch;
      SplitEstimate& e = batch.estimate;
      e.trials = trials;
      in.expect("batch");
      batch.done = read_flag(in, "batch done flag");
      e.episodes = in.u64("batch episode count");
      const std::size_t nstages = in.count("stage count", 4096);
      for (std::size_t k = 0; k < nstages; ++k) {
        in.expect("stage");
        const double level = in.finite("stage level");
        const std::uint64_t survivors = in.u64("stage survivors");
        OIC_REQUIRE(survivors <= e.trials,
                    "mc checkpoint: stage survivors exceed the trial count");
        OIC_REQUIRE(level <= 0.0, "mc checkpoint: stage level above the boundary");
        OIC_REQUIRE(e.levels.empty() || level > e.levels.back(),
                    "mc checkpoint: stage ladder must be strictly increasing");
        e.levels.push_back(level);
        e.survivors.push_back(survivors);
      }
      in.expect("frontier");
      const std::size_t nfront = in.count("frontier size", 65536);
      OIC_REQUIRE(nfront == 0 || nfront == e.trials,
                  "mc checkpoint: frontier size must be 0 or the trial count");
      OIC_REQUIRE(!batch.done || nfront == 0,
                  "mc checkpoint: a done batch cannot carry a frontier");
      for (std::size_t j = 0; j < nfront; ++j) {
        in.expect("lin");
        Lineage lin(in.count("lineage length", 4096));
        for (LineageEntry& le : lin) {
          le.from_step = in.u64("lineage step");
          le.seed = in.u64("lineage seed");
        }
        // Structural validation only; the episode-length bound is enforced
        // against the resuming spec in run_campaign.
        validate_lineage(lin, static_cast<std::size_t>(1) << 20);
        batch.frontier.push_back(std::move(lin));
      }
      OIC_REQUIRE(!unit.state.done || batch.done,
                  "mc checkpoint: a done unit cannot carry an unfinished batch");
      unit.state.batches.push_back(std::move(batch));
    }
    sc.units.push_back(std::move(unit));
  }
  return sc;
}

/// Accumulate the fault accounting of one episode (all zero when the
/// campaign runs fault-free, so the counters stay zero there).
void add_fault_accounting(PolicyStats& ps, const eval::EpisodeResult& r) {
  ps.degraded.add(static_cast<double>(r.degraded_steps));
  ps.steps += r.steps;
  ps.degraded_steps += r.degraded_steps;
  ps.stale_forced += r.stale_forced;
  ps.policy_unavail += r.policy_unavail;
  ps.meas_dropped += r.meas_dropped;
  ps.act_dropped += r.act_dropped;
}

/// Accumulate one baseline episode result.
void add_baseline(PolicyStats& ps, const eval::EpisodeResult& r) {
  ps.cost.add(r.fuel);
  ps.skipped.add(static_cast<double>(r.skipped));
  if (r.left_x || r.left_xi) ++ps.violations;
  if (r.left_x) ++ps.left_x_episodes;
  ++ps.episodes;
  add_fault_accounting(ps, r);
}

/// Accumulate one policy episode result (paired against `base`).
void add_policy(PolicyStats& ps, const eval::EpisodeResult& base,
                const eval::EpisodeResult& r) {
  ps.saving.add(eval::fuel_saving(base, r));
  ps.cost.add(r.fuel);
  ps.skipped.add(static_cast<double>(r.skipped));
  if (r.left_x || r.left_xi) ++ps.violations;
  if (r.left_x) ++ps.left_x_episodes;
  ++ps.episodes;
  add_fault_accounting(ps, r);
}

void merge_cell(CellStats& into, const CellStats& block) {
  into.baseline.merge(block.baseline);
  OIC_CHECK(into.policies.size() == block.policies.size(),
            "merge_cell: policy count drifted");
  for (std::size_t p = 0; p < into.policies.size(); ++p) {
    into.policies[p].merge(block.policies[p]);
  }
}

/// Per-worker evaluation context: one policy set plus one EpisodeEngine
/// per policy (and the always-run baseline).  Engine construction runs
/// the nesting-verification LPs and drl:<path> policies re-read their
/// agent file, so contexts are built lazily per worker slot and reused
/// across every round of a cell -- engines reset all carried state per
/// run, which is exactly the bit-parity contract that makes reuse safe.
struct WorkerCtx {
  std::vector<std::unique_ptr<core::SkipPolicy>> policies;
  core::AlwaysRunPolicy baseline;
  eval::EpisodeEngine base_engine;
  std::vector<std::unique_ptr<eval::EpisodeEngine>> engines;

  WorkerCtx(const eval::PlantCase& plant, const eval::PolicySetFactory& factory,
            std::size_t num_policies, const fault::FaultSpec& faults)
      : policies(factory()), base_engine(plant, baseline, faults) {
    OIC_REQUIRE(policies.size() == num_policies,
                "run_campaign: policy factory is not stable");
    engines.reserve(policies.size());
    for (auto& p : policies) {
      engines.push_back(std::make_unique<eval::EpisodeEngine>(plant, *p, faults));
    }
  }
};

/// Emit one Welford + CI group: {"mean":, "stddev":, "min":, "max":,
/// "ci95": [lo, hi]}.
void append_welford_json(std::string& out, const Welford& w) {
  using jsonout::append_format;
  append_format(out, "{\"mean\": %.17g, \"stddev\": %.17g, ", w.mean(), w.stddev());
  append_format(out, "\"min\": %.17g, \"max\": %.17g, ", w.min(), w.max());
  const Interval ci = normal_interval(w);
  append_format(out, "\"ci95\": [%.17g, %.17g]}", ci.lo, ci.hi);
}

/// Emit the violation counters + Wilson interval fields shared by the
/// baseline and policy objects.
void append_violation_json(std::string& out, const PolicyStats& ps) {
  using jsonout::append_format;
  append_format(out, "\"violations\": %llu, \"left_x_episodes\": %llu, ",
                static_cast<unsigned long long>(ps.violations),
                static_cast<unsigned long long>(ps.left_x_episodes));
  const Interval wilson = wilson_interval(ps.violations, ps.episodes);
  append_format(out, "\"violation_rate\": %.17g, \"violation_ci95\": [%.17g, %.17g]",
                ps.violation_rate(), wilson.lo, wilson.hi);
}

/// Emit the per-step fault accounting: raw counters plus the Wilson
/// interval of the degraded-step rate over all aggregated control periods
/// (all zeros on fault-free campaigns -- the keys are unconditional so one
/// schema covers both modes).
void append_fault_json(std::string& out, const PolicyStats& ps) {
  using jsonout::append_format;
  append_format(out,
                "\"steps\": %llu, \"degraded_steps\": %llu, "
                "\"stale_forced\": %llu, \"policy_unavail\": %llu, "
                "\"meas_dropped\": %llu, \"act_dropped\": %llu, ",
                static_cast<unsigned long long>(ps.steps),
                static_cast<unsigned long long>(ps.degraded_steps),
                static_cast<unsigned long long>(ps.stale_forced),
                static_cast<unsigned long long>(ps.policy_unavail),
                static_cast<unsigned long long>(ps.meas_dropped),
                static_cast<unsigned long long>(ps.act_dropped));
  const Interval wilson = wilson_interval(ps.degraded_steps, ps.steps);
  append_format(out, "\"degraded_rate\": %.17g, \"degraded_ci95\": [%.17g, %.17g]",
                ps.degraded_rate(), wilson.lo, wilson.hi);
}

void append_double_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    jsonout::append_format(out, i ? ", %.17g" : "%.17g", v[i]);
  }
  out += ']';
}

void append_u64_array(std::string& out, const std::vector<std::uint64_t>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    jsonout::append_format(out, i ? ", %llu" : "%llu",
                           static_cast<unsigned long long>(v[i]));
  }
  out += ']';
}

}  // namespace

void PolicyStats::merge(const PolicyStats& other) {
  OIC_CHECK(name == other.name, "PolicyStats::merge: policy name mismatch");
  saving.merge(other.saving);
  cost.merge(other.cost);
  skipped.merge(other.skipped);
  degraded.merge(other.degraded);
  violations += other.violations;
  left_x_episodes += other.left_x_episodes;
  episodes += other.episodes;
  degraded_steps += other.degraded_steps;
  stale_forced += other.stale_forced;
  policy_unavail += other.policy_unavail;
  meas_dropped += other.meas_dropped;
  act_dropped += other.act_dropped;
  steps += other.steps;
}

std::uint64_t spec_fingerprint(const eval::ScenarioRegistry& registry,
                               const CampaignSpec& spec) {
  const Grid grid = resolve_grid(registry, spec);
  Fnv1a h;
  h.str("oic-mc");
  h.u64(spec.seed);
  h.u64(spec.episodes);
  h.u64(spec.steps);
  h.u64(spec.block);
  h.u64(grid.plants.size());
  for (const auto& pid : grid.plants) h.str(pid);
  h.u64(grid.families.size());
  for (const auto& fid : grid.families) h.str(fid);
  h.u64(spec.policies.size());
  for (const auto& p : spec.policies) h.str(p);
  // The CANONICAL fault string, so equal fault models always fingerprint
  // equally regardless of CLI spelling ("" for fault-free campaigns).  A
  // lossless checkpoint can then never resume a lossy campaign.
  h.str(registry.resolve_faults(spec.faults).canonical());
  // Rare-event mode joins the fingerprint only when active, so every
  // pre-splitting checkpoint keeps its historical fingerprint.
  if (spec.splitting || spec.falsify) {
    h.str("split");
    h.u64(spec.splitting ? 1 : 0);
    h.u64(spec.falsify ? 1 : 0);
    h.u64(spec.split_trials);
    h.u64(spec.split_batches);
    h.u64(spec.split_stages);
    h.f64(spec.split_quantile);
    h.u64(spec.levels.size());
    for (double lv : spec.levels) h.f64(lv);
    h.u64(spec.falsify_iterations);
    h.u64(spec.falsify_population);
    h.u64(spec.falsify_elites);
    h.u64(spec.falsify_probes);
  }
  return h.value();
}

void save_checkpoint(const Checkpoint& ck, std::ostream& os) {
  os << "oic-mc-checkpoint v2\n";
  os << std::setprecision(17);
  os << "fingerprint " << ck.fingerprint << '\n';
  os << "cells " << ck.cells.size() << '\n';
  for (const auto& cell : ck.cells) {
    check_token(cell.plant, "plant id");
    check_token(cell.family, "family id");
    os << "cell " << cell.plant << ' ' << cell.family << ' ' << cell.blocks_done
       << ' ' << cell.episodes << ' ' << cell.policies.size() << '\n';
    write_policy_stats(os, cell.baseline);
    for (const auto& ps : cell.policies) write_policy_stats(os, ps);
  }
  if (!ck.split_cells.empty()) {
    os << "splitting " << ck.split_cells.size() << '\n';
    for (const auto& sc : ck.split_cells) write_split_cell(os, sc);
  }
  os << "end\n";
  if (!os) throw NumericalError("save_checkpoint: stream write failed");
}

Checkpoint load_checkpoint(std::istream& is) {
  const std::string text = textio::slurp(is);
  textio::Reader in("oic-mc-checkpoint", text);
  in.expect_magic("oic-mc-checkpoint", "v2");
  Checkpoint ck;
  in.expect("fingerprint");
  ck.fingerprint = in.u64("fingerprint");
  in.expect("cells");
  const std::size_t cells = in.count("cell count", 65536);
  for (std::size_t c = 0; c < cells; ++c) {
    CellStats& cell = ck.cells.emplace_back();
    in.expect("cell");
    cell.plant = in.token("plant id");
    cell.family = in.token("family id");
    cell.blocks_done = in.u64("completed block count");
    cell.episodes = in.u64("cell episode count");
    const std::size_t policies = in.count("policy count", 256);
    cell.baseline = read_policy_stats(in);
    for (std::size_t p = 0; p < policies; ++p) {
      cell.policies.push_back(read_policy_stats(in));
    }
  }
  const std::string_view tag = in.next();
  if (tag == "splitting") {
    const std::size_t n = in.count("splitting cell count", 65536);
    for (std::size_t c = 0; c < n; ++c) ck.split_cells.push_back(read_split_cell(in));
    in.expect_end();
  } else if (tag == "end") {
    in.expect_eof();
  } else {
    in.fail("truncated document (missing 'end' sentinel)");
  }
  return ck;
}

void save_checkpoint_file(const Checkpoint& ck, const std::string& path) {
  // Temp-file rename, so a crash (or any failure below) never destroys the
  // previous resumable state (the same discipline as cert::Store::persist):
  // `path` is only ever replaced by a complete, flushed document, and a
  // failed attempt removes its temp file instead of leaking it.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw NumericalError("save_checkpoint_file: cannot open '" + tmp +
                           "' (unwritable directory?); the previous checkpoint, "
                           "if any, is intact");
    }
    try {
      save_checkpoint(ck, os);
      os.flush();
      if (!os) {
        throw NumericalError("save_checkpoint_file: write to '" + tmp +
                             "' failed (disk full?); the previous checkpoint, "
                             "if any, is intact");
      }
    } catch (...) {
      os.close();
      std::error_code rm;
      std::filesystem::remove(tmp, rm);  // best effort; the throw wins
      throw;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw NumericalError("save_checkpoint_file: rename to '" + path +
                         "' failed: " + ec.message() +
                         "; the previous checkpoint, if any, is intact");
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw NumericalError("load_checkpoint_file: cannot open " + path);
  return load_checkpoint(is);
}

namespace {

/// The rare-event campaign body (spec.splitting || spec.falsify): per
/// (plant, family) cell, optionally run the CE falsifier, then estimate
/// each unit (always-run baseline + every policy; the rare1d bed has one
/// analytic unit) by fixed-effort splitting.  The checkpoint granularity
/// is one splitting stage (or one falsifier run), and max_blocks counts
/// stages -- the determinism contract of the crude campaign carries over
/// because every trajectory is a pure function of (seed, cell, unit,
/// stage, trial).
CampaignResult run_split_campaign(const eval::ScenarioRegistry& registry,
                                  const CampaignSpec& spec) {
  OIC_REQUIRE(spec.steps >= 1, "run_campaign: need at least one step");
  OIC_REQUIRE(spec.split_trials >= 1,
              "run_campaign: need at least one splitting trial per stage");
  OIC_REQUIRE(spec.split_stages >= 1,
              "run_campaign: need at least one splitting stage");
  OIC_REQUIRE(spec.split_quantile > 0.0 && spec.split_quantile < 1.0,
              "run_campaign: split quantile must lie in (0, 1)");
  validate_levels(spec.levels);
  OIC_REQUIRE(spec.max_blocks == 0 || !spec.checkpoint.empty(),
              "run_campaign: max_blocks without a checkpoint discards the "
              "executed blocks; set spec.checkpoint to make slices resumable");
  const fault::FaultSpec faults = registry.resolve_faults(spec.faults);
  OIC_REQUIRE(!faults.active(),
              "run_campaign: splitting/falsification requires fault-free "
              "episodes (lineage replay carries no fault-stream hand-off)");

  const Grid grid = resolve_grid(registry, spec);
  const bool rare = grid.plants.front() == kRare1dPlantId;
  OIC_REQUIRE(spec.splitting || !rare,
              "run_campaign: the rare1d analytic bed is splitting-only "
              "(enable spec.splitting)");

  const eval::PolicySetFactory factory = eval::make_policy_factory(spec.policies);
  const std::size_t num_policies = spec.policies.size();
  std::vector<std::string> policy_names;
  if (!rare) {
    eval::require_policies_trained_for(spec.policies, grid.plants, "run_campaign");
    const auto probe = factory();
    for (const auto& p : probe) policy_names.push_back(p->name());
  }

  std::unique_ptr<cert::Store> store;
  cert::Provider provider;
  if (!spec.cert_dir.empty()) {
    store = std::make_unique<cert::Store>(spec.cert_dir);
    provider = store->provider();
  }

  const std::uint64_t fingerprint = spec_fingerprint(registry, spec);
  Checkpoint restored;
  bool have_checkpoint = false;
  if (!spec.checkpoint.empty() && std::filesystem::exists(spec.checkpoint)) {
    restored = load_checkpoint_file(spec.checkpoint);
    OIC_REQUIRE(restored.fingerprint == fingerprint,
                "run_campaign: checkpoint '" + spec.checkpoint +
                    "' belongs to a different campaign (fingerprint mismatch); "
                    "delete it or fix the spec");
    have_checkpoint = true;
  }

  CampaignResult out;
  out.faults = faults;
  const auto t0 = Clock::now();
  std::unique_ptr<eval::PlantCase> plant;
  std::string plant_built;
  std::size_t cell_index = 0;
  std::uint64_t budget_used = 0;
  bool stopped = false;

  const auto write_ck = [&](const SplitCellResult& current) {
    if (spec.checkpoint.empty()) return;
    Checkpoint ck;
    ck.fingerprint = fingerprint;
    ck.split_cells = out.split_cells;
    ck.split_cells.push_back(current);
    save_checkpoint_file(ck, spec.checkpoint);
  };
  const auto budget_tick = [&] {
    ++budget_used;
    if (spec.max_blocks > 0 && budget_used >= spec.max_blocks) stopped = true;
  };

  for (const auto& pid : grid.plants) {
    const eval::PlantInfo& info = registry.plant(pid);
    for (const auto& fid : grid.families) {
      SplitCellResult cell;
      if (have_checkpoint && cell_index < restored.split_cells.size()) {
        cell = restored.split_cells[cell_index];
        OIC_REQUIRE(cell.plant == pid && cell.family == fid,
                    "run_campaign: checkpoint cell grid mismatch");
        if (cell.falsified) ++out.resumed_blocks;
        for (const auto& unit : cell.units) {
          out.resumed_blocks += unit.state.stages_done();
          for (const SplitBatch& batch : unit.state.batches) {
            for (const Lineage& lin : batch.frontier) {
              validate_lineage(lin, spec.steps);
            }
          }
        }
      } else {
        cell.plant = pid;
        cell.family = fid;
      }
      const std::uint64_t cell_seed = derive_stream(spec.seed, cell_index);

      if (rare) {
        cell.p_true = rare1d_episode_p(Rare1dParams{}, spec.steps);
        if (cell.units.empty()) cell.units.push_back({"analytic", {}});
        OIC_REQUIRE(cell.units.size() == 1 && cell.units[0].policy == "analytic",
                    "run_campaign: checkpoint unit set mismatch");
        cell.seeded_levels = spec.levels;
      } else {
        if (plant_built != pid) {
          plant = info.make_plant(provider);
          plant_built = pid;
        }
        const ScenarioFamily family = family_by_id(info.signal_band, fid);
        if (spec.falsify && !cell.falsified && !stopped) {
          FalsifyConfig fc;
          fc.iterations = spec.falsify_iterations;
          fc.population = spec.falsify_population;
          fc.elites = spec.falsify_elites;
          fc.probes = spec.falsify_probes;
          fc.steps = spec.steps;
          fc.workers = spec.workers;
          // Own stream tag, so falsification never perturbs unit seeds.
          fc.seed = derive_stream(cell_seed, 0xFA15);
          cell.falsify = run_falsification(*plant, family, factory, fc);
          cell.falsified = true;
          out.episodes_run += cell.falsify.episodes;
          write_ck(cell);
          budget_tick();
        }
        if (spec.splitting) {
          if (cell.units.empty()) {
            cell.units.push_back({"always-run", {}});
            for (const auto& name : policy_names) cell.units.push_back({name, {}});
          }
          OIC_REQUIRE(cell.units.size() == 1 + num_policies &&
                          cell.units[0].policy == "always-run",
                      "run_campaign: checkpoint unit set mismatch");
          for (std::size_t p = 0; p < num_policies; ++p) {
            OIC_REQUIRE(cell.units[1 + p].policy == policy_names[p],
                        "run_campaign: checkpoint policy set mismatch");
          }
          if (cell.seeded_levels.empty()) {
            cell.seeded_levels = !spec.levels.empty()
                                     ? spec.levels
                                     : (cell.falsified
                                            ? cell.falsify.suggested_levels
                                            : std::vector<double>{});
          }
        }
      }

      if (spec.splitting) {
        for (std::size_t u = 0; u < cell.units.size() && !stopped; ++u) {
          SplitUnitResult& unit = cell.units[u];
          if (unit.state.done) continue;
          SplitConfig scfg;
          scfg.trials = spec.split_trials;
          scfg.batches = spec.split_batches;
          scfg.max_stages = spec.split_stages;
          scfg.levels = cell.seeded_levels;
          scfg.quantile = spec.split_quantile;
          scfg.seed = derive_stream(cell_seed, 0x5147 + u);
          scfg.workers = spec.workers;
          SplitProcessFactory pf;
          if (rare) {
            pf = [steps = spec.steps] {
              return make_rare1d_process(Rare1dParams{}, steps);
            };
          } else {
            pf = [&plant = *plant, &factory, u, steps = spec.steps,
                  &info, &fid] {
              const ScenarioFamily fam = family_by_id(info.signal_band, fid);
              std::unique_ptr<core::SkipPolicy> pol;
              if (u > 0) {
                auto set = factory();
                pol = std::move(set[u - 1]);
              }
              return make_plant_split_process(plant, fam, std::move(pol), steps);
            };
          }
          SplitRunner runner(std::move(pf), scfg);
          while (!unit.state.done && !stopped) {
            const std::uint64_t before = unit.state.episodes();
            runner.advance(unit.state);
            out.episodes_run += unit.state.episodes() - before;
            write_ck(cell);
            budget_tick();
          }
        }
      }

      out.split_cells.push_back(std::move(cell));
      ++cell_index;
      if (stopped) break;
    }
    if (stopped) break;
  }

  out.wall_s = seconds_since(t0);
  out.total_steps = out.episodes_run * spec.steps;
  for (const auto& cell : out.split_cells) {
    if (cell.falsified) out.episodes += cell.falsify.episodes;
    const bool analytic = cell.p_true >= 0.0;
    if (cell.falsified && cell.falsify.violation) out.safety_violations = true;
    for (const auto& unit : cell.units) {
      out.episodes += unit.state.episodes();
      // A real plant reaching the violation boundary with a surviving
      // clone is a hard safety violation (Theorem 1 says: never).  The
      // rare1d bed is *supposed* to violate -- that is the ground truth.
      if (analytic) continue;
      for (const SplitBatch& b : unit.state.batches) {
        const SplitEstimate& e = b.estimate;
        if (!e.levels.empty() && e.levels.back() >= 0.0 &&
            e.survivors.back() > 0) {
          out.safety_violations = true;
        }
      }
    }
  }
  return out;
}

}  // namespace

CampaignResult run_campaign(const eval::ScenarioRegistry& registry,
                            const CampaignSpec& spec) {
  if (spec.splitting || spec.falsify) return run_split_campaign(registry, spec);
  OIC_REQUIRE(spec.episodes >= 1, "run_campaign: need at least one episode");
  OIC_REQUIRE(spec.steps >= 1, "run_campaign: need at least one step");
  OIC_REQUIRE(spec.block >= 1, "run_campaign: need a positive block size");
  OIC_REQUIRE(spec.checkpoint_blocks >= 1,
              "run_campaign: need a positive checkpoint cadence");
  // A block budget without a checkpoint would throw the executed work
  // away and report partial statistics as a finished campaign.
  OIC_REQUIRE(spec.max_blocks == 0 || !spec.checkpoint.empty(),
              "run_campaign: max_blocks without a checkpoint discards the "
              "executed blocks; set spec.checkpoint to make slices resumable");

  const Grid grid = resolve_grid(registry, spec);
  const eval::PolicySetFactory factory = eval::make_policy_factory(spec.policies);
  const std::size_t num_policies = spec.policies.size();
  // Resolve the fault model once (preset id or raw grammar); every engine
  // and every per-episode fault stream below derives from it.
  const fault::FaultSpec faults = registry.resolve_faults(spec.faults);
  const bool faulted = faults.active();

  // Trained agents are plant-specific: a drl:<path> policy with
  // provenance pins the whole grid to its plant (shared rule with
  // eval::run_sweep).
  eval::require_policies_trained_for(spec.policies, grid.plants, "run_campaign");

  // Policy display names, probed once (block accumulators and restored
  // checkpoints must agree on them).
  std::vector<std::string> policy_names;
  {
    const auto probe = factory();
    for (const auto& p : probe) policy_names.push_back(p->name());
  }

  std::unique_ptr<cert::Store> store;
  cert::Provider provider;
  if (!spec.cert_dir.empty()) {
    store = std::make_unique<cert::Store>(spec.cert_dir);
    provider = store->provider();
  }

  const std::uint64_t fingerprint = spec_fingerprint(registry, spec);
  Checkpoint restored;
  bool have_checkpoint = false;
  if (!spec.checkpoint.empty() && std::filesystem::exists(spec.checkpoint)) {
    restored = load_checkpoint_file(spec.checkpoint);
    OIC_REQUIRE(restored.fingerprint == fingerprint,
                "run_campaign: checkpoint '" + spec.checkpoint +
                    "' belongs to a different campaign (fingerprint mismatch); "
                    "delete it or fix the spec");
    have_checkpoint = true;
  }

  const std::uint64_t total_blocks = (spec.episodes + spec.block - 1) / spec.block;

  CampaignResult out;
  const auto t0 = Clock::now();
  std::unique_ptr<eval::PlantCase> plant;
  std::string plant_built;
  std::size_t cell_index = 0;
  std::uint64_t blocks_budget_used = 0;
  bool stopped = false;
  for (const auto& pid : grid.plants) {
    const eval::PlantInfo& info = registry.plant(pid);
    for (const auto& fid : grid.families) {
      const ScenarioFamily family = family_by_id(info.signal_band, fid);
      CellStats cell;
      if (have_checkpoint && cell_index < restored.cells.size()) {
        cell = restored.cells[cell_index];
        OIC_REQUIRE(cell.plant == pid && cell.family == fid &&
                        cell.policies.size() == num_policies,
                    "run_campaign: checkpoint cell grid mismatch");
        for (std::size_t p = 0; p < num_policies; ++p) {
          OIC_REQUIRE(cell.policies[p].name == policy_names[p],
                      "run_campaign: checkpoint policy set mismatch");
        }
        out.resumed_blocks += cell.blocks_done;
      } else {
        cell.plant = pid;
        cell.family = fid;
        cell.baseline.name = "always-run";
        cell.policies.resize(num_policies);
        for (std::size_t p = 0; p < num_policies; ++p) {
          cell.policies[p].name = policy_names[p];
        }
      }

      const std::uint64_t cell_seed = derive_stream(spec.seed, cell_index);
      // Worker slots for this cell, built lazily once the plant exists
      // and reused across rounds (slot == chunk index; a round never
      // assigns one slot to two concurrent chunks).
      std::vector<std::unique_ptr<WorkerCtx>> worker_ctxs(
          spec.workers ? spec.workers
                       : std::max<std::size_t>(1, std::thread::hardware_concurrency()));
      while (!stopped && cell.blocks_done < total_blocks) {
        if (plant_built != pid) {
          plant = info.make_plant(provider);
          plant_built = pid;
        }
        // A round is what runs before the next checkpoint write: all
        // remaining blocks when checkpointing is off.  The per-process
        // block budget (max_blocks) caps it further.
        std::uint64_t round = total_blocks - cell.blocks_done;
        if (!spec.checkpoint.empty()) {
          round = std::min(round, spec.checkpoint_blocks);
        }
        if (spec.max_blocks > 0) {
          OIC_CHECK(spec.max_blocks > blocks_budget_used,
                    "run_campaign: block budget accounting drifted");
          round = std::min(round, spec.max_blocks - blocks_budget_used);
        }
        const std::uint64_t first_block = cell.blocks_done;

        // Per-block partial accumulators, merged in block order below:
        // the block is the floating-point association unit, so results
        // cannot depend on the worker partition.
        std::vector<CellStats> blocks(round);
        run_chunked(
            static_cast<std::size_t>(round), spec.workers,
            [&](std::size_t chunk, std::size_t b0, std::size_t b1) {
              OIC_CHECK(chunk < worker_ctxs.size(),
                        "run_campaign: chunk index exceeds worker slots");
              if (!worker_ctxs[chunk]) {
                worker_ctxs[chunk] =
                    std::make_unique<WorkerCtx>(*plant, factory, num_policies, faults);
              }
              WorkerCtx& ctx = *worker_ctxs[chunk];
              eval::EpisodeEngine& base_engine = ctx.base_engine;
              auto& engines = ctx.engines;
              for (std::size_t b = b0; b < b1; ++b) {
                CellStats& acc = blocks[b];
                acc.baseline.name = "always-run";
                acc.policies.resize(num_policies);
                for (std::size_t p = 0; p < num_policies; ++p) {
                  acc.policies[p].name = policy_names[p];
                }
                const std::uint64_t e0 = (first_block + b) * spec.block;
                const std::uint64_t e1 = std::min(spec.episodes, e0 + spec.block);
                for (std::uint64_t e = e0; e < e1; ++e) {
                  // The episode stream is a pure function of
                  // (seed, cell, episode); scenario parameters and the
                  // case realization both come from it.
                  Rng ep_rng(derive_stream(cell_seed, e));
                  const eval::Scenario scenario = family.sample(ep_rng);
                  const eval::CaseData data =
                      eval::make_case(*plant, scenario, ep_rng, spec.steps, faulted);
                  const eval::EpisodeResult base = base_engine.run(data);
                  add_baseline(acc.baseline, base);
                  for (std::size_t p = 0; p < num_policies; ++p) {
                    add_policy(acc.policies[p], base, engines[p]->run(data));
                  }
                }
              }
            });
        for (std::uint64_t b = 0; b < round; ++b) {
          merge_cell(cell, blocks[static_cast<std::size_t>(b)]);
          out.episodes_run +=
              blocks[static_cast<std::size_t>(b)].baseline.episodes *
              (num_policies + 1);
        }
        cell.blocks_done += round;
        cell.episodes = cell.baseline.episodes;
        blocks_budget_used += round;

        if (!spec.checkpoint.empty()) {
          Checkpoint ck;
          ck.fingerprint = fingerprint;
          ck.cells = out.cells;  // completed cells so far
          ck.cells.push_back(cell);
          save_checkpoint_file(ck, spec.checkpoint);
        }
        if (spec.max_blocks > 0 && blocks_budget_used >= spec.max_blocks) {
          stopped = true;
        }
      }
      out.cells.push_back(std::move(cell));
      ++cell_index;
      if (stopped) break;
    }
    if (stopped) break;
  }
  out.wall_s = seconds_since(t0);
  out.total_steps = out.episodes_run * spec.steps;
  out.faults = faults;
  // Fault-free campaigns: any violation (left_x or left_xi) is a bug
  // (Theorem 1).  Faulted campaigns: XI excursions are the measured
  // degradation; only leaving the hard safe set X counts as a violation.
  for (const auto& cell : out.cells) {
    out.episodes += cell.baseline.episodes;
    out.safety_violations =
        out.safety_violations ||
        (faulted ? cell.baseline.left_x_episodes > 0 : cell.baseline.violations > 0);
    for (const auto& ps : cell.policies) {
      out.episodes += ps.episodes;
      out.safety_violations =
          out.safety_violations ||
          (faulted ? ps.left_x_episodes > 0 : ps.violations > 0);
    }
  }
  return out;
}

std::string campaign_json(const CampaignSpec& spec, const CampaignResult& result) {
  using jsonout::append_format;
  using jsonout::append_string;
  using jsonout::append_string_array;

  jsonout::Doc doc("oic_mc");
  std::string& out = doc.body();

  append_format(out,
                "  \"config\": {\"episodes\": %llu, \"steps\": %zu, "
                "\"workers\": %zu, \"block\": %llu, ",
                static_cast<unsigned long long>(spec.episodes), spec.steps,
                spec.workers, static_cast<unsigned long long>(spec.block));
  out += "\"policies\": ";
  append_string_array(out, spec.policies);
  append_format(out, ", \"seed\": %llu, \"plants\": ",
                static_cast<unsigned long long>(spec.seed));
  append_string_array(out, spec.plants);
  out += ", \"families\": ";
  append_string_array(out, spec.families);
  out += ", \"cert_dir\": ";
  append_string(out, spec.cert_dir);
  out += ", \"checkpoint\": ";
  append_string(out, spec.checkpoint);
  out += ", \"faults\": ";
  append_string(out, result.faults.canonical());
  out += ", \"splitting\": ";
  out += spec.splitting ? "true" : "false";
  out += ", \"falsify\": ";
  out += spec.falsify ? "true" : "false";
  append_format(out,
                ", \"split_trials\": %llu, \"split_batches\": %llu, "
                "\"split_stages\": %llu, "
                "\"split_quantile\": %.17g, \"levels\": ",
                static_cast<unsigned long long>(spec.split_trials),
                static_cast<unsigned long long>(spec.split_batches),
                static_cast<unsigned long long>(spec.split_stages),
                spec.split_quantile);
  append_double_array(out, spec.levels);
  out += "},\n";

  append_format(out,
                "  \"campaign\": {\"wall_s\": %.6f, \"episodes\": %llu, "
                "\"episodes_run\": %llu, \"episodes_per_s\": %.3f, "
                "\"step_ns\": %.1f, \"cells\": %zu, \"resumed_blocks\": %llu},\n",
                result.wall_s, static_cast<unsigned long long>(result.episodes),
                static_cast<unsigned long long>(result.episodes_run),
                result.episodes_per_s(), result.step_ns(), result.cells.size(),
                static_cast<unsigned long long>(result.resumed_blocks));

  if (spec.splitting || spec.falsify) {
    out += "  \"mc_splitting\": {\"cells\": [\n";
    for (std::size_t i = 0; i < result.split_cells.size(); ++i) {
      const SplitCellResult& cell = result.split_cells[i];
      out += "    {\"plant\": ";
      append_string(out, cell.plant);
      out += ", \"family\": ";
      append_string(out, cell.family);
      if (cell.p_true >= 0.0) {
        append_format(out, ", \"p_true\": %.17g", cell.p_true);
      }
      out += ", \"seeded_levels\": ";
      append_double_array(out, cell.seeded_levels);
      if (cell.falsified) {
        const FalsifyResult& f = cell.falsify;
        append_format(out,
                      ",\n     \"falsify\": {\"worst_level\": %.17g, "
                      "\"violation\": %s, \"episodes\": %llu, "
                      "\"suggested_levels\": ",
                      f.worst_level, f.violation ? "true" : "false",
                      static_cast<unsigned long long>(f.episodes));
        append_double_array(out, f.suggested_levels);
        const MixtureParams& p = f.worst;
        out += ", \"worst\": {\"label\": ";
        append_string(out, p.label);
        append_format(out, ", \"center\": %.17g, \"sines\": [", p.center);
        for (std::size_t s = 0; s < p.sines.size(); ++s) {
          append_format(out, s ? ", [%.17g, %.17g, %.17g]" : "[%.17g, %.17g, %.17g]",
                        p.sines[s].amplitude, p.sines[s].omega, p.sines[s].phase);
        }
        append_format(out,
                      "], \"noise_gain\": %.17g, \"noise_alpha\": %.17g, "
                      "\"burst_rate\": %.17g, \"burst_len\": [%zu, %zu], "
                      "\"burst_amp\": %.17g, \"ramp_rate\": %.17g, "
                      "\"ramp_span\": %.17g, \"ramp_slew\": %.17g}}",
                      p.noise_gain, p.noise_alpha, p.burst_rate, p.burst_len_min,
                      p.burst_len_max, p.burst_amp, p.ramp_rate, p.ramp_span,
                      p.ramp_slew);
      }
      out += ",\n     \"units\": [\n";
      for (std::size_t u = 0; u < cell.units.size(); ++u) {
        const SplitUnitResult& unit = cell.units[u];
        const SplitState& st = unit.state;
        std::uint64_t trials = 0;
        for (const SplitBatch& b : st.batches) {
          trials = std::max(trials, b.estimate.trials);
        }
        out += "      {\"policy\": ";
        append_string(out, unit.policy);
        const Interval ci = st.ci95();
        append_format(out,
                      ", \"done\": %s, \"trials\": %llu, "
                      "\"episodes\": %llu, \"extinct_batches\": %zu,\n       "
                      "\"p_hat\": %.17g, \"ci95\": [%.17g, %.17g], "
                      "\"batches\": [\n",
                      st.done ? "true" : "false",
                      static_cast<unsigned long long>(trials),
                      static_cast<unsigned long long>(st.episodes()),
                      st.extinct_batches(), st.p_hat(), ci.lo, ci.hi);
        for (std::size_t b = 0; b < st.batches.size(); ++b) {
          const SplitEstimate& e = st.batches[b].estimate;
          append_format(out,
                        "        {\"done\": %s, \"extinct\": %s, "
                        "\"p_hat\": %.17g, \"log_sigma\": ",
                        st.batches[b].done ? "true" : "false",
                        e.extinct() ? "true" : "false", e.p_hat());
          const double ls = e.log_sigma();
          if (std::isfinite(ls)) {
            append_format(out, "%.17g", ls);
          } else {
            out += "null";  // extinct runs: the log-scale error is unbounded
          }
          out += ", \"levels\": ";
          append_double_array(out, e.levels);
          out += ", \"survivors\": ";
          append_u64_array(out, e.survivors);
          out += (b + 1 < st.batches.size()) ? "},\n" : "}\n";
        }
        out += "       ]";
        out += (u + 1 < cell.units.size()) ? "},\n" : "}\n";
      }
      out += (i + 1 < result.split_cells.size()) ? "     ]},\n" : "     ]}\n";
    }
    out += "  ]},\n";
  }

  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellStats& cell = result.cells[i];
    out += "    {\"plant\": ";
    append_string(out, cell.plant);
    out += ", \"family\": ";
    append_string(out, cell.family);
    append_format(out, ", \"episodes\": %llu,\n",
                  static_cast<unsigned long long>(cell.episodes));
    out += "     \"baseline\": {\"cost\": ";
    append_welford_json(out, cell.baseline.cost);
    out += ", ";
    append_violation_json(out, cell.baseline);
    out += ",\n      ";
    append_fault_json(out, cell.baseline);
    out += "},\n     \"policies\": [\n";
    for (std::size_t p = 0; p < cell.policies.size(); ++p) {
      const PolicyStats& ps = cell.policies[p];
      out += "      {\"name\": ";
      append_string(out, ps.name);
      append_format(out, ", \"episodes\": %llu, \"saving\": ",
                    static_cast<unsigned long long>(ps.episodes));
      append_welford_json(out, ps.saving);
      out += ", \"cost\": ";
      append_welford_json(out, ps.cost);
      out += ", \"skipped\": ";
      append_welford_json(out, ps.skipped);
      out += ", \"degraded\": ";
      append_welford_json(out, ps.degraded);
      out += ",\n       ";
      append_violation_json(out, ps);
      out += ",\n       ";
      append_fault_json(out, ps);
      out += (p + 1 < cell.policies.size()) ? "},\n" : "}\n";
    }
    out += (i + 1 < result.cells.size()) ? "    ]},\n" : "    ]}\n";
  }
  out += "  ],\n";
  return std::move(doc).finish(result.safety_violations);
}

}  // namespace oic::mc
