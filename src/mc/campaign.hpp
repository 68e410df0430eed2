#pragma once
/// \file campaign.hpp
/// Monte Carlo campaign engine: randomized N-episode safety/saving
/// estimation over the plant registry, in constant memory.
///
/// A campaign sweeps (plant x family) cells.  Each cell runs `episodes`
/// independent episodes: episode e derives its own Rng stream as
/// derive_stream(derive_stream(seed, cell), e), samples a fresh scenario
/// from the cell's ScenarioFamily, draws a case (x0 + signal realization),
/// and evaluates the always-run baseline plus every policy on it through
/// per-worker eval::EpisodeEngines.  Nothing per-episode is stored:
/// results stream into Welford accumulators (mean/variance/extrema of
/// saving, cost, skipped steps) and violation counters, from which the
/// report derives Wilson intervals for the violation rate and normal
/// intervals for saving/cost -- so N = 10^6 costs the same memory as
/// N = 10.
///
/// Determinism contract: episodes are aggregated in *blocks* of
/// `spec.block` episodes.  A block is accumulated sequentially in episode
/// order, blocks are merged into the cell strictly in block order, and
/// the episode seeds are pure functions of (seed, cell, episode) -- so
/// campaign results are bit-identical for any worker count and across
/// checkpoint/resume boundaries (the block, never the worker chunk, is
/// the floating-point association unit).
///
/// Checkpointing: with spec.checkpoint set, the accumulated cell stats
/// are serialized (text, 17 significant digits => doubles round-trip bit
/// for bit) every `checkpoint_blocks` completed blocks.  A fresh run
/// whose spec fingerprint matches an existing checkpoint resumes from the
/// recorded block boundary and finishes with bit-identical statistics.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "eval/registry.hpp"
#include "mc/falsify.hpp"
#include "mc/family.hpp"
#include "mc/splitting.hpp"

namespace oic::mc {

/// Campaign configuration (the oic_mc CLI surface).
struct CampaignSpec {
  std::vector<std::string> plants;    ///< registry ids; empty = all
  std::vector<std::string> families;  ///< family ids; empty = all standard
  std::vector<std::string> policies = {"bang-bang", "periodic-5"};
  std::uint64_t episodes = 1000;  ///< episodes per (plant, family) cell
  std::size_t steps = 100;        ///< control periods per episode
  std::uint64_t seed = 20200406;  ///< sole randomness knob
  std::size_t workers = 0;        ///< 0 = hardware concurrency
  /// Episodes per aggregation block -- the merge unit that fixes the
  /// floating-point association (see file comment).  Part of the spec
  /// fingerprint: changing it changes the (still valid) statistics.
  std::uint64_t block = 256;
  std::string cert_dir;    ///< certificate cache (cert::Store); "" = fresh
  std::string checkpoint;  ///< stats checkpoint path; "" = disabled
  std::uint64_t checkpoint_blocks = 64;  ///< write cadence in blocks
  /// Block budget for THIS process: stop (after a checkpoint write) once
  /// this many blocks have executed, 0 = run to completion.  Long
  /// campaigns run in slices -- each slice resumes the checkpoint and
  /// burns its budget -- and the final statistics are bit-identical to a
  /// single uninterrupted run.  Not part of the fingerprint.
  std::uint64_t max_blocks = 0;
  /// Fault model for every episode: "" / "off" (default), a registered
  /// preset id, or the fault::FaultSpec::parse grammar.  The CANONICAL
  /// spec string is part of the fingerprint (a checkpoint from a lossless
  /// campaign must not resume a lossy one), and the per-episode fault
  /// stream is a pure function of (seed, cell, episode) -- worker-count
  /// and resume bit-invariance hold with faults on.
  std::string faults;

  // ---- Rare-event mode (splitting / falsification) -------------------
  // These fields select an alternative campaign body: instead of crude
  // per-episode violation counting, each (plant, family) cell is estimated
  // by fixed-effort multilevel splitting (mc/splitting.hpp) and/or probed
  // by the CE falsifier (mc/falsify.hpp).  All of them (when either mode
  // is on) join the spec fingerprint; fault models must be inactive
  // (lineage replay carries no fault-stream hand-off).

  /// Estimate violation probabilities by importance splitting.
  bool splitting = false;
  /// Run the cross-entropy falsifier per cell.  Combined with `splitting`
  /// its peak-level quantiles seed the ladder when `levels` is empty;
  /// alone it reports the worst-case profile per cell.
  bool falsify = false;
  /// Explicit splitting ladder (strictly increasing, finite, all < 0);
  /// empty = falsify-seeded (when enabled) else adaptive placement.
  std::vector<double> levels;
  std::uint64_t split_trials = 256;   ///< fixed effort N per stage PER BATCH
  /// Independent splitting replicates per unit (>= 2).  The combined CI is
  /// the empirical spread across batches (see mc::SplitState::ci95), which
  /// is what makes it honest under clone correlation.
  std::uint64_t split_batches = 16;
  std::uint64_t split_stages = 24;   ///< adaptive stage cap per batch
  double split_quantile = 0.25;      ///< adaptive survivor fraction
  std::uint64_t falsify_iterations = 6;
  std::uint64_t falsify_population = 24;
  std::uint64_t falsify_elites = 6;
  std::uint64_t falsify_probes = 3;
};

/// Streaming statistics of one policy within one cell.
struct PolicyStats {
  std::string name;  ///< policy display name (core::SkipPolicy::name())
  Welford saving;    ///< paired running-cost saving vs always-run
  Welford cost;      ///< running-cost total per episode
  Welford skipped;   ///< skipped steps per episode
  Welford degraded;  ///< degraded-mode steps per episode (faulted runs)
  std::uint64_t violations = 0;       ///< episodes with left_x || left_xi
  std::uint64_t left_x_episodes = 0;  ///< episodes with left_x (Theorem 1)
  std::uint64_t episodes = 0;
  /// Fault accounting over all aggregated control periods (zero on
  /// fault-free campaigns).  `steps` is the Wilson-interval denominator
  /// for the per-step degradation rates.
  std::uint64_t degraded_steps = 0;
  std::uint64_t stale_forced = 0;
  std::uint64_t policy_unavail = 0;
  std::uint64_t meas_dropped = 0;
  std::uint64_t act_dropped = 0;
  std::uint64_t steps = 0;

  double violation_rate() const {
    return episodes ? static_cast<double>(violations) / static_cast<double>(episodes)
                    : 0.0;
  }
  double degraded_rate() const {
    return steps ? static_cast<double>(degraded_steps) / static_cast<double>(steps)
                 : 0.0;
  }

  /// Fold `other` into this (fixed order: callers merge in block order).
  void merge(const PolicyStats& other);
};

/// One (plant, family) cell: the always-run baseline plus every policy.
/// The baseline's `saving`/`skipped` accumulators stay empty.
struct CellStats {
  std::string plant;
  std::string family;
  PolicyStats baseline;
  std::vector<PolicyStats> policies;
  std::uint64_t blocks_done = 0;  ///< completed aggregation blocks
  std::uint64_t episodes = 0;     ///< episodes aggregated (per policy)
};

/// One splitting estimation unit inside a cell: the always-run baseline,
/// one policy, or the rare1d analytic bed.  Carries the full resumable
/// SplitState so checkpoints can stop between stages and resume with
/// bit-identical results.
struct SplitUnitResult {
  std::string policy;  ///< "always-run", a policy display name, or "analytic"
  SplitState state;
};

/// One (plant, family) cell of a splitting / falsification campaign.
struct SplitCellResult {
  std::string plant;
  std::string family;
  bool falsified = false;  ///< the falsifier ran (falsify below is valid)
  FalsifyResult falsify;
  /// The explicit ladder the units ran with (spec levels, else the
  /// falsifier's suggestion); empty = adaptive placement.
  std::vector<double> seeded_levels;
  /// Analytic ground-truth violation probability; < 0 = none (real plants).
  /// The rare1d bed sets it, and tests assert the estimate's CI covers it.
  double p_true = -1.0;
  std::vector<SplitUnitResult> units;
};

/// Whole-campaign outcome.
struct CampaignResult {
  std::vector<CellStats> cells;
  /// Splitting / falsification cells (empty unless spec.splitting or
  /// spec.falsify; `cells` is empty in that mode).
  std::vector<SplitCellResult> split_cells;
  double wall_s = 0.0;
  std::uint64_t episodes = 0;       ///< episode runs aggregated (incl. baseline)
  std::uint64_t episodes_run = 0;   ///< episode runs executed this process
  std::uint64_t total_steps = 0;    ///< control periods executed this process
  std::uint64_t resumed_blocks = 0; ///< blocks restored from a checkpoint
  /// Fault-free campaigns: any left_x / left_xi anywhere (Theorem 1:
  /// never).  Faulted campaigns: any left_x (hard safe-set violation) --
  /// XI excursions are the measured degradation there, not a bug.
  bool safety_violations = false;
  fault::FaultSpec faults;          ///< resolved fault model (inactive = none)

  double episodes_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(episodes_run) / wall_s : 0.0;
  }
  double step_ns() const {
    return total_steps ? 1e9 * wall_s / static_cast<double>(total_steps) : 0.0;
  }
};

/// Fingerprint over the statistics-shaping spec fields (seed, episodes,
/// steps, block, plants, families, policies, canonical fault spec -- NOT
/// workers / cert_dir / checkpoint cadence, which cannot change results).
/// Guards checkpoint resumption against a mismatched campaign.
std::uint64_t spec_fingerprint(const eval::ScenarioRegistry& registry,
                               const CampaignSpec& spec);

/// Serialized campaign progress (the `oic-mc-checkpoint v2` text format;
/// v2 added the per-policy fault accounting, so v1 files are rejected).
/// Splitting / falsification campaigns append an optional `splitting`
/// section before the end sentinel: per-cell falsifier outcomes plus each
/// unit's per-batch completed-stage counters and frontier lineages --
/// integers and levels only; every estimate is re-derived from them on
/// load, which is what makes resume bit-exact.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  std::vector<CellStats> cells;             ///< prefix of cells with progress
  std::vector<SplitCellResult> split_cells; ///< splitting-mode progress
};

void save_checkpoint(const Checkpoint& ck, std::ostream& os);
Checkpoint load_checkpoint(std::istream& is);
void save_checkpoint_file(const Checkpoint& ck, const std::string& path);
Checkpoint load_checkpoint_file(const std::string& path);

/// Run the campaign (see file comment).  Resumes from spec.checkpoint when
/// the file exists and its fingerprint matches; throws PreconditionError
/// when it exists but belongs to a different campaign.  Throws on unknown
/// plant/family/policy ids or empty grids.
CampaignResult run_campaign(const eval::ScenarioRegistry& registry,
                            const CampaignSpec& spec);

/// Render the campaign as a JSON document (schema conventions shared with
/// oic_eval: "bench" tag, "meta" provenance, "config",
/// a "campaign" timing block, per-cell "results", "safety_violations").
std::string campaign_json(const CampaignSpec& spec, const CampaignResult& result);

}  // namespace oic::mc
