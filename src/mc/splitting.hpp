#pragma once
/// \file splitting.hpp
/// Importance splitting (fixed-effort multilevel splitting) for rare
/// violation events.
///
/// A crude campaign that sees zero violations in 10^6 episodes only buys a
/// ~3.7e-6 Wilson upper bound -- far short of the 1e-9-class targets a
/// production monitor must certify.  Multilevel splitting estimates such
/// probabilities directly: a *level function* measures how close an episode
/// comes to the constraint boundary, a ladder of intermediate levels
/// L_1 < L_2 < ... < 0 decomposes the rare event {reach 0} into a product
/// of conditional events {reach L_k | reached L_(k-1)}, and each stage
/// re-clones the trajectories that reached the last level so every stage
/// estimates a *moderate* conditional probability with fixed effort N.
///
///   p_hat = prod_k S_k / N,   S_k = survivors of stage k,
///
/// with the asymptotic log-scale variance  sigma_log^2 =
/// sum_k (1 - p_k) / (N p_k)  and the 95% CI
/// [p_hat e^{-z sigma}, p_hat e^{+z sigma}] (see docs/mc_stats.md).
///
/// Cloning is by *lineage replay*, not state snapshotting: a trajectory is
/// a pure function of its Lineage -- an ordered list of (from_step, seed)
/// random-stream hand-offs -- so a clone of a parent at crossing step t is
/// simply the parent's lineage truncated to entries with from_step <= t
/// plus one fresh entry (t + 1, new seed).  Replaying a lineage costs one
/// episode, needs no controller/solver serialization, and keeps the PR-5
/// contract for free: estimates are bit-identical for any worker count and
/// across checkpoint/resume boundaries, because every trajectory is a pure
/// function of (spec seed, stage, trial index).
///
/// The analytic `rare1d` bed (registered test-only in the scenario
/// registry) pins the estimator *statistically*: its violation probability
/// has a closed form at the 1e-8 scale, and tests assert the splitting
/// estimate lands inside its own 95% CI across seeds.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "core/policy.hpp"
#include "eval/plant.hpp"
#include "mc/family.hpp"
#include "poly/hpolytope.hpp"

namespace oic::mc {

/// Normalized signed distance to a polytope's boundary:
///
///   level(x) = max_i (a_i . x - b_i) / ||a_i||_2 ,
///
/// negative strictly inside, zero exactly on the boundary, positive
/// outside.  This is the row-normalized variant of HPolytope::violation():
/// dividing by the facet-normal norms makes the value a geometric distance
/// (exact for the nearest facet, conservative at corners), so one level
/// ladder is meaningful across plants with differently scaled constraint
/// rows.  Rows with (near-)zero norm contribute b_i-sign only, matching
/// the trivial-halfspace semantics of HPolytope.
class LevelFunction {
 public:
  explicit LevelFunction(const poly::HPolytope& set);

  double operator()(const linalg::Vector& x) const;

  std::size_t dim() const { return a_.cols(); }

 private:
  linalg::Matrix a_;
  linalg::Vector b_;
  std::vector<double> inv_norm_;
};

/// One random-stream hand-off of a splitting trajectory: from `from_step`
/// on, the episode's stochastic draws come from a fresh Rng(seed).  The
/// first entry of every lineage has from_step == 0 (the root stream).
struct LineageEntry {
  std::size_t from_step = 0;
  std::uint64_t seed = 0;
};
using Lineage = std::vector<LineageEntry>;

/// Throws PreconditionError unless `lin` is a well-formed lineage for an
/// episode of `steps` steps: non-empty, first entry at step 0, strictly
/// increasing from_steps, none beyond `steps`.
void validate_lineage(const Lineage& lin, std::size_t steps);

/// A rare-event process the splitting engine can clone by lineage replay.
/// Implementations are stateful simulators (one per worker; not
/// thread-safe), but trace() must be a *pure function* of the lineage:
/// the same lineage yields the bit-identical trace on every call.
class SplitProcess {
 public:
  virtual ~SplitProcess() = default;

  /// Episode length in steps (>= 1).
  virtual std::size_t steps() const = 0;

  /// Simulate the episode defined by `lineage` and fill `levels` with the
  /// RUNNING MAXIMUM of the level function after each step (size steps(),
  /// monotone non-decreasing).  levels[t] >= L means the trajectory
  /// crossed L at or before step t; the trajectory violates iff
  /// levels.back() >= 0.
  virtual void trace(const Lineage& lineage, std::vector<double>& levels) = 0;
};

/// Builds one per-worker SplitProcess instance.  Must be callable
/// concurrently and every instance must trace identically.
using SplitProcessFactory = std::function<std::unique_ptr<SplitProcess>()>;

/// Fixed-effort splitting configuration.
struct SplitConfig {
  /// Trials (clones) per stage PER BATCH -- the fixed effort N.  >= 1.
  std::uint64_t trials = 256;
  /// Independent batches (replicate splitting runs).  The combined point
  /// estimate is the arithmetic batch mean and the 95% CI is EMPIRICAL
  /// across batches -- within one population, cloned trajectories share
  /// ancestors (and branch times), which correlates the stage estimates
  /// and makes the textbook independent-stage variance optimistic; only
  /// genuinely independent replicates measure that correlation honestly.
  /// >= 2 (one replicate carries no spread information).
  std::uint64_t batches = 16;
  /// Hard cap on the number of stages per batch (adaptive ladders only; an
  /// explicit ladder of m levels always runs exactly m + 1 stages).
  std::uint64_t max_stages = 24;
  /// Explicit level ladder: strictly increasing, finite, all < 0.  Empty =
  /// adaptive placement (next level = the order statistic keeping
  /// `quantile` of the stage's trials; on ties it ratchets to the smallest
  /// strictly better trial max, and clamps to 0 when nothing progressed).
  std::vector<double> levels;
  /// Adaptive survivor fraction target, in (0, 1).
  double quantile = 0.25;
  /// Root stream; batch b derives derive_stream(seed, b), and every
  /// stage/trial seed derives from that.
  std::uint64_t seed = 0;
  /// Worker count; 0 = hardware concurrency.  Never affects results.
  std::size_t workers = 0;
};

/// Throws PreconditionError unless `levels` is a valid explicit ladder:
/// every entry finite and < 0, strictly increasing.  (Empty is valid: it
/// selects adaptive placement.)
void validate_levels(const std::vector<double>& levels);

/// Parse a comma-separated `--levels` ladder ("-0.5,-0.25,-0.1").  Strict:
/// every item must be a full double literal, and the result must pass
/// validate_levels (NaN/inf thresholds, non-monotone ladders, and values
/// >= 0 are all rejected with a diagnostic).
std::vector<double> parse_levels(const std::string& text);

/// Parse a `--split-quantile` survivor fraction: one textio finite token
/// strictly inside (0, 1).  Hex, blank-led and out-of-range spellings
/// throw PreconditionError.
double parse_split_quantile(const std::string& text);

/// Outcome of ONE BATCH of splitting.  levels/survivors are parallel
/// arrays, one entry per completed stage; the ladder ends at 0.0 unless
/// the run went extinct on an intermediate explicit level first.  The
/// estimate and its within-batch CI are *derived* from these integers
/// (plus trials), which is what makes checkpoint resume bit-exact: only
/// counts are serialized, never floating-point aggregates.
struct SplitEstimate {
  std::vector<double> levels;            ///< stage levels, strictly increasing
  std::vector<std::uint64_t> survivors;  ///< trials that reached levels[k]
  std::uint64_t trials = 0;              ///< fixed effort N per stage
  std::uint64_t episodes = 0;            ///< total trajectory simulations

  /// True when some stage lost every clone (p_hat() == 0).
  bool extinct() const;

  /// prod_k survivors[k] / trials; 0 before any stage completed.
  double p_hat() const;

  /// NOMINAL log-scale standard error sqrt(sum_k (1 - p_k) / (N p_k)); 0
  /// when no stage completed, infinity when extinct.  This is the
  /// independent-stage formula -- optimistic under clone correlation, so
  /// the combined SplitState CI uses the empirical batch spread instead.
  double log_sigma() const;

  /// Within-batch nominal 95% CI.  Regular runs: [p_hat e^{-z sigma},
  /// min(1, p_hat e^{+z sigma})].  Extinct runs: [0, (prod of
  /// pre-extinction p_k) * Wilson upper bound of 0/N] -- the honest "no
  /// survivor seen" statement.
  Interval ci95() const;
};

/// One batch's resumable progress: the completed stages plus the next
/// stage's trial lineages.
struct SplitBatch {
  SplitEstimate estimate;
  std::vector<Lineage> frontier;  ///< next stage's trials (empty when done)
  bool done = false;
};

/// Resumable progress of a batched splitting estimation.  A
/// default-constructed state is "not started"; advance() bootstraps the
/// batch vector on first call.  The state is a pure function of (config,
/// completed stage counts), so serializing (per-batch estimate, frontier)
/// and resuming is bit-identical to never stopping.
struct SplitState {
  std::vector<SplitBatch> batches;
  bool done = false;

  /// Arithmetic mean of batch p_hat values -- unbiased, since every batch
  /// estimate is.  0 before any batch completed a stage.
  double p_hat() const;

  /// Total trajectory simulations across batches.
  std::uint64_t episodes() const;

  /// Batches whose run lost every clone at some stage.
  std::size_t extinct_batches() const;

  /// Total completed stages across batches (the campaign's budget unit).
  std::uint64_t stages_done() const;

  /// Combined 95% CI across batches.  All batches alive: Cox's interval
  /// for a lognormal mean over the batch log-estimates (a splitting batch
  /// estimate is a product of many stage ratios, so its log is
  /// CLT-normal):  exp(m + s^2/2 -+ t_{B-1} sqrt(s^2/B + s^4 / (2(B-1)))).
  /// Any batch extinct: the two-sided statement is gone; returns [0, max
  /// of a raw-scale t upper bound and the worst extinct batch's Wilson
  /// bound].  No completed stages anywhere: the vacuous [0, 1].
  Interval ci95() const;
};

/// The fixed-effort splitting engine.  Owns lazily-built per-worker
/// process instances, so a campaign can advance one state stage-by-stage
/// (checkpointing between stages) without rebuilding simulators.
class SplitRunner {
 public:
  /// Validates cfg (trials >= 1, batches >= 2, max_stages >= 1, quantile
  /// in (0,1), ladder via validate_levels) and captures the factory.
  SplitRunner(SplitProcessFactory factory, SplitConfig cfg);

  const SplitConfig& config() const { return cfg_; }

  /// Run ONE stage of the first unfinished batch: simulate its frontier,
  /// place the next level, count survivors, build the next frontier (or
  /// mark the batch done).  Marks the state done when every batch is.
  /// No-op on a done state.  Results are bit-identical for any worker
  /// count and across stop/resume at any stage boundary.
  void advance(SplitState& state);

  /// Run a fresh state to completion.
  SplitState run();

 private:
  void advance_batch(std::size_t index, SplitBatch& batch);

  SplitProcessFactory factory_;
  SplitConfig cfg_;
  std::vector<std::unique_ptr<SplitProcess>> slots_;
};

// ---- The analytic ground-truth bed ("rare1d") ------------------------------

/// Registry id of the test-only analytic plant.
inline constexpr const char* kRare1dPlantId = "rare1d";

/// The rare1d process:  x_t = c s_t + sigma g_t  i.i.d. per step, with
/// s_t = +/-1 equiprobable (a bounded excitation) and g_t ~ N(0, 1).  A
/// step is a HIT when x_t >= threshold; the monitored violation is
/// "at least `hits` hit steps in one episode".  The hit count is the
/// process's persistent Markov state -- exactly the structure importance
/// splitting needs: every accumulated hit is retained progress a clone
/// keeps, and the conditional probability of one more hit in the
/// remaining steps is moderate at every stage.  (The naive alternative,
/// max_t x_t over i.i.d. steps, makes splitting DEGENERATE: one extreme
/// draw crosses every intermediate level at once, clones inherit it as a
/// frozen atom, and the population collapses onto the single best
/// ancestral draw.  The counting event keeps the i.i.d. closed form
/// without that pathology -- see docs/mc_stats.md.)
///
/// The level function is (count - hits) / hits: -1 at zero hits, 0 exactly
/// at the violation, monotone along the episode (so the trace IS its own
/// running max).  The episode violation probability is an exact binomial
/// tail (rare1d_episode_p); the defaults put it at the ~1e-8 scale over
/// 100 steps.
struct Rare1dParams {
  double c = 0.5;          ///< bounded excitation magnitude
  double sigma = 0.1;      ///< Gaussian component stddev (> 0)
  double threshold = 0.66; ///< per-step hit level
  std::uint64_t hits = 16; ///< hit steps per episode = violation (>= 1)
};

/// Per-step hit probability
///   p = 1/2 [ Phi_bar((T - c)/sigma) + Phi_bar((T + c)/sigma) ],
/// Phi_bar the standard normal upper tail (via erfc).
double rare1d_step_p(const Rare1dParams& p);

/// Episode violation probability over `steps` i.i.d. steps: the exact
/// binomial tail  P(Bin(steps, p_step) >= hits), summed upward from the
/// dominant term (all terms positive -- no cancellation, full relative
/// precision at the 1e-8 scale).
double rare1d_episode_p(const Rare1dParams& p, std::size_t steps);

/// Build the analytic process (level = (hit count - hits) / hits).
std::unique_ptr<SplitProcess> make_rare1d_process(const Rare1dParams& params,
                                                  std::size_t steps);

// ---- Harness-backed processes ----------------------------------------------

/// Build a process that traces one (plant, family, policy) cell through
/// the real episode engine: each root lineage samples a scenario from
/// `family` and a case exactly like a campaign episode (same split()
/// stream order as eval::make_case), later lineage entries reseed the
/// MixtureProfile mid-episode (state-preserving; sim::VelocityProfile::
/// reseed), and the level trace is the running max of LevelFunction over
/// the plant's hard safe set X, collected through the engine's per-step
/// observer.  `policy` may be null for the always-run baseline; the
/// process takes ownership.  The plant must outlive the process.
std::unique_ptr<SplitProcess> make_plant_split_process(
    const eval::PlantCase& plant, ScenarioFamily family,
    std::unique_ptr<core::SkipPolicy> policy, std::size_t steps);

}  // namespace oic::mc
