// Tests for the importance-splitting layer (src/mc/splitting): the
// normalized level function, lineage / ladder validation, the exact
// rare1d closed form, trace purity, engine determinism across worker
// counts and runner instances, degenerate corpora, the batch combiner's
// interval math, and the headline statistical acceptance check -- the
// splitting estimate of the rare1d violation probability (~1.5e-8) must
// cover the closed-form ground truth with its own 95% CI on >= 19 of 20
// seeds.  Campaign-level bit-invariance (workers, checkpoint/resume) is
// asserted on a rare1d splitting campaign.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "mc/campaign.hpp"
#include "mc/splitting.hpp"
#include "poly/hpolytope.hpp"

namespace {

using oic::Interval;
using oic::PreconditionError;
using oic::t_quantile_975;
using oic::wilson_interval;
using oic::eval::ScenarioRegistry;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::mc::CampaignResult;
using oic::mc::CampaignSpec;
using oic::mc::LevelFunction;
using oic::mc::Lineage;
using oic::mc::Rare1dParams;
using oic::mc::SplitBatch;
using oic::mc::SplitCellResult;
using oic::mc::SplitConfig;
using oic::mc::SplitEstimate;
using oic::mc::SplitProcess;
using oic::mc::SplitRunner;
using oic::mc::SplitState;
using oic::poly::HPolytope;

std::string scratch_dir() {
  static const std::string dir = [] {
    auto d = std::filesystem::temp_directory_path() / "oic-test-mc-splitting";
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d.string();
  }();
  return dir;
}

// ---------------------------------------------------------------- level

TEST(LevelFunction, SignedDistanceOnABox) {
  const LevelFunction level(HPolytope::box(Vector{0, 0}, Vector{1, 1}));
  EXPECT_NEAR(level(Vector{0.5, 0.5}), -0.5, 1e-12);
  EXPECT_NEAR(level(Vector{0.0, 0.5}), 0.0, 1e-12);
  EXPECT_NEAR(level(Vector{1.5, 0.5}), 0.5, 1e-12);
  EXPECT_NEAR(level(Vector{0.9, 0.5}), -0.1, 1e-12);
}

TEST(LevelFunction, RowNormalizationMakesScaledRowsAgree) {
  // 7x <= 7 and x <= 1 describe the same halfspace; the normalized level
  // must agree (plain HPolytope::violation would differ by the factor 7).
  const LevelFunction scaled(HPolytope(Matrix{{7, 0}}, Vector{7.0}));
  const LevelFunction plain(HPolytope(Matrix{{1, 0}}, Vector{1.0}));
  for (double x : {-2.0, 0.0, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(scaled(Vector{x, 0.3}), plain(Vector{x, 0.3}), 1e-12);
  }
}

TEST(LevelFunction, RejectsDimensionMismatchAndEmptySets) {
  const LevelFunction level(HPolytope::box(Vector{0, 0}, Vector{1, 1}));
  EXPECT_THROW(level(Vector{0.5}), PreconditionError);
  EXPECT_THROW((LevelFunction{HPolytope{}}), PreconditionError);
}

// ---------------------------------------------------------------- ladders

TEST(Splitting, ValidateLineage) {
  using oic::mc::validate_lineage;
  EXPECT_NO_THROW(validate_lineage({{0, 1}}, 10));
  EXPECT_NO_THROW(validate_lineage({{0, 1}, {3, 2}, {10, 3}}, 10));
  EXPECT_THROW(validate_lineage({}, 10), PreconditionError);
  EXPECT_THROW(validate_lineage({{1, 1}}, 10), PreconditionError);
  EXPECT_THROW(validate_lineage({{0, 1}, {3, 2}, {3, 3}}, 10), PreconditionError);
  EXPECT_THROW(validate_lineage({{0, 1}, {11, 2}}, 10), PreconditionError);
}

TEST(Splitting, ParseLevelsAcceptsStrictLadders) {
  const std::vector<double> ladder = oic::mc::parse_levels("-0.5,-0.25,-0.1");
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0], -0.5);
  EXPECT_EQ(ladder[1], -0.25);
  EXPECT_EQ(ladder[2], -0.1);
}

TEST(Splitting, ParseLevelsRejectsMalformedInput) {
  using oic::mc::parse_levels;
  EXPECT_THROW(parse_levels(""), PreconditionError);
  EXPECT_THROW(parse_levels("-0.5,"), PreconditionError);
  EXPECT_THROW(parse_levels(",-0.5"), PreconditionError);
  EXPECT_THROW(parse_levels("-0.5x"), PreconditionError);
  EXPECT_THROW(parse_levels("-0.5 -0.25"), PreconditionError);
  EXPECT_THROW(parse_levels("nan"), PreconditionError);
  EXPECT_THROW(parse_levels("-inf"), PreconditionError);
  EXPECT_THROW(parse_levels("0.0"), PreconditionError);
  EXPECT_THROW(parse_levels("-0.5,-0.5"), PreconditionError);
  EXPECT_THROW(parse_levels("-0.1,-0.5"), PreconditionError);
  std::string many = "-65";
  for (int i = 64; i >= 1; --i) many += "," + std::to_string(-i);
  EXPECT_THROW(parse_levels(many), PreconditionError);
}

TEST(Splitting, ParseSplitQuantileTakesOnlyStrictNumbersInsideTheUnitInterval) {
  using oic::mc::parse_split_quantile;
  EXPECT_EQ(parse_split_quantile("0.25"), 0.25);
  EXPECT_EQ(parse_split_quantile("+0.5"), 0.5);
  EXPECT_EQ(parse_split_quantile("1e-1"), 0.1);
  // One spelling per way a loose strtod-style parse would accept it.
  for (const char* bad : {"0x1p-2", " 0.25", "0.25 ", "\t0.25", "0.25x", "", "nan",
                          "inf", "0", "1", "2", "-0.25"}) {
    EXPECT_THROW(parse_split_quantile(bad), PreconditionError) << "'" << bad << "'";
  }
}

TEST(Splitting, RunnerValidatesConfig) {
  const auto factory = [] { return oic::mc::make_rare1d_process({}, 10); };
  SplitConfig cfg;
  EXPECT_NO_THROW((SplitRunner{factory, cfg}));
  EXPECT_THROW((SplitRunner{{}, cfg}), PreconditionError);
  SplitConfig bad = cfg;
  bad.trials = 0;
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
  bad = cfg;
  bad.batches = 1;
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
  bad = cfg;
  bad.max_stages = 0;
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
  bad = cfg;
  bad.quantile = 0.0;
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
  bad = cfg;
  bad.quantile = 1.0;
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
  bad = cfg;
  bad.levels = {-0.1, -0.5};
  EXPECT_THROW((SplitRunner{factory, bad}), PreconditionError);
}

// ---------------------------------------------------------------- rare1d

TEST(Rare1d, ClosedFormPins) {
  const Rare1dParams params;  // c=0.5 sigma=0.1 threshold=0.66 hits=16
  EXPECT_NEAR(oic::mc::rare1d_step_p(params), 2.739964584977899e-02, 1e-12);
  const double p_true = oic::mc::rare1d_episode_p(params, 100);
  EXPECT_NEAR(p_true / 1.526791765161362e-08, 1.0, 1e-10);
}

TEST(Rare1d, EpisodeProbabilityMatchesDirectEnumeration) {
  // steps=3, hits=2: P(Bin(3, p) >= 2) = 3 p^2 (1-p) + p^3 exactly.
  Rare1dParams params;
  params.hits = 2;
  const double p = oic::mc::rare1d_step_p(params);
  const double direct = 3.0 * p * p * (1.0 - p) + p * p * p;
  EXPECT_NEAR(oic::mc::rare1d_episode_p(params, 3) / direct, 1.0, 1e-14);
}

TEST(Rare1d, EpisodeProbabilityEdgesAndMonotonicity) {
  Rare1dParams params;
  params.hits = 5;
  EXPECT_EQ(oic::mc::rare1d_episode_p(params, 4), 0.0);  // hits > steps
  // More steps, lower threshold, fewer required hits: all raise the tail.
  EXPECT_LT(oic::mc::rare1d_episode_p(params, 20),
            oic::mc::rare1d_episode_p(params, 40));
  Rare1dParams lower = params;
  lower.threshold = 0.5;
  EXPECT_LT(oic::mc::rare1d_episode_p(params, 20),
            oic::mc::rare1d_episode_p(lower, 20));
  Rare1dParams fewer = params;
  fewer.hits = 4;
  EXPECT_LT(oic::mc::rare1d_episode_p(params, 20),
            oic::mc::rare1d_episode_p(fewer, 20));
}

TEST(Rare1d, ParameterValidation) {
  Rare1dParams bad;
  bad.sigma = 0.0;
  EXPECT_THROW(oic::mc::rare1d_step_p(bad), PreconditionError);
  bad = Rare1dParams{};
  bad.hits = 0;
  EXPECT_THROW(oic::mc::rare1d_step_p(bad), PreconditionError);
  EXPECT_THROW(oic::mc::make_rare1d_process({}, 0), PreconditionError);
}

TEST(Rare1d, TraceIsPureMonotoneAndOnTheCountGrid) {
  const auto proc = oic::mc::make_rare1d_process({}, 50);
  const Lineage root = {{0, 12345}};
  std::vector<double> a, b;
  proc->trace(root, a);
  proc->trace(root, b);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);  // bit-identical replay
  const double denom = static_cast<double>(Rare1dParams{}.hits);
  double prev = -1.0;
  for (double v : a) {
    EXPECT_GE(v, prev);  // the trace is its own running max
    prev = v;
    // Every value sits on the (count - hits) / hits grid.
    const double count = v * denom + denom;
    EXPECT_NEAR(count, std::round(count), 1e-9);
  }
}

TEST(Rare1d, CloneKeepsTheParentPrefix) {
  const auto proc = oic::mc::make_rare1d_process({}, 50);
  const Lineage root = {{0, 777}};
  std::vector<double> parent, clone;
  proc->trace(root, parent);
  const Lineage branched = {{0, 777}, {20, 888}};
  proc->trace(branched, clone);
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_EQ(clone[t], parent[t]);  // identical before the hand-off
  }
  EXPECT_GE(clone.back(), clone[19]);  // still a running max afterwards
}

// ---------------------------------------------------------------- engine

void expect_same_state(const SplitState& a, const SplitState& b) {
  EXPECT_EQ(a.done, b.done);
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    const SplitBatch& x = a.batches[i];
    const SplitBatch& y = b.batches[i];
    EXPECT_EQ(x.done, y.done);
    EXPECT_EQ(x.estimate.trials, y.estimate.trials);
    EXPECT_EQ(x.estimate.episodes, y.estimate.episodes);
    EXPECT_EQ(x.estimate.levels, y.estimate.levels);
    EXPECT_EQ(x.estimate.survivors, y.estimate.survivors);
    ASSERT_EQ(x.frontier.size(), y.frontier.size());
    for (std::size_t j = 0; j < x.frontier.size(); ++j) {
      ASSERT_EQ(x.frontier[j].size(), y.frontier[j].size());
      for (std::size_t k = 0; k < x.frontier[j].size(); ++k) {
        EXPECT_EQ(x.frontier[j][k].from_step, y.frontier[j][k].from_step);
        EXPECT_EQ(x.frontier[j][k].seed, y.frontier[j][k].seed);
      }
    }
  }
}

SplitConfig small_rare_config() {
  SplitConfig cfg;
  cfg.trials = 64;
  cfg.batches = 4;
  cfg.max_stages = 24;
  cfg.seed = 42;
  cfg.workers = 1;
  return cfg;
}

TEST(Splitting, BitIdenticalAcrossWorkerCounts) {
  const auto factory = [] { return oic::mc::make_rare1d_process({}, 60); };
  SplitConfig cfg = small_rare_config();
  const SplitState serial = SplitRunner(factory, cfg).run();
  cfg.workers = 4;
  const SplitState parallel = SplitRunner(factory, cfg).run();
  EXPECT_TRUE(serial.done);
  EXPECT_GT(serial.p_hat(), 0.0);
  expect_same_state(serial, parallel);
}

TEST(Splitting, BitIdenticalAcrossRunnerInstances) {
  // Advancing one stage at a time through a FRESH runner each step (the
  // checkpoint/resume situation: state survives, runner does not) must
  // match a single uninterrupted run.
  const auto factory = [] { return oic::mc::make_rare1d_process({}, 60); };
  const SplitConfig cfg = small_rare_config();
  const SplitState reference = SplitRunner(factory, cfg).run();
  SplitState resumed;
  while (!resumed.done) {
    SplitRunner runner(factory, cfg);
    runner.advance(resumed);
  }
  expect_same_state(reference, resumed);
}

namespace degenerate {

/// Constant-level process: every step reports `value`.
class Constant final : public SplitProcess {
 public:
  explicit Constant(double value) : value_(value) {}
  std::size_t steps() const override { return 5; }
  void trace(const Lineage& lineage, std::vector<double>& levels) override {
    oic::mc::validate_lineage(lineage, steps());
    levels.assign(steps(), value_);
  }

 private:
  double value_;
};

}  // namespace degenerate

TEST(Splitting, EveryTrialViolatesGivesProbabilityOne) {
  SplitConfig cfg = small_rare_config();
  const SplitState st =
      SplitRunner([] { return std::make_unique<degenerate::Constant>(0.0); }, cfg)
          .run();
  EXPECT_TRUE(st.done);
  EXPECT_EQ(st.extinct_batches(), 0u);
  EXPECT_EQ(st.p_hat(), 1.0);
  const Interval ci = st.ci95();
  EXPECT_EQ(ci.lo, 1.0);
  EXPECT_EQ(ci.hi, 1.0);
  for (const SplitBatch& b : st.batches) {
    ASSERT_EQ(b.estimate.levels.size(), 1u);  // one stage straight to 0
    EXPECT_EQ(b.estimate.levels[0], 0.0);
    EXPECT_EQ(b.estimate.survivors[0], cfg.trials);
  }
}

TEST(Splitting, NoProgressGoesExtinctWithAnHonestUpperBound) {
  // A flat level function can never improve past its first stage: the
  // adaptive placer stalls, clamps the next level to the 0 boundary, and
  // the batch goes extinct.  The combined CI must degrade to the Wilson
  // "no survivor seen" statement, never to a two-sided claim.
  SplitConfig cfg = small_rare_config();
  const SplitState st =
      SplitRunner([] { return std::make_unique<degenerate::Constant>(-1.0); }, cfg)
          .run();
  EXPECT_TRUE(st.done);
  EXPECT_EQ(st.extinct_batches(), st.batches.size());
  EXPECT_EQ(st.p_hat(), 0.0);
  const Interval ci = st.ci95();
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, wilson_interval(0, cfg.trials).hi);
}

TEST(Splitting, ExplicitLadderRunsExactlyOneStagePerLevelPlusBoundary) {
  SplitConfig cfg = small_rare_config();
  cfg.levels = {-0.5, -0.25};
  const SplitState st =
      SplitRunner([] { return std::make_unique<degenerate::Constant>(0.0); }, cfg)
          .run();
  for (const SplitBatch& b : st.batches) {
    ASSERT_EQ(b.estimate.levels.size(), 3u);
    EXPECT_EQ(b.estimate.levels[0], -0.5);
    EXPECT_EQ(b.estimate.levels[1], -0.25);
    EXPECT_EQ(b.estimate.levels[2], 0.0);
    EXPECT_EQ(b.estimate.survivors, (std::vector<std::uint64_t>{64, 64, 64}));
  }
}

// ---------------------------------------------------------------- intervals

TEST(Stats, TQuantilePins) {
  EXPECT_THROW(t_quantile_975(0), PreconditionError);
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-9);
  EXPECT_NEAR(t_quantile_975(5), 2.571, 1e-9);
  EXPECT_NEAR(t_quantile_975(15), 2.131, 1e-9);
  EXPECT_NEAR(t_quantile_975(30), 2.042, 1e-9);
  EXPECT_NEAR(t_quantile_975(40), 2.021, 1e-9);
  EXPECT_NEAR(t_quantile_975(60), 2.000, 1e-9);
  EXPECT_NEAR(t_quantile_975(120), 1.980, 1e-9);
  EXPECT_NEAR(t_quantile_975(1000), oic::kZ95, 1e-12);
  // Monotone non-increasing toward the normal quantile.
  for (std::size_t dof = 1; dof < 200; ++dof) {
    EXPECT_GE(t_quantile_975(dof), t_quantile_975(dof + 1));
    EXPECT_GE(t_quantile_975(dof), oic::kZ95);
  }
}

SplitBatch batch_with(std::vector<std::uint64_t> survivors, std::uint64_t trials) {
  SplitBatch b;
  b.estimate.trials = trials;
  b.estimate.survivors = std::move(survivors);
  b.estimate.levels.assign(b.estimate.survivors.size(), -0.5);
  b.done = true;
  return b;
}

TEST(Splitting, EstimateMathOnHandBuiltCounts) {
  SplitEstimate e;
  EXPECT_EQ(e.p_hat(), 0.0);
  EXPECT_EQ(e.log_sigma(), 0.0);
  EXPECT_EQ(e.ci95().lo, 0.0);
  EXPECT_EQ(e.ci95().hi, 1.0);

  e = batch_with({50, 20}, 100).estimate;
  EXPECT_NEAR(e.p_hat(), 0.1, 1e-15);
  const double var = (1.0 - 0.5) / (100.0 * 0.5) + (1.0 - 0.2) / (100.0 * 0.2);
  EXPECT_NEAR(e.log_sigma(), std::sqrt(var), 1e-15);
  EXPECT_FALSE(e.extinct());

  e = batch_with({50, 0}, 100).estimate;
  EXPECT_TRUE(e.extinct());
  EXPECT_EQ(e.p_hat(), 0.0);
  EXPECT_EQ(e.log_sigma(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(e.ci95().lo, 0.0);
  EXPECT_NEAR(e.ci95().hi, 0.5 * wilson_interval(0, 100).hi, 1e-15);
}

TEST(Splitting, CombinedIntervalIsCoxOverBatchLogs) {
  SplitState st;
  EXPECT_EQ(st.p_hat(), 0.0);
  EXPECT_EQ(st.ci95().lo, 0.0);
  EXPECT_EQ(st.ci95().hi, 1.0);

  // One live batch: no spread information, fall back to its nominal CI.
  st.batches.push_back(batch_with({50, 20}, 100));
  const Interval nominal = st.batches[0].estimate.ci95();
  EXPECT_EQ(st.ci95().lo, nominal.lo);
  EXPECT_EQ(st.ci95().hi, nominal.hi);

  // Two live batches: Cox's lognormal-mean interval with t_{1}.
  st.batches.push_back(batch_with({40, 30}, 100));
  const double p1 = 0.5 * 0.2;
  const double p2 = 0.4 * 0.3;
  EXPECT_NEAR(st.p_hat(), 0.5 * (p1 + p2), 1e-15);
  const double ml = 0.5 * (std::log(p1) + std::log(p2));
  const double sl2 = (std::log(p1) - ml) * (std::log(p1) - ml) +
                     (std::log(p2) - ml) * (std::log(p2) - ml);
  const double center = ml + 0.5 * sl2;
  const double se = std::sqrt(sl2 / 2.0 + sl2 * sl2 / 2.0);
  const Interval ci = st.ci95();
  EXPECT_NEAR(ci.lo, std::exp(center - t_quantile_975(1) * se), 1e-12);
  EXPECT_NEAR(ci.hi, std::exp(center + t_quantile_975(1) * se), 1e-12);
  EXPECT_LE(ci.lo, st.p_hat());

  // Any extinct batch kills the two-sided statement: [0, conservative hi].
  st.batches.push_back(batch_with({10, 0}, 100));
  const Interval ext = st.ci95();
  EXPECT_EQ(ext.lo, 0.0);
  EXPECT_GE(ext.hi, 0.1 * wilson_interval(0, 100).hi);
  EXPECT_LE(ext.hi, 1.0);
}

// ---------------------------------------------------------------- coverage

TEST(Rare1d, SplittingCoversTheClosedFormAcrossSeeds) {
  // The headline acceptance criterion: over 20 seeds, the batched
  // splitting estimate of the rare1d violation probability (~1.5e-8, an
  // event crude Monte Carlo cannot even see at these budgets) must cover
  // the closed form with its own 95% CI on at least 19.  The batch spread
  // is what makes this hold -- the nominal independent-stage CI is 2-10x
  // too narrow under clone correlation and fails this test badly.
  const Rare1dParams params;
  const std::size_t steps = 100;
  const double p_true = oic::mc::rare1d_episode_p(params, steps);
  int covered = 0;
  std::size_t extinct = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SplitConfig cfg;
    cfg.trials = 512;
    cfg.batches = 16;
    cfg.seed = seed * 7919 + 11;
    SplitRunner runner(
        [&] { return oic::mc::make_rare1d_process(params, steps); }, cfg);
    const SplitState st = runner.run();
    EXPECT_TRUE(st.done);
    const Interval ci = st.ci95();
    if (ci.lo <= p_true && p_true <= ci.hi) ++covered;
    extinct += st.extinct_batches();
    // Sanity per seed: the estimate is within two orders of magnitude.
    EXPECT_GT(st.p_hat(), p_true * 1e-2);
    EXPECT_LT(st.p_hat(), p_true * 1e2);
  }
  EXPECT_GE(covered, 19);
  EXPECT_EQ(extinct, 0u);
}

// ---------------------------------------------------------------- campaign

void expect_same_split_cells(const std::vector<SplitCellResult>& a,
                             const std::vector<SplitCellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].plant, b[i].plant);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].falsified, b[i].falsified);
    EXPECT_EQ(a[i].seeded_levels, b[i].seeded_levels);
    EXPECT_EQ(a[i].p_true, b[i].p_true);
    ASSERT_EQ(a[i].units.size(), b[i].units.size());
    for (std::size_t u = 0; u < a[i].units.size(); ++u) {
      EXPECT_EQ(a[i].units[u].policy, b[i].units[u].policy);
      expect_same_state(a[i].units[u].state, b[i].units[u].state);
    }
  }
}

CampaignSpec rare_spec() {
  CampaignSpec spec;
  spec.plants = {"rare1d"};
  spec.splitting = true;
  spec.steps = 100;
  spec.seed = 7;
  spec.workers = 1;
  spec.split_trials = 64;
  spec.split_batches = 4;
  return spec;
}

TEST(Campaign, SplittingBitIdenticalAcrossWorkerCounts) {
  CampaignSpec spec = rare_spec();
  const CampaignResult serial = run_campaign(ScenarioRegistry::builtin(), spec);
  spec.workers = 4;
  const CampaignResult parallel = run_campaign(ScenarioRegistry::builtin(), spec);
  ASSERT_EQ(serial.split_cells.size(), 1u);
  EXPECT_EQ(serial.split_cells[0].family, "analytic");
  EXPECT_NEAR(serial.split_cells[0].p_true, 1.526791765161362e-08, 1e-18);
  EXPECT_FALSE(serial.safety_violations);  // rare1d violations are the truth
  expect_same_split_cells(serial.split_cells, parallel.split_cells);
}

TEST(Campaign, SplittingBitIdenticalAcrossCheckpointResume) {
  CampaignSpec spec = rare_spec();
  const CampaignResult reference = run_campaign(ScenarioRegistry::builtin(), spec);

  spec.checkpoint = scratch_dir() + "/rare1d.ck";
  spec.max_blocks = 5;  // a 5-stage slice, then resume to completion
  const CampaignResult slice = run_campaign(ScenarioRegistry::builtin(), spec);
  EXPECT_FALSE(slice.split_cells[0].units[0].state.done);
  spec.max_blocks = 0;
  const CampaignResult resumed = run_campaign(ScenarioRegistry::builtin(), spec);
  EXPECT_GE(resumed.resumed_blocks, 5u);
  expect_same_split_cells(reference.split_cells, resumed.split_cells);

  // The campaign JSON must agree too (modulo the timing block, which is
  // not derived from the statistics): compare the splitting section.
  const std::string a = campaign_json(spec, reference);
  const std::string b = campaign_json(spec, resumed);
  const auto section = [](const std::string& doc) {
    const std::size_t begin = doc.find("\"mc_splitting\"");
    EXPECT_NE(begin, std::string::npos);
    return doc.substr(begin);
  };
  EXPECT_EQ(section(a), section(b));
}

}  // namespace
