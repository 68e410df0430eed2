#include "mc/splitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/textio.hpp"
#include "common/parallel.hpp"
#include "eval/engine.hpp"

namespace oic::mc {

// ---------------------------------------------------------------- level

LevelFunction::LevelFunction(const poly::HPolytope& set)
    : a_(set.a()), b_(set.b()) {
  OIC_REQUIRE(a_.rows() > 0, "LevelFunction: set has no constraints");
  inv_norm_.reserve(a_.rows());
  for (std::size_t i = 0; i < a_.rows(); ++i) {
    double s = 0.0;
    const double* row = a_.row_data(i);
    for (std::size_t j = 0; j < a_.cols(); ++j) s += row[j] * row[j];
    const double norm = std::sqrt(s);
    inv_norm_.push_back(norm > 0.0 ? 1.0 / norm : 1.0);
  }
}

double LevelFunction::operator()(const linalg::Vector& x) const {
  OIC_REQUIRE(x.size() == a_.cols(), "LevelFunction: dimension mismatch");
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < a_.rows(); ++i) {
    const double* row = a_.row_data(i);
    double dot = 0.0;
    for (std::size_t j = 0; j < a_.cols(); ++j) dot += row[j] * x[j];
    best = std::max(best, (dot - b_[i]) * inv_norm_[i]);
  }
  return best;
}

// ---------------------------------------------------------------- lineage

void validate_lineage(const Lineage& lin, std::size_t steps) {
  OIC_REQUIRE(!lin.empty(), "splitting: empty lineage");
  OIC_REQUIRE(lin.front().from_step == 0,
              "splitting: lineage must start at step 0");
  for (std::size_t i = 1; i < lin.size(); ++i) {
    OIC_REQUIRE(lin[i].from_step > lin[i - 1].from_step,
                "splitting: lineage steps must be strictly increasing");
    OIC_REQUIRE(lin[i].from_step <= steps,
                "splitting: lineage step beyond the episode");
  }
}

// ---------------------------------------------------------------- ladders

void validate_levels(const std::vector<double>& levels) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    OIC_REQUIRE(std::isfinite(levels[i]),
                "splitting: level thresholds must be finite");
    OIC_REQUIRE(levels[i] < 0.0,
                "splitting: level thresholds must be negative (0 is the "
                "violation boundary)");
    OIC_REQUIRE(i == 0 || levels[i] > levels[i - 1],
                "splitting: level ladder must be strictly increasing");
  }
}

std::vector<double> parse_levels(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    OIC_REQUIRE(!item.empty(), "parse_levels: empty level in '" + text + "'");
    double v = 0.0;
    OIC_REQUIRE(textio::parse_finite(item, v),
                "parse_levels: malformed level '" + item + "'");
    out.push_back(v);
    OIC_REQUIRE(out.size() <= 64, "parse_levels: more than 64 levels");
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  validate_levels(out);
  return out;
}

double parse_split_quantile(const std::string& text) {
  double q = 0.0;
  OIC_REQUIRE(textio::parse_finite(text, q) && q > 0.0 && q < 1.0,
              "expects a number in (0, 1), got '" + text + "'");
  return q;
}

// ---------------------------------------------------------------- estimate

bool SplitEstimate::extinct() const {
  for (std::uint64_t s : survivors) {
    if (s == 0) return true;
  }
  return false;
}

double SplitEstimate::p_hat() const {
  if (survivors.empty()) return 0.0;
  double p = 1.0;
  for (std::uint64_t s : survivors) {
    p *= static_cast<double>(s) / static_cast<double>(trials);
  }
  return p;
}

double SplitEstimate::log_sigma() const {
  if (survivors.empty()) return 0.0;
  double var = 0.0;
  for (std::uint64_t s : survivors) {
    if (s == 0) return std::numeric_limits<double>::infinity();
    const double p = static_cast<double>(s) / static_cast<double>(trials);
    var += (1.0 - p) / (static_cast<double>(trials) * p);
  }
  return std::sqrt(var);
}

Interval SplitEstimate::ci95() const {
  if (survivors.empty()) return Interval{0.0, 1.0};
  if (extinct()) {
    // Survivor product of the stages before extinction, times the Wilson
    // upper bound of the 0-of-N extinction stage.
    double prefix = 1.0;
    for (std::uint64_t s : survivors) {
      if (s == 0) break;
      prefix *= static_cast<double>(s) / static_cast<double>(trials);
    }
    return Interval{0.0, prefix * wilson_interval(0, trials).hi};
  }
  const double p = p_hat();
  const double s = log_sigma();
  return Interval{p * std::exp(-kZ95 * s), std::min(1.0, p * std::exp(kZ95 * s))};
}

// ---------------------------------------------------------------- state

double SplitState::p_hat() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const SplitBatch& b : batches) {
    if (b.estimate.survivors.empty()) continue;
    sum += b.estimate.p_hat();
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

std::uint64_t SplitState::episodes() const {
  std::uint64_t sum = 0;
  for (const SplitBatch& b : batches) sum += b.estimate.episodes;
  return sum;
}

std::size_t SplitState::extinct_batches() const {
  std::size_t count = 0;
  for (const SplitBatch& b : batches) count += b.estimate.extinct() ? 1 : 0;
  return count;
}

std::uint64_t SplitState::stages_done() const {
  std::uint64_t sum = 0;
  for (const SplitBatch& b : batches) sum += b.estimate.levels.size();
  return sum;
}

Interval SplitState::ci95() const {
  std::vector<double> ps;
  double extinct_hi = 0.0;
  bool any_extinct = false;
  for (const SplitBatch& b : batches) {
    if (b.estimate.survivors.empty()) continue;
    ps.push_back(b.estimate.p_hat());
    if (b.estimate.extinct()) {
      any_extinct = true;
      extinct_hi = std::max(extinct_hi, b.estimate.ci95().hi);
    }
  }
  if (ps.empty()) return Interval{0.0, 1.0};
  if (ps.size() == 1) {
    // One batch carries no spread information; report its nominal CI.
    for (const SplitBatch& b : batches) {
      if (!b.estimate.survivors.empty()) return b.estimate.ci95();
    }
  }
  const double nb = static_cast<double>(ps.size());
  const double t = t_quantile_975(ps.size() - 1);
  if (any_extinct) {
    // An extinct batch saw zero survivors at some level -- no two-sided
    // log-scale statement survives that.  Conservative upper bound: the
    // larger of the raw-scale t bound (zeros included) and the worst
    // extinct batch's own Wilson-style bound.
    double m = 0.0;
    for (double p : ps) m += p;
    m /= nb;
    double s2 = 0.0;
    for (double p : ps) s2 += (p - m) * (p - m);
    s2 /= nb - 1.0;
    const double hi = m + t * std::sqrt(s2 / nb);
    return Interval{0.0, std::min(1.0, std::max(hi, extinct_hi))};
  }
  double ml = 0.0;
  for (double p : ps) ml += std::log(p);
  ml /= nb;
  double sl2 = 0.0;
  for (double p : ps) sl2 += (std::log(p) - ml) * (std::log(p) - ml);
  sl2 /= nb - 1.0;
  const double center = ml + 0.5 * sl2;
  const double se = std::sqrt(sl2 / nb + sl2 * sl2 / (2.0 * (nb - 1.0)));
  return Interval{std::exp(center - t * se),
                  std::min(1.0, std::exp(center + t * se))};
}

// ---------------------------------------------------------------- runner

namespace {

/// Seed of trial j of stage k, derived from the batch's root seed.
std::uint64_t trial_seed(std::uint64_t seed, std::size_t stage, std::size_t trial) {
  return derive_stream(derive_stream(seed, stage), trial);
}

}  // namespace

SplitRunner::SplitRunner(SplitProcessFactory factory, SplitConfig cfg)
    : factory_(std::move(factory)), cfg_(std::move(cfg)) {
  OIC_REQUIRE(static_cast<bool>(factory_), "SplitRunner: process factory required");
  OIC_REQUIRE(cfg_.trials >= 1,
              "SplitRunner: need at least one trial per stage (zero clone "
              "counts are rejected)");
  OIC_REQUIRE(cfg_.batches >= 2,
              "SplitRunner: need at least two batches (the combined CI is "
              "the empirical spread across independent replicates)");
  OIC_REQUIRE(cfg_.max_stages >= 1, "SplitRunner: need at least one stage");
  OIC_REQUIRE(cfg_.quantile > 0.0 && cfg_.quantile < 1.0,
              "SplitRunner: quantile must lie in (0, 1)");
  validate_levels(cfg_.levels);
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  slots_.resize(cfg_.workers ? cfg_.workers : hw);
}

void SplitRunner::advance(SplitState& state) {
  if (state.done) return;
  if (state.batches.empty()) {
    state.batches.resize(static_cast<std::size_t>(cfg_.batches));
  }
  OIC_CHECK(state.batches.size() == cfg_.batches,
            "SplitRunner: batch count drifted");
  for (std::size_t b = 0; b < state.batches.size(); ++b) {
    if (state.batches[b].done) continue;
    advance_batch(b, state.batches[b]);
    break;
  }
  state.done = true;
  for (const SplitBatch& b : state.batches) {
    if (!b.done) state.done = false;
  }
}

void SplitRunner::advance_batch(std::size_t index, SplitBatch& state) {
  const std::uint64_t batch_seed = derive_stream(cfg_.seed, index);
  const std::size_t n = static_cast<std::size_t>(cfg_.trials);
  const std::size_t stage = state.estimate.levels.size();
  state.estimate.trials = cfg_.trials;

  // Bootstrap the root frontier: trial j runs on its own derived stream.
  if (stage == 0 && state.frontier.empty()) {
    state.frontier.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      state.frontier.push_back({{0, trial_seed(batch_seed, 0, j)}});
    }
  }
  OIC_CHECK(state.frontier.size() == n, "SplitRunner: frontier size drifted");

  // Simulate every frontier trial; traces land in index-addressed slots,
  // so the result is a pure function of the lineages for any worker count.
  std::vector<std::vector<double>> traces(n);
  run_chunked(n, cfg_.workers, [&](std::size_t chunk, std::size_t b, std::size_t e) {
    OIC_CHECK(chunk < slots_.size(), "SplitRunner: chunk exceeds worker slots");
    if (!slots_[chunk]) slots_[chunk] = factory_();
    SplitProcess& proc = *slots_[chunk];
    for (std::size_t j = b; j < e; ++j) {
      validate_lineage(state.frontier[j], proc.steps());
      proc.trace(state.frontier[j], traces[j]);
      OIC_CHECK(traces[j].size() == proc.steps(),
                "SplitRunner: trace length mismatch");
    }
  });
  state.estimate.episodes += n;

  // Place this stage's level.  Explicit ladders append the final 0-level
  // stage after the listed levels; adaptive placement keeps the
  // `quantile` fraction of trials alive, clamping at the boundary, and
  // degrades to the final stage on stall (no progress past the previous
  // level) or when the stage budget is exhausted.
  double level = 0.0;
  if (stage < cfg_.levels.size()) {
    level = cfg_.levels[stage];
  } else if (cfg_.levels.empty() && stage + 1 < cfg_.max_stages) {
    std::vector<double> maxes(n);
    for (std::size_t j = 0; j < n; ++j) maxes[j] = traces[j].back();
    std::sort(maxes.begin(), maxes.end(), std::greater<double>());
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg_.quantile * static_cast<double>(n)));
    const double prev = stage == 0 ? -std::numeric_limits<double>::infinity()
                                   : state.estimate.levels.back();
    double cand = maxes[keep - 1];
    if (!(cand < 0.0 && cand > prev)) {
      // The quantile stalled on a tie -- discrete level structures (and
      // clone pile-ups on one ancestral value) put big atoms in the max
      // distribution.  Ratchet: take the smallest strictly better value
      // any trial achieved rather than jumping straight to the boundary.
      cand = std::numeric_limits<double>::infinity();
      for (double m : maxes) {
        if (m > prev && m < 0.0) cand = std::min(cand, m);
      }
    }
    if (cand < 0.0 && cand > prev) level = cand;
  }

  std::uint64_t survivors = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (traces[j].back() >= level) ++survivors;
  }
  state.estimate.levels.push_back(level);
  state.estimate.survivors.push_back(survivors);

  if (level >= 0.0 || survivors == 0) {
    state.done = true;
    state.frontier.clear();
    return;
  }

  // Build the next frontier: clone the survivors round-robin, branching
  // each clone at its parent's first crossing of this stage's level.
  std::vector<std::size_t> surv;
  surv.reserve(static_cast<std::size_t>(survivors));
  for (std::size_t j = 0; j < n; ++j) {
    if (traces[j].back() >= level) surv.push_back(j);
  }
  std::vector<Lineage> next;
  next.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t parent = surv[j % surv.size()];
    const std::vector<double>& trace = traces[parent];
    std::size_t cross = 0;
    while (trace[cross] < level) ++cross;  // guaranteed: back() >= level
    Lineage child;
    for (const LineageEntry& entry : state.frontier[parent]) {
      if (entry.from_step > cross) break;  // lineage steps are increasing
      child.push_back(entry);
    }
    // cross + 1 <= steps always holds (cross indexes the trace), and a
    // from_step == steps entry is a valid no-op: a parent that crossed at
    // the very last step clones to an exact replay of itself.
    child.push_back({cross + 1, trial_seed(batch_seed, stage + 1, j)});
    next.push_back(std::move(child));
  }
  state.frontier = std::move(next);
}

SplitState SplitRunner::run() {
  SplitState state;
  while (!state.done) advance(state);
  return state;
}

// ---------------------------------------------------------------- rare1d

double rare1d_step_p(const Rare1dParams& p) {
  OIC_REQUIRE(p.sigma > 0.0, "rare1d: sigma must be positive");
  OIC_REQUIRE(p.hits >= 1, "rare1d: need at least one hit");
  OIC_REQUIRE(std::isfinite(p.c) && std::isfinite(p.threshold),
              "rare1d: parameters must be finite");
  const auto upper_tail = [](double z) {
    return 0.5 * std::erfc(z / std::sqrt(2.0));
  };
  return 0.5 * (upper_tail((p.threshold - p.c) / p.sigma) +
                upper_tail((p.threshold + p.c) / p.sigma));
}

double rare1d_episode_p(const Rare1dParams& p, std::size_t steps) {
  OIC_REQUIRE(steps >= 1, "rare1d: need at least one step");
  const double ps = rare1d_step_p(p);
  if (p.hits > steps) return 0.0;
  if (ps <= 0.0) return 0.0;
  if (ps >= 1.0) return 1.0;
  // Exact binomial tail P(Bin(steps, ps) >= hits): dominant term P(= hits)
  // in log space, then the exact term-ratio recursion upward.  Every term
  // is positive, so the sum keeps full relative precision at 1e-8 scales.
  const double n = static_cast<double>(steps);
  const double k = static_cast<double>(p.hits);
  double term = std::exp(std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                         std::lgamma(n - k + 1.0) + k * std::log(ps) +
                         (n - k) * std::log1p(-ps));
  double sum = term;
  const double odds = ps / (1.0 - ps);
  for (std::uint64_t j = p.hits; j < steps; ++j) {
    term *= (n - static_cast<double>(j)) / (static_cast<double>(j) + 1.0) * odds;
    sum += term;
    if (term < sum * 1e-18) break;
  }
  return std::min(1.0, sum);
}

namespace {

class Rare1dProcess final : public SplitProcess {
 public:
  Rare1dProcess(const Rare1dParams& params, std::size_t steps)
      : p_(params), steps_(steps) {
    OIC_REQUIRE(steps_ >= 1, "rare1d: need at least one step");
    (void)rare1d_step_p(p_);  // parameter validation
  }

  std::size_t steps() const override { return steps_; }

  void trace(const Lineage& lineage, std::vector<double>& levels) override {
    validate_lineage(lineage, steps_);
    levels.assign(steps_, 0.0);
    Rng rng(lineage[0].seed);
    std::size_t next = 1;
    const double denom = static_cast<double>(p_.hits);
    std::uint64_t count = 0;  // hit steps so far -- the persistent state
    for (std::size_t t = 0; t < steps_; ++t) {
      if (next < lineage.size() && lineage[next].from_step == t) {
        rng = Rng(lineage[next].seed);
        ++next;
      }
      const double s = rng.bernoulli(0.5) ? 1.0 : -1.0;
      const double x = p_.c * s + p_.sigma * rng.normal(0.0, 1.0);
      if (x >= p_.threshold) ++count;
      levels[t] = (static_cast<double>(count) - denom) / denom;
    }
  }

 private:
  Rare1dParams p_;
  std::size_t steps_;
};

}  // namespace

std::unique_ptr<SplitProcess> make_rare1d_process(const Rare1dParams& params,
                                                  std::size_t steps) {
  return std::make_unique<Rare1dProcess>(params, steps);
}

// ---------------------------------------------------------------- plants

namespace {

class PlantSplitProcess final : public SplitProcess {
 public:
  PlantSplitProcess(const eval::PlantCase& plant, ScenarioFamily family,
                    std::unique_ptr<core::SkipPolicy> policy, std::size_t steps)
      : plant_(plant),
        family_(std::move(family)),
        policy_(std::move(policy)),
        engine_(plant, policy_ ? *policy_ : static_cast<core::SkipPolicy&>(baseline_)),
        level_(plant.sets().x),
        steps_(steps) {
    OIC_REQUIRE(steps_ >= 1, "PlantSplitProcess: need at least one step");
  }

  std::size_t steps() const override { return steps_; }

  void trace(const Lineage& lineage, std::vector<double>& levels) override {
    validate_lineage(lineage, steps_);
    // The root stream replays a campaign episode exactly (same split()
    // order as the campaign loop: family.sample, then make_case's x0 and
    // profile splits), so a single-entry lineage IS the campaign episode
    // of that seed.  Clone entries swap the profile's stream only -- the
    // scenario parameters, x0, and the signal prefix stay the parent's.
    Rng ep(lineage[0].seed);
    const eval::Scenario scenario = family_.sample(ep);
    OIC_REQUIRE(scenario.profile && scenario.profile->supports_reseed(),
                "PlantSplitProcess: family profile cannot be reseeded");
    eval::CaseData data;
    Rng x0_rng = ep.split();
    data.x0 = plant_.sample_x0(x0_rng);
    std::unique_ptr<sim::VelocityProfile> profile = scenario.profile->clone();
    profile->reset(ep.split());
    data.signal.reserve(steps_);
    std::size_t next = 1;
    for (std::size_t t = 0; t < steps_; ++t) {
      if (next < lineage.size() && lineage[next].from_step == t) {
        profile->reseed(Rng(lineage[next].seed));
        ++next;
      }
      data.signal.push_back(profile->next());
    }

    levels.assign(steps_, 0.0);
    double running = level_(data.x0);
    engine_.set_observer([&](std::size_t t, const linalg::Vector& x) {
      running = std::max(running, level_(x));
      levels[t] = running;
    });
    (void)engine_.run(data);
    engine_.set_observer({});
  }

 private:
  const eval::PlantCase& plant_;
  ScenarioFamily family_;
  std::unique_ptr<core::SkipPolicy> policy_;  // null = baseline
  core::AlwaysRunPolicy baseline_;
  eval::EpisodeEngine engine_;
  LevelFunction level_;
  std::size_t steps_;
};

}  // namespace

std::unique_ptr<SplitProcess> make_plant_split_process(
    const eval::PlantCase& plant, ScenarioFamily family,
    std::unique_ptr<core::SkipPolicy> policy, std::size_t steps) {
  return std::make_unique<PlantSplitProcess>(plant, std::move(family),
                                             std::move(policy), steps);
}

}  // namespace oic::mc
