#include "eval/engine.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace oic::eval {

EpisodeEngine::EpisodeEngine(const PlantCase& plant, core::SkipPolicy& policy,
                             const fault::FaultSpec& faults)
    : plant_(plant),
      policy_(policy),
      rmpc_(plant.rmpc()),
      ic_(plant.system(), plant.sets(), rmpc_, policy,
          make_intermittent_config(plant, policy, faults.active())),
      link_(faults, 0) {}

EpisodeResult EpisodeEngine::run(const CaseData& data) {
  return run_monitored_episode(plant_, rmpc_, ic_, data, &link_, observer_);
}

namespace {

/// Per-case results of one paired sweep: the cases are drawn up front,
/// chunks of them are run into the table by index, and one aggregation
/// turns the table into a ComparisonResult.
class SweepTable {
 public:
  SweepTable(const PlantCase& plant, const Scenario& scenario, const SweepConfig& cfg,
             std::size_t num_policies)
      : plant_(plant), faults_(cfg.faults) {
    OIC_REQUIRE(cfg.cases >= 1, "compare_policies: need at least one case");
    // One Rng::split() stream, independent of worker count.  Faulted
    // sweeps append the per-case fault stream (an extra split taken only
    // then, so fault-free streams are the historical ones).
    Rng rng(cfg.seed);
    cases_.reserve(cfg.cases);
    for (std::size_t c = 0; c < cfg.cases; ++c) {
      cases_.push_back(make_case(plant, scenario, rng, cfg.steps, faults_.active()));
    }
    savings_.assign(num_policies, std::vector<double>(cfg.cases, 0.0));
    results_.assign(num_policies, std::vector<EpisodeResult>(cfg.cases));
  }

  /// Run cases [begin, end) for the baseline and every policy, on engines
  /// private to this call (own controller, solver and fault-link state).
  void run_chunk(const std::vector<core::SkipPolicy*>& policies, std::size_t begin,
                 std::size_t end) {
    OIC_REQUIRE(policies.size() == results_.size(),
                "compare_policies_parallel: factory is not stable");
    core::AlwaysRunPolicy baseline;
    EpisodeEngine base_engine(plant_, baseline, faults_);
    std::vector<std::unique_ptr<EpisodeEngine>> engines;
    engines.reserve(policies.size());
    for (auto* p : policies) {
      engines.push_back(std::make_unique<EpisodeEngine>(plant_, *p, faults_));
    }
    for (std::size_t c = begin; c < end; ++c) {
      const EpisodeResult base = base_engine.run(cases_[c]);
      for (std::size_t p = 0; p < policies.size(); ++p) {
        results_[p][c] = engines[p]->run(cases_[c]);
        savings_[p][c] = fuel_saving(base, results_[p][c]);
      }
    }
  }

  /// Per-policy means and violation flags, accumulated in case order.
  ComparisonResult aggregate(std::vector<std::string> names) {
    const std::size_t num_policies = results_.size();
    const auto cases = static_cast<double>(cases_.size());
    ComparisonResult out;
    out.policy_names = std::move(names);
    out.savings = std::move(savings_);
    out.mean_skipped.assign(num_policies, 0.0);
    out.any_violation.assign(num_policies, false);
    out.any_left_x.assign(num_policies, false);
    out.any_left_xi.assign(num_policies, false);
    out.mean_degraded.assign(num_policies, 0.0);
    out.mean_stale_forced.assign(num_policies, 0.0);
    out.mean_act_dropped.assign(num_policies, 0.0);
    for (std::size_t p = 0; p < num_policies; ++p) {
      for (const EpisodeResult& r : results_[p]) {
        out.mean_skipped[p] += static_cast<double>(r.skipped);
        out.mean_degraded[p] += static_cast<double>(r.degraded_steps);
        out.mean_stale_forced[p] += static_cast<double>(r.stale_forced);
        out.mean_act_dropped[p] += static_cast<double>(r.act_dropped);
        if (r.left_x || r.left_xi) out.any_violation[p] = true;
        if (r.left_x) out.any_left_x[p] = true;
        if (r.left_xi) out.any_left_xi[p] = true;
      }
      out.mean_skipped[p] /= cases;
      out.mean_degraded[p] /= cases;
      out.mean_stale_forced[p] /= cases;
      out.mean_act_dropped[p] /= cases;
    }
    return out;
  }

 private:
  const PlantCase& plant_;
  const fault::FaultSpec faults_;
  std::vector<CaseData> cases_;
  std::vector<std::vector<double>> savings_;  ///< [policy][case]
  std::vector<std::vector<EpisodeResult>> results_;  ///< [policy][case]
};

}  // namespace

ComparisonResult compare_policies_parallel(const PlantCase& plant,
                                           const Scenario& scenario,
                                           const PolicySetFactory& factory,
                                           const SweepConfig& cfg) {
  OIC_REQUIRE(static_cast<bool>(factory), "compare_policies_parallel: factory required");
  // Probe one worker's policy set for names/count.
  const auto probe = factory();
  OIC_REQUIRE(!probe.empty(), "compare_policies_parallel: factory returned no policies");
  std::vector<std::string> names;
  for (const auto& p : probe) names.push_back(p->name());

  SweepTable table(plant, scenario, cfg, probe.size());
  run_chunked(cfg.cases, cfg.workers,
              [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                // Per-worker policies: own decision state per chunk.
                const auto owned = factory();
                std::vector<core::SkipPolicy*> policies;
                for (const auto& p : owned) policies.push_back(p.get());
                table.run_chunk(policies, begin, end);
              });
  return table.aggregate(std::move(names));
}

ComparisonResult compare_policies(PlantCase& plant, const Scenario& scenario,
                                  const std::vector<core::SkipPolicy*>& policies,
                                  std::size_t cases, std::size_t steps,
                                  std::uint64_t seed) {
  OIC_REQUIRE(!policies.empty(), "compare_policies: need at least one policy");
  std::vector<std::string> names;
  for (const auto* p : policies) names.push_back(p->name());

  SweepConfig cfg;
  cfg.cases = cases;
  cfg.steps = steps;
  cfg.seed = seed;
  SweepTable table(plant, scenario, cfg, policies.size());
  table.run_chunk(policies, 0, cases);
  return table.aggregate(std::move(names));
}

}  // namespace oic::eval
