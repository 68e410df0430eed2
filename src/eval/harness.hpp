#pragma once
/// \file harness.hpp
/// Plant-generic evaluation harness, lifted from the ACC experiments:
/// generates test cases (initial state + disturbance-signal sequence), runs
/// one policy over a case through Algorithm 1, and aggregates the running-
/// cost statistics the paper reports.  All benches, the examples, and the
/// oic_eval sweep driver go through this code so numbers are comparable
/// across plants.

#include <functional>
#include <vector>

#include "core/intermittent.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "eval/plant.hpp"

namespace oic::eval {

/// A fully materialized test case: every policy evaluated on it sees the
/// same initial state and the same disturbance signal, so savings are
/// paired comparisons as in the paper.  Under fault injection the case
/// additionally carries the episode's fault-stream seed, so every policy
/// faces the SAME packet-loss realization (paired comparison extends to
/// the fault axis).
struct CaseData {
  linalg::Vector x0;           ///< initial shifted state, in X'
  std::vector<double> signal;  ///< scenario signal per step (ACC: vf)
  std::uint64_t fault_stream = 0;  ///< fault::Link stream (faulted runs only)
};

/// Draw a case for the scenario: x0 uniform in X', signal from the profile.
/// `with_fault_stream` additionally draws the case's fault-stream seed.
/// The extra draw is a third rng.split() -- taken ONLY when requested, so
/// fault-free case streams stay bit-identical to the historical ones.
CaseData make_case(const PlantCase& plant, const Scenario& scenario, Rng& rng,
                   std::size_t steps, bool with_fault_stream = false);

/// Result of one episode: the closed-loop outcome (skip, violation and
/// fault counters) plus the plant's totals.  `fuel` is the plant's
/// running-cost metric (the ACC's ml of fuel; actuator duty / battery draw
/// for other plants); `energy` is sum ||u_raw||_1.
struct EpisodeResult : core::RunResult {
  double fuel = 0.0;
  double energy = 0.0;
  std::size_t steps = 0;
};

/// Disturbance observations the framework retains per evaluation episode.
/// (The DQN trainer's state memory r is a separate knob:
/// TrainerConfig::memory.)
inline constexpr std::size_t kEpisodeWMemory = 4;

/// The Algorithm-1 framework configuration of every evaluation episode:
/// episode disturbance memory, the plant's skip input, and -- for
/// burst-requesting policies (core::SkipPolicy::burst_depth) -- the
/// certificate's k-step ladder.  `faults_active` relaxes
/// strict_invariant: actuation drops are genuine plant/model mismatch, and
/// a fault campaign must measure XI excursions (left_xi) rather than abort
/// on the first one.
core::IntermittentConfig make_intermittent_config(const PlantCase& plant,
                                                  const core::SkipPolicy& policy,
                                                  bool faults_active = false);

/// Per-period successor observer: (t, x_{t+1}).
using StateObserver = std::function<void(std::size_t, const linalg::Vector&)>;

/// The episode body run_episode and EpisodeEngine share.  Drops all
/// carried state first (the controller runtime, `rmpc`'s warm-start basis,
/// and, when `link` is active, re-arms it from data.fault_stream), then
/// runs data.signal through core::run_closed_loop, summing the plant's
/// running cost and raw energy per period.  `ic` must drive `rmpc`.
EpisodeResult run_monitored_episode(const PlantCase& plant, control::TubeMpc& rmpc,
                                    core::IntermittentController& ic,
                                    const CaseData& data, fault::Link* link,
                                    const StateObserver& observer = {});

/// Run one policy over one case through the intermittent framework with
/// the plant's RMPC, driven in place, as the underlying controller.  An
/// active `faults` spec routes the episode through a faulted network link
/// realized from data.fault_stream.  Each call builds a fresh controller
/// runtime; EpisodeEngine hoists that out of sweeps.
EpisodeResult run_episode(PlantCase& plant, core::SkipPolicy& policy,
                          const CaseData& data, const fault::FaultSpec& faults = {});

/// Relative running-cost saving of `ours` against `baseline` (paper's
/// Fig. 4/5/6 metric): (baseline - ours) / baseline.
double fuel_saving(const EpisodeResult& baseline, const EpisodeResult& ours);

/// Paired comparison over n cases: returns per-case savings of each policy
/// against the always-run (RMPC-only) baseline.
struct ComparisonResult {
  std::vector<std::string> policy_names;
  /// savings[p][c]: cost saving of policy p on case c vs RMPC-only.
  std::vector<std::vector<double>> savings;
  /// Mean skipped steps per episode for each policy.
  std::vector<double> mean_skipped;
  /// Any violation (left_x or left_xi) observed per policy.  Fault-free
  /// sweeps require false (Theorem 1); under faults XI excursions are the
  /// measured degradation and only any_left_x is a hard violation.
  std::vector<bool> any_violation;
  /// Hard safe-set (X) violations per policy -- must stay false even under
  /// faults in conservative degraded mode.
  std::vector<bool> any_left_x;
  /// XI excursions per policy (expected under actuation drops).
  std::vector<bool> any_left_xi;
  /// Fault accounting, mean per episode (zero on fault-free sweeps).
  std::vector<double> mean_degraded;
  std::vector<double> mean_stale_forced;
  std::vector<double> mean_act_dropped;
};

/// Paired comparison of caller-owned policies: the one-chunk, fault-free
/// case of compare_policies_parallel (eval/engine.hpp), so both produce
/// the same numbers for the same seed.  Needs cases >= 1.
ComparisonResult compare_policies(PlantCase& plant, const Scenario& scenario,
                                  const std::vector<core::SkipPolicy*>& policies,
                                  std::size_t cases, std::size_t steps,
                                  std::uint64_t seed);

}  // namespace oic::eval
