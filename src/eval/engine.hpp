#pragma once
/// \file engine.hpp
/// Throughput-oriented episode evaluation, generic over PlantCase.
///
/// run_episode builds the Algorithm-1 runtime per episode: a fresh
/// IntermittentController (whose constructor re-verifies the
/// X' subset XI subset X nesting with a pile of LP solves) around the
/// plant's own RMPC.  An EpisodeEngine is the hoisted per-policy context:
/// controller construction, set verification and the MPC's prepared LP
/// happen once, and each run() only resets per-episode state before the
/// shared episode body (run_monitored_episode -> core::run_closed_loop).
/// Engines own a private TubeMpc copy, so any number of engines can run
/// concurrently against one shared (const) PlantCase.
///
/// compare_policies_parallel shards the case list over a thread pool with
/// one engine set per worker.  Cases are drawn serially up front from one
/// Rng::split() stream, each episode resets all carried solver state, and
/// the partition is a pure function of (cases, workers) -- so the output
/// is bit-identical at any worker count for a fixed seed.

#include <functional>
#include <memory>
#include <vector>

#include "control/tube_mpc.hpp"
#include "core/intermittent.hpp"
#include "eval/harness.hpp"

namespace oic::eval {

/// Reusable per-policy evaluation context (see file comment).
/// Not thread-safe; create one per worker.
class EpisodeEngine {
 public:
  /// Binds to a plant and a policy.  Builds the Algorithm-1 runtime once:
  /// this is where the nesting verification LPs run.  The policy and plant
  /// must outlive the engine.  An active fault spec routes every episode
  /// through a per-engine fault::Link (re-armed from data.fault_stream);
  /// the default (inactive) spec runs fault-free.
  EpisodeEngine(const PlantCase& plant, core::SkipPolicy& policy,
                const fault::FaultSpec& faults = {});

  /// Non-copyable/movable: the controller runtime holds a reference to the
  /// engine's own RMPC instance.
  EpisodeEngine(const EpisodeEngine&) = delete;
  EpisodeEngine& operator=(const EpisodeEngine&) = delete;

  /// Evaluate one episode: the same episode body as run_episode() minus
  /// the per-episode setup.  Carried solver state is dropped first, so
  /// results do not depend on what this engine ran before.
  EpisodeResult run(const CaseData& data);

  /// The policy driving this engine.
  const core::SkipPolicy& policy() const { return policy_; }

  /// Per-step trajectory observer: called after every simulated step with
  /// (t, x_{t+1}).  The importance-splitting layer hooks this to compute
  /// level traces (distance-to-boundary) without the engine storing
  /// trajectories.  Pass {} to clear.  Observers must not touch the
  /// engine (re-entrancy is undefined); they do not affect any result
  /// field.
  void set_observer(StateObserver obs) { observer_ = std::move(obs); }

 private:
  const PlantCase& plant_;
  core::SkipPolicy& policy_;
  control::TubeMpc rmpc_;  ///< private copy: per-engine solver state
  core::IntermittentController ic_;
  fault::Link link_;        ///< per-engine fault realization (inactive = unused)
  StateObserver observer_;
};

/// Per-worker policy set builder for the parallel sweep.  Invoked once per
/// worker; must return the same policies in the same order every time
/// (they may share read-only state such as a trained DQN, but each call
/// must produce independently mutable instances).  The bit-identical
/// serial/parallel guarantee additionally requires reset()-complete
/// policies: reset() must restore the exact initial decision state, so an
/// episode's decisions depend only on (x, w_history) since reset.  A
/// policy carrying unreset state (e.g. an internal RNG) voids the
/// guarantee -- its decisions would depend on which cases its worker saw.
using PolicySetFactory =
    std::function<std::vector<std::unique_ptr<core::SkipPolicy>>()>;

/// Sweep configuration.
struct SweepConfig {
  std::size_t cases = 200;
  std::size_t steps = 100;
  std::uint64_t seed = 20200406;
  /// Worker count; 0 picks the hardware concurrency, 1 runs inline (no
  /// threads).  Results are identical for every value given reset()-
  /// complete policies (see PolicySetFactory).
  std::size_t workers = 0;
  /// Fault model applied to every episode (inactive by default).  Each
  /// case carries its own fault stream, so the baseline and every policy
  /// face the SAME loss realization -- the paired comparison extends to
  /// the fault axis -- and results stay worker-count invariant.
  fault::FaultSpec faults;
};

/// Paired policy comparison against the always-run baseline, sharded over
/// a thread pool (see the file comment).  compare_policies is its
/// one-chunk case.
ComparisonResult compare_policies_parallel(const PlantCase& plant,
                                           const Scenario& scenario,
                                           const PolicySetFactory& factory,
                                           const SweepConfig& cfg);

}  // namespace oic::eval
