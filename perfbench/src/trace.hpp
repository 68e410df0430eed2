#pragma once
/// \file trace.hpp
/// Outside-in tracing: timing decorators around the public seams every
/// control period goes through, and the span recorder they report to.
///
/// The harness (eval::run_episode -> core::run_closed_loop) and the DQN
/// trainer drive `PlantCase::rmpc()` and the given `SkipPolicy` directly,
/// and call the plant's per-step hooks.  A ProxyPlant that forwards to a
/// real plant, whose rmpc() is a TimedTubeMpc, plus a TimedPolicy around
/// the real policy, therefore time kappa and Omega without touching the
/// library.  The return of `signal_to_w` (called once per period by both
/// loops) closes a period; the period's self time is what is left after
/// kappa, Omega and the plant hooks.
///
/// Seam guards: every decorator counts its calls, and the workloads compare
/// those counts with independent counts from the results (kappa calls must
/// equal controller-run periods).  A refactor that routes around a seam --
/// e.g. copies the TubeMpc instead of driving plant.rmpc() -- then fails
/// the traced run instead of silently reporting a smaller stage.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "control/tube_mpc.hpp"
#include "core/policy.hpp"
#include "eval/plant.hpp"
#include "eval/registry.hpp"

namespace perfbench {

/// Span kinds (see stage_name for their names in trace files).
enum class Stage : std::uint8_t { kUnit, kSetup, kPeriod, kMpc, kPolicy, kHook, kTail };

const char* stage_name(Stage s);

/// One recorded span: times are microseconds since the tracer's origin.
struct Span {
  Stage stage;
  std::uint32_t parent;  ///< index of the enclosing span (self = none)
  std::uint64_t unit;    ///< episode / training job / decide id
  double t0;
  double t1;
};

/// Single-threaded span recorder with per-period accounting.  Traced runs
/// execute serially so stages never overlap across threads.
class Tracer {
 public:
  Tracer();

  double now_us() const;

  /// A unit of work (one harness episode, one training job) starts at
  /// `t_call`.  Periods open lazily at the last marker before their first
  /// stage, so per-episode set-up before the loop is kept out of periods.
  void begin_unit(std::uint64_t unit, double t_call);
  /// Close the unit: whatever ran after the last period boundary is tail.
  void end_unit(double t_return);

  /// An accessor call on the proxy plant (period-0 start candidate).
  void marker() {
    if (!period_open_) last_marker_ = now_us();
  }
  /// A timed call inside a period.
  void stage(Stage s, double t0, double t1, bool drl = false);
  /// A period boundary (signal_to_w returned at `t`).
  void boundary(double t);

  /// Accumulated per-period statistics (microseconds).
  struct Stats {
    std::vector<double> period_us;      ///< per period
    std::vector<double> self_us;        ///< per period: period - stages
    std::vector<double> hooks_us;       ///< per period: plant hooks
    std::vector<double> mpc_call_us;    ///< per kappa call
    std::vector<double> drl_call_us;    ///< per DRL policy call
    std::vector<double> unit_setup_us;  ///< per unit: call -> period 0
    double mpc_sum = 0.0, policy_sum = 0.0, hooks_sum = 0.0, self_sum = 0.0;
    double period_sum = 0.0;
    std::uint64_t periods = 0, mpc_calls = 0, drl_calls = 0;
    std::uint64_t drl_periods = 0;      ///< periods of units flagged DRL
    std::uint64_t nesting_violations = 0;  ///< a stage outside its period
  };
  const Stats& stats() const { return stats_; }
  /// Mark the current unit as a DRL cell (policy_per_period denominator).
  void set_unit_drl(bool drl) { unit_drl_ = drl; }

  /// Write every span as text: "<stage> <parent> <unit> <t0_us> <t1_us>".
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  Stats stats_;
  std::uint64_t unit_ = 0;
  std::uint32_t unit_span_ = 0;
  bool unit_open_ = false;
  bool unit_drl_ = false;
  double unit_t0_ = 0.0;
  bool period_open_ = false;
  bool setup_recorded_ = false;
  double period_t0_ = 0.0;
  double last_marker_ = 0.0;
  double cur_mpc_ = 0.0, cur_policy_ = 0.0, cur_hooks_ = 0.0;
  std::vector<Span> pending_;  ///< stages of the open period
};

/// Tube MPC whose control() is timed; counts every attempt (including
/// ones that throw, which the degraded monitor catches).
class TimedTubeMpc final : public oic::control::TubeMpc {
 public:
  TimedTubeMpc(const oic::control::TubeMpc& base, Tracer* tracer)
      : oic::control::TubeMpc(base), tracer_(tracer) {}
  oic::linalg::Vector control(const oic::linalg::Vector& x) override;
  std::uint64_t calls() const { return calls_; }
  void reset_calls() { calls_ = 0; }

 private:
  Tracer* tracer_;
  std::uint64_t calls_ = 0;
};

/// Skip policy decorator: forwards everything, times decide().
class TimedPolicy final : public oic::core::SkipPolicy {
 public:
  TimedPolicy(std::unique_ptr<oic::core::SkipPolicy> inner, Tracer* tracer, bool drl)
      : inner_(std::move(inner)), tracer_(tracer), drl_(drl) {}
  int decide(const oic::linalg::Vector& x, const oic::core::WHistory& w) override;
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  std::size_t burst_depth() const override { return inner_->burst_depth(); }
  std::uint64_t calls() const { return calls_; }
  void reset_calls() { calls_ = 0; }

 private:
  std::unique_ptr<oic::core::SkipPolicy> inner_;
  Tracer* tracer_;
  bool drl_;
  std::uint64_t calls_ = 0;
};

/// Untraced per-unit latency: every thread records a timestamp each time
/// a new case starts (PlantCase::sample_x0 is called once per case by the
/// campaign's case generator); consecutive stamps of one thread within one
/// epoch bound one case.
class CaseClock {
 public:
  CaseClock();
  void stamp();
  /// Start a new epoch: stamps before it never pair with stamps after it.
  void next_epoch() { epoch_.fetch_add(1); }
  /// Durations (ms) between consecutive stamps of one thread and epoch.
  std::vector<double> durations_ms() const;

 private:
  struct Lane {
    std::vector<std::pair<std::uint32_t, Clock::time_point>> stamps;
  };
  Lane& lane();
  const std::uint64_t id_;  ///< process-unique, keys the per-thread lane cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint32_t> epoch_{0};
};

/// Forwarding PlantCase (see file comment).  Owns its RMPC instance (a
/// TimedTubeMpc when traced), so trainers may drive it concurrently with
/// other proxies of the same plant.
class ProxyPlant final : public oic::eval::PlantCase {
 public:
  ProxyPlant(const oic::eval::PlantCase& inner, Tracer* tracer, CaseClock* clock);

  std::string name() const override { return inner_.name(); }
  const oic::control::AffineLTI& system() const override;
  oic::control::TubeMpc& rmpc() override;
  const oic::control::TubeMpc& rmpc() const override;
  const oic::core::SafeSets& sets() const override;
  const std::vector<oic::poly::HPolytope>& ladder() const override {
    return inner_.ladder();
  }
  const oic::linalg::Vector& u_skip() const override { return inner_.u_skip(); }
  oic::linalg::Vector sample_x0(oic::Rng& rng) const override;
  void signal_to_w(double signal, oic::linalg::Vector& w) const override;
  double cost_step(const oic::linalg::Vector& x, const oic::linalg::Vector& u,
                   bool controller_ran) const override;
  double energy_raw(const oic::linalg::Vector& u) const override;
  double train_cost_rate(const oic::linalg::Vector& x,
                         const oic::linalg::Vector& u) const override;

  /// The timing RMPC (null when untraced).
  TimedTubeMpc* timed_rmpc() { return timed_; }

 private:
  void mark() const {
    if (tracer_) tracer_->marker();
  }
  const oic::eval::PlantCase& inner_;
  Tracer* tracer_;
  CaseClock* clock_;
  std::unique_ptr<oic::control::TubeMpc> rmpc_;
  TimedTubeMpc* timed_ = nullptr;
};

/// A registry whose production plants build ProxyPlants over `plants`
/// (same ids, scenarios, bands and fault presets as the built-in one), so
/// library entry points that take a registry run against plants built once in
/// set-up.  `plants[i]` is the plant with id `ids[i]`.
oic::eval::ScenarioRegistry proxy_registry(
    const std::vector<std::string>& ids,
    const std::vector<const oic::eval::PlantCase*>& plants, CaseClock* clock);

}  // namespace perfbench
