#pragma once
/// \file policy.hpp
/// The skipping decision function Omega of Algorithm 1 (line 6).
///
/// A SkipPolicy is consulted ONLY when the monitor has already established
/// x(t) in X', so any return value is safe (Theorem 1); policies differ
/// purely in how much actuation energy / computation they save.  The paper
/// provides a model-based policy (Equation 6, see model_based.hpp) and a
/// DRL policy (Sec. III-B.2, see drl_policy.hpp); this header holds the
/// interface and the trivial baselines.

#include <string>
#include <vector>

#include "core/w_history.hpp"
#include "linalg/vector.hpp"

namespace oic::core {

/// Skipping decision function Omega(x, w-history) -> z in {0, 1}.
class SkipPolicy {
 public:
  virtual ~SkipPolicy() = default;

  /// Decide the skipping variable for the current step.
  /// `w_history` holds the most recent observed state-space disturbances
  /// (E w), oldest first; it may be shorter than the policy's memory at the
  /// start of an episode.  Return 1 to run the underlying controller, 0 to
  /// skip and actuate the designated skip input.  (WHistory converts
  /// implicitly from a std::vector of observations and from {}.)
  virtual int decide(const linalg::Vector& x, const WHistory& w_history) = 0;

  /// Omega over m consulted sessions at once: z[i] = decide(*x[i], *w[i]),
  /// in order.  The default loops decide(); a policy with a cheaper batched
  /// form (DrlPolicy: one network pass) overrides it with the same result.
  virtual void decide_batch(const linalg::Vector* const* x, const WHistory* const* w,
                            std::size_t m, int* z);

  /// Per-episode reset (clears internal clocks / caches).
  virtual void reset() {}

  /// Diagnostic name for experiment tables.
  virtual std::string name() const = 0;

  /// Certified burst depth this policy requests from the framework
  /// (IntermittentConfig::burst_depth; the engines wire the plant's k-step
  /// ladder when this is >= 1).  0 -- the default for every per-step
  /// policy -- leaves the paper's per-period monitor untouched.
  virtual std::size_t burst_depth() const { return 0; }
};

/// Never skip: recovers the traditional "controller only" baseline the
/// paper compares against (RMPC-only in Sec. IV-A).
class AlwaysRunPolicy final : public SkipPolicy {
 public:
  int decide(const linalg::Vector&, const WHistory&) override { return 1; }
  std::string name() const override { return "always-run"; }
};

/// Always skip when allowed.  Combined with the monitor this is exactly the
/// paper's bang-bang scheme (Equation 7): zero input whenever x in X',
/// controller input once the monitor sees x outside X'.
class BangBangPolicy final : public SkipPolicy {
 public:
  int decide(const linalg::Vector&, const WHistory&) override { return 0; }
  std::string name() const override { return "bang-bang"; }
};

/// Periodic duty-cycle baseline: run the controller every `period`-th step.
/// Not in the paper; used by ablation benches to show that pattern-blind
/// skipping underperforms the learned policies.
class PeriodicPolicy final : public SkipPolicy {
 public:
  explicit PeriodicPolicy(std::size_t period);

  int decide(const linalg::Vector&, const WHistory&) override;
  void reset() override { t_ = 0; }
  std::string name() const override;

 private:
  std::size_t period_;
  std::size_t t_ = 0;
};

/// Burst-skip policy (extension; see core/safe_sets.hpp's k-step ladder):
/// skips whenever consulted -- bang-bang's decision rule -- and requests
/// certified bursts of up to `depth` periods from the framework.  When the
/// monitor finds x in X'_k (deepest k <= depth), the whole k-step burst is
/// certified at once and the next k-1 periods skip without set membership
/// checks or policy consultations, amortizing the monitor itself.
class BurstSkipPolicy final : public SkipPolicy {
 public:
  /// Requires depth >= 1 (depth 1 degenerates to bang-bang).
  explicit BurstSkipPolicy(std::size_t depth);

  int decide(const linalg::Vector&, const WHistory&) override { return 0; }
  std::string name() const override;
  std::size_t burst_depth() const override { return depth_; }

 private:
  std::size_t depth_;
};

/// Weakly-hard (m, K) governor (the constraint family of the paper's
/// related-work section): wraps any skipping policy and guarantees at most
/// `m` skips in every window of `K` consecutive steps by overriding excess
/// skip decisions to z = 1.  Useful when a downstream schedulability or
/// stability argument is phrased in (m, K) terms; composes with the monitor
/// (which can only force z = 1, never break the bound).
class WeaklyHardPolicy final : public SkipPolicy {
 public:
  /// `inner` is consulted first; the caller owns its lifetime.
  /// Requires m <= K, K >= 1.
  WeaklyHardPolicy(SkipPolicy& inner, std::size_t m, std::size_t k);

  int decide(const linalg::Vector& x, const WHistory& w_history) override;
  void reset() override;
  std::string name() const override;

  /// Record an externally-forced decision (e.g. the monitor overrode the
  /// policy with z = 1) so the window stays accurate.  Calling decide()
  /// already records its own outcome.
  void note_forced_run();

  /// Number of skips in the current window (diagnostics).
  std::size_t skips_in_window() const;

 private:
  SkipPolicy& inner_;
  std::size_t m_;
  std::size_t k_;
  std::vector<int> window_;  // ring of the last K decisions
  std::size_t head_ = 0;
  std::size_t filled_ = 0;

  void push(int z);
};

}  // namespace oic::core
