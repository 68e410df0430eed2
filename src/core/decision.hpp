#pragma once
/// \file decision.hpp
/// The fault-free decision of Algorithm 1 (lines 4-8), written once for k
/// sessions of one (plant, policy) group.
///
/// Per row: check x(t) against XI (the precondition, strict mode only) and
/// X'; outside X' force z = 1 (line 8); inside X' let Omega choose (line 6),
/// in one consult over the inside rows that share a policy; and when the
/// chosen z = 0 arm the deepest certified burst the k-step ladder supports
/// at x(t).
/// IntermittentController::decide runs it with k = 1, and the serve tick
/// runs it once per group over the group's pending decides, so the two
/// decision streams agree by construction.
///
/// SessionState is what one session carries between periods: the observed
/// disturbance history (with its residual scratch) and the certified-burst
/// countdown.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "control/lti.hpp"
#include "core/policy.hpp"
#include "core/safe_sets.hpp"
#include "core/w_history.hpp"
#include "linalg/matrix.hpp"

namespace oic::core {

/// XI membership slack of the line-2 precondition check.
inline constexpr double kInvariantSlack = 1e-6;
/// X' membership slack (HPolytope::contains's default).
inline constexpr double kStrengthenedSlack = 1e-9;

/// One session's monitor state between periods.
class SessionState {
 public:
  /// `w_memory` is the disturbance history length r (>= 1 for a policy
  /// that reads it; 0 retains nothing).
  explicit SessionState(std::size_t w_memory = 0) : w_history_(w_memory) {}

  /// Reconstruct the realized disturbance E w = x_next - A x - B u - c of
  /// the period just ended and push it into the history.  Allocation-free
  /// in the steady state.
  void record_transition(const control::AffineLTI& sys, const linalg::Vector& x,
                         const linalg::Vector& u, const linalg::Vector& x_next);

  /// Observed state-space disturbances, oldest first.
  const WHistory& w_history() const { return w_history_; }

  /// Inside a certified burst: consume one pre-certified skip and return
  /// true.  The X'_k membership established when the burst started keeps
  /// this period's skip inside XI for every disturbance, so neither the
  /// monitor nor the policy runs.
  bool take_burst_skip() {
    if (burst_remaining_ == 0) return false;
    --burst_remaining_;
    return true;
  }

  /// After a granted skip at x: certify the deepest burst the ladder
  /// supports (ladder[k-1] = X'_k, searched from k = max_burst down to 2),
  /// so the next k-1 periods skip without monitor work.
  void arm_burst(const std::vector<poly::HPolytope>& ladder, std::size_t max_burst,
                 const linalg::Vector& x);

  /// Certified skips left in the burst in flight.
  std::size_t burst_remaining() const { return burst_remaining_; }

  /// Drop the history contents and any burst in flight.
  void reset() {
    w_history_.clear();
    burst_remaining_ = 0;
  }

 private:
  WHistory w_history_;
  linalg::Vector ew_scratch_;  ///< record_transition residual scratch
  std::size_t burst_remaining_ = 0;
};

/// The group-constant inputs of one decision pass.
struct MonitorSpec {
  const SafeSets& sets;
  /// The certificate's k-step skip ladder (ladder[k-1] = X'_k).
  const std::vector<poly::HPolytope>& ladder;
  /// Deepest certifiable rung, min(burst depth, ladder size); below 2 no
  /// burst is ever armed.
  std::size_t max_burst = 0;
  /// Check the XI precondition (IntermittentConfig::strict_invariant).
  bool strict = true;
};

/// One session row of a decision pass.
struct DecisionRow {
  const linalg::Vector* x = nullptr;  ///< x(t)
  SessionState* state = nullptr;      ///< the session's history and countdown
  SkipPolicy* policy = nullptr;       ///< Omega for this session
};

/// How the monitor reached a row's z.
enum class Verdict : std::uint8_t {
  kLeftXi,       ///< strict mode, x outside XI: the precondition failed (z unset)
  kForced,       ///< x outside X': z = 1 without Omega (line 8)
  kConsulted,    ///< x inside X': Omega chose z (line 6)
  kUnavailable,  ///< x inside X', Omega's compute down: the safe default z = 1
};

/// One row's outcome.
struct RowDecision {
  Verdict verdict = Verdict::kForced;
  int z = 1;
};

/// The decision routine plus its reusable scratch (one per caller: an
/// IntermittentController, a serve group).  Not thread-safe.
class DecisionCore {
 public:
  /// Rows from which the membership pass chunks over a pool.
  static constexpr std::size_t kPoolRows = 256;

  /// Decide `k` rows of one group into out[0..k).  `policy_ok` false marks
  /// Omega unavailable for the whole pass (degraded monitor).  With a pool
  /// and k >= kPoolRows the XI / X' membership pass splits into one chunk
  /// per worker; rows are independent, so any chunking gives the same bits.
  /// Consecutive consulted rows that share a policy go to it in one
  /// decide_batch call (a lone row in one decide call).  Allocation-free
  /// once the scratch has grown to k.
  void decide(const MonitorSpec& spec, const DecisionRow* rows, std::size_t k,
              bool policy_ok, RowDecision* out, ThreadPool* pool = nullptr);

 private:
  linalg::Matrix xbatch_;  ///< k > 1: the rows packed SoA
  std::vector<double> xi_viol_;
  std::vector<double> xp_viol_;
  std::vector<std::size_t> consult_;  ///< inside-X' row indices
  std::vector<const linalg::Vector*> consult_x_;
  std::vector<const WHistory*> consult_w_;
  std::vector<int> consult_z_;
};

}  // namespace oic::core
