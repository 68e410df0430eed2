#pragma once
/// \file model_based.hpp
/// Model-based skipping policy (Sec. III-B.1, Equation 6).
///
/// Applicable when the underlying controller has an analytic (affine)
/// expression u = K x + k0 and the disturbance trace w(t) is known ahead of
/// time.  At each step the policy solves the horizon-H problem
///
///   min  sum_k || u(k|t) ||_1
///   s.t. x(k+1|t) = A x(k|t) + B u(k|t) + E w(t+k) + c
///        x(k+1|t) in X',  u(k|t) in U,
///        u(k|t) = kappa(x(k|t)) if z(k) = 1,  u_skip if z(k) = 0,
///
/// and applies z*(0|t).
///
/// The paper states Equation 6 as a mixed-integer program: binaries z(k),
/// continuous u(k) and x(k+1), and big-M rows |u(k) - kappa(x(k))| <=
/// M (1 - z(k)) and |u(k) - u_skip| <= M z(k) that select the input.  Here
/// kappa is a feedback law and w is known, so fixing z determines the
/// whole trajectory: the continuous part of the MIP has exactly one
/// feasible point per z-sequence.  The policy therefore searches the 2^H
/// sequences directly (depth first, cheapest option first, pruned on
/// accumulated energy); each leaf costs one rollout, and the optimum is
/// the MIP's optimum.

#include <memory>

#include "control/controller.hpp"
#include "control/lti.hpp"
#include "core/policy.hpp"
#include "core/safe_sets.hpp"

namespace oic::core {

/// Oracle providing the known disturbance w(t) (in W-space, dimension nw).
class DisturbanceOracle {
 public:
  virtual ~DisturbanceOracle() = default;
  /// Disturbance that will act at absolute step t.
  virtual linalg::Vector at(std::size_t t) const = 0;
};

/// Constant-disturbance oracle (w(t) = w0 for all t).
class ConstantOracle final : public DisturbanceOracle {
 public:
  explicit ConstantOracle(linalg::Vector w0) : w0_(std::move(w0)) {}
  linalg::Vector at(std::size_t) const override { return w0_; }

 private:
  linalg::Vector w0_;
};

/// Oracle backed by a recorded trace (repeats the last value past the end).
class SequenceOracle final : public DisturbanceOracle {
 public:
  explicit SequenceOracle(std::vector<linalg::Vector> seq);
  linalg::Vector at(std::size_t t) const override;

 private:
  std::vector<linalg::Vector> seq_;
};

/// Configuration of the model-based policy.
struct ModelBasedConfig {
  std::size_t horizon = 8;  ///< H in Equation 6
  /// Energy is measured as || u - energy_offset ||_1; non-zero when the
  /// model is in shifted coordinates and the physical input is u + const.
  linalg::Vector energy_offset;
};

/// Diagnostics of the most recent decide() call.
struct ModelBasedInfo {
  bool feasible = false;          ///< some z-sequence satisfied all constraints
  double planned_cost = 0.0;      ///< optimal horizon cost
  std::vector<int> planned_z;     ///< optimal skip sequence z*(0..H-1)
  std::size_t nodes_explored = 0; ///< search nodes
};

/// The Equation-6 policy.  Holds a step clock advanced by each decide();
/// reset() rewinds it to 0 (start of an episode).
class ModelBasedPolicy final : public SkipPolicy {
 public:
  /// `kappa` must be the analytic controller (affine feedback).  The policy
  /// keeps references; the caller owns lifetime.
  ModelBasedPolicy(const control::AffineLTI& sys, const SafeSets& sets,
                   const control::LinearFeedback& kappa, linalg::Vector u_skip,
                   const DisturbanceOracle& oracle, ModelBasedConfig config = {});

  int decide(const linalg::Vector& x, const WHistory& w_history) override;
  void reset() override { t_ = 0; }
  std::string name() const override;

  /// Diagnostics of the last decide().
  const ModelBasedInfo& last() const { return last_; }

  /// Absolute step clock (number of decide() calls since reset).
  std::size_t clock() const { return t_; }

 private:
  const control::AffineLTI& sys_;
  const SafeSets& sets_;
  const control::LinearFeedback& kappa_;
  linalg::Vector u_skip_;
  const DisturbanceOracle& oracle_;
  ModelBasedConfig config_;
  std::size_t t_ = 0;
  ModelBasedInfo last_;

  double energy(const linalg::Vector& u) const;
};

}  // namespace oic::core
