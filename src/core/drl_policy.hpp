#pragma once
/// \file drl_policy.hpp
/// DRL-based skipping policy (Sec. III-B.2): a double-DQN agent maps
/// {x(t), w(t-r+1), ..., w(t)} to the skipping choice z(t).  This header
/// holds the inference-side policy plus the pieces shared with training:
/// the DQN state builder and the paper's reward function.

#include <memory>

#include "core/policy.hpp"
#include "core/safe_sets.hpp"
#include "rl/dqn.hpp"

namespace oic::core {

/// Assemble the DQN state vector {x, w-history} with memory length r:
/// the r most recent state-space disturbance observations, zero-padded at
/// the front when the episode is younger than r (the paper initializes
/// w(-r+1..-1) = 0).
linalg::Vector build_drl_state(const linalg::Vector& x, const WHistory& w_history,
                               std::size_t r, std::size_t w_dim);

/// Allocation-free variant: writes into `out` (resized once, then reused).
void build_drl_state_into(linalg::Vector& out, const linalg::Vector& x,
                          const WHistory& w_history, std::size_t r, std::size_t w_dim);

/// Pointer form: writes the drl_state_dim(x.size(), w_dim, r) entries of
/// one state row at `row` (a row of a batch matrix, say).
void build_drl_state_row(double* row, const linalg::Vector& x, const WHistory& w_history,
                         std::size_t r, std::size_t w_dim);

/// Per-feature normalization for the DQN state: the reciprocal half-widths
/// of the state box X and the state-space disturbance set E W, so every
/// network input lands in roughly [-1, 1].  Tiny half-widths (degenerate
/// disturbance coordinates) get scale 1 -- the feature is constant anyway.
/// Unscaled inputs make the tiny disturbance features invisible next to
/// the large position coordinates and cripple pattern learning.
linalg::Vector drl_state_scale(const control::AffineLTI& sys, std::size_t r);

/// Elementwise product helper used by the trainer and DrlPolicy to apply
/// the normalization; `scale` may be empty (no scaling).
linalg::Vector apply_state_scale(linalg::Vector state, const linalg::Vector& scale);
/// Same normalization applied in place (the allocation-free inference path).
void apply_state_scale_inplace(linalg::Vector& state, const linalg::Vector& scale);

/// DQN state dimension for the given plant dimensions and memory length.
std::size_t drl_state_dim(std::size_t nx, std::size_t w_dim, std::size_t r);

/// The paper's reward (penalty) R(s1, z, s2) = -w1 R1 - w2 R2 with
///   R1 = [x2 outside X'] and R2 = ||kappa(x1)||_1 unless (z = 0 and x1 in X').
/// `kappa_energy` is ||kappa(x1)||_1 supplied by the caller (computing it
/// may require an extra controller invocation during training only).
double skipping_reward(const SafeSets& sets, const linalg::Vector& x1, int z,
                       const linalg::Vector& x2, double kappa_energy, double w1,
                       double w2);

/// Inference-side policy wrapping a trained agent (greedy actions).
class DrlPolicy final : public SkipPolicy {
 public:
  /// `agent` is shared with the trainer that produced it; `r` is the
  /// disturbance memory length (the paper's ACC study uses r = 1) and
  /// `w_dim` the dimension of the stored disturbance observations.
  /// `state_scale` must match the normalization used during training
  /// (drl_state_scale); pass an empty vector for raw states.
  DrlPolicy(std::shared_ptr<const rl::DoubleDqn> agent, std::size_t r,
            std::size_t w_dim, linalg::Vector state_scale = {});

  /// Deployment-side construction from a bare network (a serialized
  /// agent's online net): greedy decisions are identical to wrapping the
  /// full agent -- greedy_action is argmax over the online forward pass.
  /// `label` becomes name(), so sweeps over several loaded agents stay
  /// distinguishable in tables and JSON.
  static std::unique_ptr<DrlPolicy> from_network(std::shared_ptr<const rl::Mlp> net,
                                                 std::size_t r, std::size_t w_dim,
                                                 linalg::Vector state_scale = {},
                                                 std::string label = "drl-dqn");

  int decide(const linalg::Vector& x, const WHistory& w_history) override;
  /// One forward_batch_into pass over the m state rows (each row
  /// bit-identical to decide()'s per-sample pass).
  void decide_batch(const linalg::Vector* const* x, const WHistory* const* w,
                    std::size_t m, int* z) override;
  std::string name() const override { return label_; }

  /// Memory length r.
  std::size_t memory() const { return r_; }
  /// The state normalization (empty = raw states).
  const linalg::Vector& state_scale() const { return state_scale_; }
  /// The online network decisions are read from.
  const rl::Mlp& network() const { return *net_; }

 private:
  DrlPolicy(std::shared_ptr<const rl::Mlp> net, std::size_t r, std::size_t w_dim,
            linalg::Vector state_scale, std::string label);

  /// Greedy decisions only need the online network; the aliasing pointer
  /// keeps a wrapped agent alive when one was supplied.
  std::shared_ptr<const rl::Mlp> net_;
  std::size_t r_;
  std::size_t w_dim_;
  linalg::Vector state_scale_;
  std::string label_ = "drl-dqn";
  // Per-policy inference scratch: the network may be shared across threads
  // (its inference is const); the mutable buffers live here so each worker
  // owns its own and a steady-state decide() allocates nothing.
  linalg::Vector state_scratch_;
  rl::MlpWorkspace mlp_ws_;
  linalg::Matrix state_batch_;  ///< decide_batch's state rows (grown, never shrunk)
  rl::BatchWorkspace batch_ws_;
};

}  // namespace oic::core
