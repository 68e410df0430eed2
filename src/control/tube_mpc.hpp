#pragma once
/// \file tube_mpc.hpp
/// Robust MPC with constraint tightening, after Chisci et al. [1] as quoted
/// in Equation (5) of the paper: at each step solve
///
///   J(x(t)) = min  sum_{k=0}^{N-1}  P ||x(k|t)||_1 + Q ||u(k|t)||_1
///        s.t.  x(k+1|t) = A x(k|t) + B u(k|t) + c        (nominal dynamics)
///              x(k|t) in X(k),  u(k|t) in U,  x(N|t) in X_t,
///              x(0|t) = x(t),
///
/// with recursively tightened state sets
///   X(0) = X,   X(k) = X(k-1) (-) M^{k-1} E W,
/// where M = A reproduces the paper's recursion verbatim and M = A + B K
/// gives the classical closed-loop (Chisci) tightening -- selectable, and
/// ablated in bench_sets.  The terminal set X_t is the maximal RPI set of
/// the local feedback u = K x inside the most-tightened constraints, which
/// provides the stability property Prop. 1 relies on.

#include <cstdint>
#include <memory>
#include <vector>

#include "control/controller.hpp"
#include "control/invariant.hpp"
#include "control/lti.hpp"
#include "lp/prepared.hpp"
#include "lp/problem.hpp"
#include "poly/hpolytope.hpp"

namespace oic::control {

/// Tube-MPC configuration.
struct RmpcConfig {
  std::size_t horizon = 10;   ///< N; the ACC case study uses 10 (Sec. IV)
  double state_weight = 1.0;  ///< P in Equation (5)
  double input_weight = 1.0;  ///< Q in Equation (5)
  /// false: tighten with open-loop powers A^{k-1} (the paper's recursion);
  /// true: tighten with closed-loop powers (A+BK)^{k-1} (Chisci's original).
  bool closed_loop_tightening = false;
  /// Fixed-point options for the terminal-set computation.
  InvariantOptions terminal_options = {};
};

/// Diagnostics of the most recent successful solve.
struct MpcSolveInfo {
  double cost = 0.0;                        ///< optimal objective J(x)
  std::vector<linalg::Vector> planned_x;    ///< x(0|t) ... x(N|t)
  std::vector<linalg::Vector> planned_u;    ///< u(0|t) ... u(N-1|t)
};

/// Robust tube MPC; implements Controller so the intermittent framework can
/// wrap it as the underlying safe controller kappa.
class TubeMpc : public Controller {
 public:
  /// Build the controller: computes tightened sets and the terminal set.
  /// `k_local` is the stabilizing local gain (u = K x) used for tightening
  /// (when closed-loop) and for the terminal RPI set; obtain one from dlqr.
  /// Throws NumericalError if the terminal set comes out empty (horizon too
  /// long / disturbance too large for the constraints).
  TubeMpc(AffineLTI sys, linalg::Matrix k_local, RmpcConfig config = {});

  /// Rehydrate from precomputed tightened / terminal sets (the certificate
  /// load path, src/cert): skips every synthesis LP and Minkowski
  /// difference, so construction is allocation-and-validation only.  The
  /// sets must be what the synthesizing constructor produced for the same
  /// (sys, k_local, config) -- shapes and counts are validated here, the
  /// semantic properties by cert::verify.
  TubeMpc(AffineLTI sys, linalg::Matrix k_local, RmpcConfig config,
          std::vector<poly::HPolytope> tightened, poly::HPolytope terminal);

  /// Copyable: each copy gets independent solver state (cached LP, solve
  /// diagnostics), which is what lets evaluation workers run concurrently
  /// on private controller instances without re-deriving the tightened and
  /// terminal sets.  A copy keeps its source's restart family, so copies
  /// on one thread share memoized seed restarts (lp/prepared.hpp).
  TubeMpc(const TubeMpc& other);
  TubeMpc& operator=(const TubeMpc& other);

  /// Solve Equation (5) and return u*(0|t).  Throws NumericalError when the
  /// optimization is infeasible at x (i.e. x outside the feasible region).
  linalg::Vector control(const linalg::Vector& x) override;

  std::size_t state_dim() const override { return sys_.nx(); }
  std::size_t input_dim() const override { return sys_.nu(); }
  std::string name() const override { return "tube-rmpc"; }

  /// LP feasibility of the MPC optimization at x (no objective solve).
  bool feasible(const linalg::Vector& x) const;

  /// Tightened state set X(k), 0 <= k <= horizon.
  const poly::HPolytope& tightened(std::size_t k) const;

  /// Terminal set X_t.
  const poly::HPolytope& terminal_set() const { return terminal_; }

  /// Diagnostics of the last successful control() call.
  const MpcSolveInfo& last_solve() const { return last_; }

  /// The underlying plant model.
  const AffineLTI& system() const { return sys_; }

  /// The stabilizing local gain (u = K x) the tube was tightened with.
  /// Degraded-mode consumers use it as a saturated recovery feedback when
  /// the optimization is infeasible at the state estimate.
  const linalg::Matrix& local_gain() const { return k_local_; }

  /// Configuration in effect.
  const RmpcConfig& config() const { return config_; }

  /// Drop per-instance solver state carried between control() calls (the
  /// warm-started basis).  Call at episode boundaries when runs must be
  /// independent of what the controller solved before (the evaluation
  /// engine does this so sharded and serial sweeps are bit-identical).
  void reset_solver();

  /// The exact feasible region X_F of the optimization, computed by the
  /// N-step nominal controllability recursion with tightened constraints
  /// (Fourier-Motzkin).  By Prop. 1 this set is also the robust control
  /// invariant set XI of the controller.  Expensive; compute once and cache
  /// at the call site.
  poly::HPolytope compute_feasible_set() const;

 private:
  AffineLTI sys_;
  linalg::Matrix k_local_;
  RmpcConfig config_;
  std::vector<poly::HPolytope> tightened_;  // X(0) ... X(N)
  poly::HPolytope terminal_;
  MpcSolveInfo last_;
  /// Restart family of this controller's LP (PreparedProblem::set_hot_rows):
  /// drawn once by each building constructor, inherited by copies, which
  /// build the identical LP.
  std::uint64_t lp_family_ = 0;
  /// Prepared Equation-(5) LP (built lazily on the first control() call):
  /// only the first nx right-hand sides depend on the query state, so each
  /// step is a rhs patch + workspace solve.
  std::unique_ptr<lp::PreparedProblem> prepared_;
  lp::SolverWorkspace ws_;
  lp::PreparedProblem::WarmState warm_;

  /// Build the LP; when `with_objective` is false the objective is zero
  /// (pure feasibility test).  Returns the LP and records the variable
  /// layout (state/input block offsets) in the out-parameters.
  struct LpLayout {
    std::size_t x0 = 0;      ///< first state-variable column
    std::size_t u0 = 0;      ///< first input-variable column
    std::size_t tx0 = 0;     ///< first |x| auxiliary column
    std::size_t tu0 = 0;     ///< first |u| auxiliary column
    std::size_t total = 0;   ///< total variable count
  };
  LpLayout make_layout(bool with_objective) const;
  lp::Problem build_lp(const linalg::Vector& x0, bool with_objective,
                       LpLayout& layout) const;
};

}  // namespace oic::control
