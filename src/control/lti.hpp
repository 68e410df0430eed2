#pragma once
/// \file lti.hpp
/// The plant model of the paper (Sec. II):
///   x(t+1) = A x(t) + B u(t) + E w(t) + c,   x in X, u in U, w in W,
/// with X, U, W polytopes.  The affine term c and the disturbance input
/// matrix E generalize Equation (1) just enough to express case studies in
/// their natural (unshifted) coordinates; set E = I and c = 0 to recover
/// the paper's exact form.

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "poly/hpolytope.hpp"

namespace oic::control {

/// Discrete-time affine LTI system with polytopic constraint sets.
class AffineLTI {
 public:
  /// Construct with full generality.  Dimensions are validated:
  /// A: nx-by-nx, B: nx-by-nu, E: nx-by-nw, c: nx,
  /// X in R^nx, U in R^nu, W in R^nw.
  AffineLTI(linalg::Matrix a, linalg::Matrix b, linalg::Matrix e, linalg::Vector c,
            poly::HPolytope x_set, poly::HPolytope u_set, poly::HPolytope w_set);

  /// Convenience: the paper's Equation (1) exactly (E = I, c = 0).
  static AffineLTI canonical(linalg::Matrix a, linalg::Matrix b, poly::HPolytope x_set,
                             poly::HPolytope u_set, poly::HPolytope w_set);

  std::size_t nx() const { return a_.rows(); }
  std::size_t nu() const { return b_.cols(); }
  std::size_t nw() const { return e_.cols(); }

  const linalg::Matrix& a() const { return a_; }
  const linalg::Matrix& b() const { return b_; }
  const linalg::Matrix& e() const { return e_; }
  const linalg::Vector& c() const { return c_; }

  /// State constraint polytope X (the paper's original safe set).
  const poly::HPolytope& x_set() const { return x_set_; }
  /// Input constraint polytope U.
  const poly::HPolytope& u_set() const { return u_set_; }
  /// Disturbance polytope W.
  const poly::HPolytope& w_set() const { return w_set_; }

  /// One exact step of the dynamics.
  linalg::Vector step(const linalg::Vector& x, const linalg::Vector& u,
                      const linalg::Vector& w) const;

  /// One exact step into a caller-owned vector (allocation-free once `out`
  /// is warm); bit-identical to step().
  void step_into(const linalg::Vector& x, const linalg::Vector& u,
                 const linalg::Vector& w, linalg::Vector& out) const;

  /// Nominal step (w = 0).
  linalg::Vector step_nominal(const linalg::Vector& x, const linalg::Vector& u) const;

  /// Nominal step into a caller-owned vector (allocation-free once `out`
  /// is warm); bit-identical to step_nominal().  `out` must not alias `x`
  /// or `u`.
  void step_nominal_into(const linalg::Vector& x, const linalg::Vector& u,
                         linalg::Vector& out) const;

  /// The disturbance set mapped into state space, E W, materialized as a
  /// polytope (exact for invertible E; template-based outer approximation
  /// otherwise -- exact in all library use cases where E selects coordinates).
  poly::HPolytope disturbance_in_state_space() const;

 private:
  linalg::Matrix a_, b_, e_;
  linalg::Vector c_;
  poly::HPolytope x_set_, u_set_, w_set_;
};

}  // namespace oic::control
