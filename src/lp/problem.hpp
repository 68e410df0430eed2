#pragma once
/// \file problem.hpp
/// Linear-program model builder.
///
/// A Problem is the user-facing description:
///   minimize    c^T x
///   subject to  a_i^T x  (<= | >= | =)  b_i        for every constraint i
///               lo_j <= x_j <= hi_j                for every variable j
/// Bounds may be infinite (use Problem::kInf / -Problem::kInf).
/// The solver (simplex.hpp) consumes this structure.

#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/vector.hpp"

namespace oic::lp {

/// Direction of a linear constraint row.
enum class Relation {
  kLessEq,     ///< a^T x <= b
  kGreaterEq,  ///< a^T x >= b
  kEqual,      ///< a^T x  = b
};

/// One dense constraint row, viewed in place: `coeffs` points at the
/// row's num_vars() coefficients inside the Problem's row block, and stays
/// valid until the next add_constraint or add_variable.
struct Constraint {
  const double* coeffs = nullptr;  ///< dense coefficient row a
  Relation rel = Relation::kLessEq;
  double rhs = 0.0;
};

/// LP model builder; see the file comment for the canonical form.
class Problem {
 public:
  /// Convention for "no bound".
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Create a problem with `num_vars` variables, all free, zero objective.
  explicit Problem(std::size_t num_vars);

  /// Number of variables.
  std::size_t num_vars() const { return lo_.size(); }
  /// Number of constraint rows.
  std::size_t num_constraints() const { return rhs_.size(); }

  /// Add a variable with bounds [lo, hi]; returns its index.
  std::size_t add_variable(double lo = -kInf, double hi = kInf);

  /// Set the bounds of an existing variable.
  void set_bounds(std::size_t j, double lo, double hi);
  /// Lower bound of variable j.
  double lower(std::size_t j) const;
  /// Upper bound of variable j.
  double upper(std::size_t j) const;

  /// Set one objective coefficient (objective is minimized).
  void set_objective_coeff(std::size_t j, double cj);
  /// Replace the whole objective vector; dimension must equal num_vars().
  void set_objective(const linalg::Vector& c);
  /// Current objective vector (always dimension num_vars()).
  const linalg::Vector& objective() const { return c_; }

  /// Append a dense constraint row; `coeffs` must have num_vars() entries.
  void add_constraint(const linalg::Vector& coeffs, Relation rel, double rhs);
  /// Same, reading `num_vars()` coefficients from raw storage (lets callers
  /// feed matrix rows without materializing a Vector per row).
  void add_constraint(const double* coeffs, std::size_t n, Relation rel, double rhs);
  /// Constraint row i.
  Constraint constraint(std::size_t i) const;

 private:
  linalg::Vector c_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  /// Every row's coefficients in one row-major block, num_vars() per row:
  /// appending a row is one copy into it, never a heap row of its own.
  std::vector<double> coeffs_;
  std::vector<Relation> rel_;
  std::vector<double> rhs_;
};

}  // namespace oic::lp
