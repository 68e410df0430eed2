#pragma once
/// \file vector.hpp
/// Dense real vector used throughout the library for states, inputs and
/// disturbances.  Sizes in this domain are tiny (n <= ~20), so the design
/// favours clarity and checked access over SIMD cleverness.

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace oic::linalg {

/// Dense column vector of doubles with value semantics.
class Vector {
 public:
  /// Empty (dimension-0) vector.
  Vector() = default;

  /// Zero vector of dimension n.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}

  /// Vector of dimension n filled with `value`.
  Vector(std::size_t n, double value) : data_(n, value) {}

  /// Construct from a braced list, e.g. Vector{1.0, 2.0}.
  Vector(std::initializer_list<double> xs) : data_(xs) {}

  /// Construct by copying a std::vector.
  explicit Vector(std::vector<double> xs) : data_(std::move(xs)) {}

  /// Dimension.
  std::size_t size() const { return data_.size(); }

  /// True when the dimension is zero.
  bool empty() const { return data_.empty(); }

  /// Checked element access.
  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  /// Raw storage (for interop with the LP solver's dense rows).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// In-place arithmetic; dimensions must match.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  /// Euclidean norm.
  double norm2() const;
  /// 1-norm (the paper's actuation-energy measure, Sec. II).
  double norm1() const;
  /// Infinity norm.
  double norm_inf() const;

  /// Iteration support.
  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  std::vector<double> data_;
};

/// Elementwise sum; dimensions must match.
Vector operator+(Vector lhs, const Vector& rhs);
/// Elementwise difference; dimensions must match.
Vector operator-(Vector lhs, const Vector& rhs);
/// Scalar product.
Vector operator*(double s, Vector v);
/// Scalar product.
Vector operator*(Vector v, double s);
/// Scalar division.
Vector operator/(Vector v, double s);
/// Negation.
Vector operator-(Vector v);
/// Inner product; dimensions must match.
double dot(const Vector& a, const Vector& b);
/// Concatenate two vectors (used to build stacked LP variables and the DQN
/// state {x, w-history}).
Vector concat(const Vector& a, const Vector& b);
/// Approximate equality within absolute tolerance `tol` in every coordinate.
bool approx_equal(const Vector& a, const Vector& b, double tol);

/// max(0.0, |p[0]|, ..., |p[n-1]|) with NaN entries ignored: the value of
/// the serial `s = std::max(s, std::fabs(p[i]))` scan from s = 0.0, run in
/// four interleaved lanes (Vector::norm_inf, Matrix::norm_inf_elem).
double max_abs(const double* p, std::size_t n);

/// Stream a vector as "[x0, x1, ...]".
std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace oic::linalg
