#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace oic::linalg {

double& Vector::operator[](std::size_t i) {
  OIC_REQUIRE(i < data_.size(), "Vector: index out of range");
  return data_[i];
}

double Vector::operator[](std::size_t i) const {
  OIC_REQUIRE(i < data_.size(), "Vector: index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  OIC_REQUIRE(size() == rhs.size(), "Vector+=: dimension mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  OIC_REQUIRE(size() == rhs.size(), "Vector-=: dimension mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  OIC_REQUIRE(s != 0.0, "Vector/=: division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

double Vector::norm2() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Vector::norm1() const {
  double s = 0.0;
  for (double x : data_) s += std::fabs(x);
  return s;
}

double Vector::norm_inf() const { return max_abs(data_.data(), data_.size()); }

double max_abs(const double* p, std::size_t n) {
  // Four running maxima instead of one serial chain (the gradient-clip
  // check scans ~4.7k entries per DQN update).  Exact in any order:
  // std::max(s, a) keeps s when a is NaN, so NaNs drop out; over the rest
  // the max is one of its inputs, and fabs maps both zeros to +0.0, so
  // equal values have equal bits.  No entries gives 0.0.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = std::max(s0, std::fabs(p[i]));
    s1 = std::max(s1, std::fabs(p[i + 1]));
    s2 = std::max(s2, std::fabs(p[i + 2]));
    s3 = std::max(s3, std::fabs(p[i + 3]));
  }
  for (; i < n; ++i) s0 = std::max(s0, std::fabs(p[i]));
  return std::max(std::max(s0, s1), std::max(s2, s3));
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(double s, Vector v) {
  v *= s;
  return v;
}

Vector operator*(Vector v, double s) {
  v *= s;
  return v;
}

Vector operator/(Vector v, double s) {
  v /= s;
  return v;
}

Vector operator-(Vector v) {
  v *= -1.0;
  return v;
}

double dot(const Vector& a, const Vector& b) {
  OIC_REQUIRE(a.size() == b.size(), "dot: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vector concat(const Vector& a, const Vector& b) {
  Vector out(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[a.size() + i] = b[i];
  return out;
}

bool approx_equal(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  return os << "]";
}

}  // namespace oic::linalg
