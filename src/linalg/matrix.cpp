#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace oic::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    OIC_REQUIRE(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zero(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

Matrix Matrix::diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) m.set_row(r, rows[r]);
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  OIC_REQUIRE(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  OIC_REQUIRE(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

Vector Matrix::row(std::size_t r) const {
  OIC_REQUIRE(r < rows_, "Matrix::row: index out of range");
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = data_[r * cols_ + c];
  return v;
}

Vector Matrix::col(std::size_t c) const {
  OIC_REQUIRE(c < cols_, "Matrix::col: index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = data_[r * cols_ + c];
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  OIC_REQUIRE(r < rows_, "Matrix::set_row: index out of range");
  OIC_REQUIRE(v.size() == cols_, "Matrix::set_row: dimension mismatch");
  for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = v[c];
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  OIC_REQUIRE(c < cols_, "Matrix::set_col: index out of range");
  OIC_REQUIRE(v.size() == rows_, "Matrix::set_col: dimension mismatch");
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = v[r];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  OIC_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  OIC_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  return t;
}

double Matrix::norm_inf_elem() const { return max_abs(data_.data(), data_.size()); }

double Matrix::norm_fro() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(double s, Matrix m) {
  m *= s;
  return m;
}

Matrix operator*(Matrix m, double s) {
  m *= s;
  return m;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  OIC_REQUIRE(a.cols() == b.rows(), "Matrix*: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  OIC_REQUIRE(a.cols() == x.size(), "Matrix*Vector: dimension mismatch");
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

Matrix operator-(Matrix m) {
  m *= -1.0;
  return m;
}

Vector transpose_mul(const Matrix& a, const Vector& x) {
  OIC_REQUIRE(a.rows() == x.size(), "transpose_mul: dimension mismatch");
  Vector y(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
  }
  return y;
}

Matrix pow(const Matrix& a, unsigned k) {
  OIC_REQUIRE(a.rows() == a.cols(), "pow: matrix must be square");
  Matrix result = Matrix::identity(a.rows());
  Matrix base = a;
  while (k > 0) {
    if (k & 1u) result = result * base;
    base = base * base;
    k >>= 1u;
  }
  return result;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (std::fabs(a(r, c) - b(r, c)) > tol) return false;
  return true;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  OIC_REQUIRE(a.rows() == b.rows(), "hcat: row count mismatch");
  Matrix m(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) m(r, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) m(r, a.cols() + c) = b(r, c);
  }
  return m;
}

Matrix vcat(const Matrix& a, const Matrix& b) {
  OIC_REQUIRE(a.cols() == b.cols(), "vcat: column count mismatch");
  Matrix m(a.rows() + b.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) m(r, c) = a(r, c);
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) m(a.rows() + r, c) = b(r, c);
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) os << ", ";
      os << m(r, c);
    }
    os << (r + 1 == m.rows() ? "]]" : "]\n");
  }
  return os;
}

}  // namespace oic::linalg
