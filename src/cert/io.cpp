#include "cert/io.hpp"

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <ostream>

#include "common/error.hpp"

namespace oic::cert {

using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

namespace {

// The cap rejects corrupted headers before they turn into huge
// allocations (worst accepted shape is 4096 x 4096 doubles, ~134 MB);
// real certificate sets are tens of rows in <= ~20 dims.
constexpr std::size_t kMaxCount = 4096;

}  // namespace

void write_vector(std::ostream& os, const Vector& v) {
  os << "vector " << v.size();
  os << std::setprecision(17);
  for (std::size_t i = 0; i < v.size(); ++i) os << ' ' << v[i];
  os << '\n';
  if (!os) throw NumericalError("cert::io: vector write failed");
}

Vector read_vector(textio::Reader& in) {
  in.expect("vector");
  Vector v(in.count("vector size", kMaxCount));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = in.finite("vector value");
  return v;
}

void write_matrix(std::ostream& os, const Matrix& m) {
  os << "matrix " << m.rows() << ' ' << m.cols();
  os << std::setprecision(17);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << '\n';
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m(i, j);
    }
  }
  os << '\n';
  if (!os) throw NumericalError("cert::io: matrix write failed");
}

Matrix read_matrix(textio::Reader& in) {
  in.expect("matrix");
  const std::size_t rows = in.count("matrix row count", kMaxCount);
  const std::size_t cols = in.count("matrix col count", kMaxCount);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = in.finite("matrix value");
  }
  return m;
}

void write_polytope(std::ostream& os, const HPolytope& p) {
  os << "polytope " << p.num_constraints() << ' ' << p.dim();
  os << std::setprecision(17);
  for (std::size_t i = 0; i < p.num_constraints(); ++i) {
    os << '\n';
    for (std::size_t j = 0; j < p.dim(); ++j) os << p.a()(i, j) << ' ';
    os << p.b()[i];
  }
  os << '\n';
  if (!os) throw NumericalError("cert::io: polytope write failed");
}

HPolytope read_polytope(textio::Reader& in) {
  in.expect("polytope");
  const std::size_t m = in.count("polytope row count", kMaxCount);
  const std::size_t n = in.count("polytope dim", kMaxCount);
  Matrix a(m, n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = in.finite("polytope coefficient");
    b[i] = in.finite("polytope offset");
  }
  return HPolytope(std::move(a), std::move(b));
}

namespace {

// Exact bit-pattern comparison: stricter than operator== (distinguishes
// -0.0 from +0.0) and total (NaN payloads compare equal to themselves),
// which is what "bit-identical to fresh synthesis" actually promises.
bool double_bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

}  // namespace

bool bit_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!double_bits_equal(a[i], b[i])) return false;
  }
  return true;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!double_bits_equal(a(i, j), b(i, j))) return false;
    }
  }
  return true;
}

bool bit_equal(const HPolytope& a, const HPolytope& b) {
  return bit_equal(a.a(), b.a()) && bit_equal(a.b(), b.b());
}

}  // namespace oic::cert
