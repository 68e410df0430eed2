// Unit tests for oic::linalg - vectors, matrices, LU.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace {

using oic::linalg::Matrix;
using oic::linalg::Vector;

TEST(Vector, ConstructionAndAccess) {
  Vector v{1.0, 2.0, 3.0};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  v[1] = 5.0;
  EXPECT_DOUBLE_EQ(v[1], 5.0);
  EXPECT_THROW(v[3], oic::PreconditionError);
}

TEST(Vector, Arithmetic) {
  const Vector a{1, 2}, b{3, -1};
  EXPECT_TRUE(approx_equal(a + b, Vector{4, 1}, 1e-15));
  EXPECT_TRUE(approx_equal(a - b, Vector{-2, 3}, 1e-15));
  EXPECT_TRUE(approx_equal(2.0 * a, Vector{2, 4}, 1e-15));
  EXPECT_TRUE(approx_equal(a / 2.0, Vector{0.5, 1}, 1e-15));
  EXPECT_TRUE(approx_equal(-a, Vector{-1, -2}, 1e-15));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
}

TEST(Vector, DimensionMismatchThrows) {
  const Vector a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(a + b, oic::PreconditionError);
  EXPECT_THROW(dot(a, b), oic::PreconditionError);
}

TEST(Vector, Norms) {
  const Vector v{3, -4};
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm1(), 7.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// The one-accumulator scan the multi-lane max reductions must reproduce.
double serial_max_abs(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s = std::max(s, std::fabs(x));
  return s;
}

TEST(Vector, NormInfMatchesSerialScanBitwise) {
  // Vector::norm_inf and Matrix::norm_inf_elem run four running maxima.
  // Every length 0..33 (each lane tail), each special value at every
  // position, over random entries and over all -0.0 (so the result must
  // be +0.0, not -0.0, when nothing larger is present).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double specials[] = {nan, -nan, inf, -inf, 0.0, -0.0, sub, -sub, 1e300, -3.0};
  oic::Rng rng(31);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (bool zeros : {false, true}) {
      std::vector<double> base(n);
      for (double& x : base) x = zeros ? -0.0 : rng.uniform(-2.0, 2.0);
      for (std::size_t p = 0; p <= n; ++p) {
        for (double special : specials) {
          std::vector<double> v = base;
          if (p < n) v[p] = special;  // p == n: no special at all
          const double ref = serial_max_abs(v);
          Vector vec(n);
          Matrix mat(n, 1);
          std::copy(v.begin(), v.end(), vec.data().begin());
          std::copy(v.begin(), v.end(), mat.data());
          const std::string where = "n " + std::to_string(n) + " at " + std::to_string(p);
          EXPECT_EQ(bits_of(vec.norm_inf()), bits_of(ref)) << where;
          EXPECT_EQ(bits_of(mat.norm_inf_elem()), bits_of(ref)) << where;
          if (p == n) break;
        }
      }
    }
  }
  EXPECT_EQ(bits_of(Vector().norm_inf()), bits_of(0.0));
  EXPECT_EQ(bits_of(Matrix().norm_inf_elem()), bits_of(0.0));
}

TEST(Vector, Concat) {
  const Vector c = concat(Vector{1, 2}, Vector{3});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_THROW(m(3, 0), oic::PreconditionError);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), oic::PreconditionError);
}

TEST(Matrix, IdentityAndDiag) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  const Matrix d = Matrix::diag(Vector{2, 5});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, Product) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{0, 1}, {1, 0}};
  const Matrix c = a * b;
  EXPECT_TRUE(approx_equal(c, Matrix{{2, 1}, {4, 3}}, 1e-15));
  const Vector y = a * Vector{1, 1};
  EXPECT_TRUE(approx_equal(y, Vector{3, 7}, 1e-15));
}

TEST(Matrix, TransposeAndTransposeMul) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  ASSERT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  // transpose_mul(a, x) == a^T x
  const Vector x{1, -1};
  EXPECT_TRUE(approx_equal(transpose_mul(a, x), t * x, 1e-14));
}

TEST(Matrix, RowColSetters) {
  Matrix m(2, 2);
  m.set_row(0, Vector{1, 2});
  m.set_col(1, Vector{7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
  EXPECT_TRUE(approx_equal(m.row(1), Vector{0, 8}, 1e-15));
}

TEST(Matrix, PowMatchesRepeatedProduct) {
  const Matrix a{{1, 1}, {0, 1}};
  const Matrix a5 = pow(a, 5);
  EXPECT_TRUE(approx_equal(a5, Matrix{{1, 5}, {0, 1}}, 1e-12));
  EXPECT_TRUE(approx_equal(pow(a, 0), Matrix::identity(2), 1e-15));
}

TEST(Matrix, ConcatHelpers) {
  const Matrix a{{1}, {2}};
  const Matrix b{{3}, {4}};
  const Matrix h = oic::linalg::hcat(a, b);
  EXPECT_DOUBLE_EQ(h(1, 1), 4.0);
  const Matrix v = oic::linalg::vcat(a, b);
  ASSERT_EQ(v.rows(), 4u);
  EXPECT_DOUBLE_EQ(v(3, 0), 4.0);
}

TEST(LU, SolveKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const Vector b{3, 5};
  const Vector x = oic::linalg::solve(a, b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-12));
}

TEST(LU, InverseRoundTrip) {
  const Matrix a{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}};
  const Matrix ainv = oic::linalg::inverse(a);
  EXPECT_TRUE(approx_equal(a * ainv, Matrix::identity(3), 1e-10));
  EXPECT_TRUE(approx_equal(ainv * a, Matrix::identity(3), 1e-10));
}

TEST(LU, Determinant) {
  EXPECT_NEAR(oic::linalg::det(Matrix{{2, 0}, {0, 3}}), 6.0, 1e-12);
  EXPECT_NEAR(oic::linalg::det(Matrix{{0, 1}, {1, 0}}), -1.0, 1e-12);
  // det(A) for a known 3x3.
  const Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
  EXPECT_NEAR(oic::linalg::det(a), -3.0, 1e-9);
}

TEST(LU, SingularDetectedAndSolveThrows) {
  const Matrix a{{1, 2}, {2, 4}};
  oic::linalg::LU lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(Vector{1, 1}), oic::NumericalError);
  EXPECT_THROW(oic::linalg::inverse(a), oic::NumericalError);
}

TEST(LU, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0, 1}, {1, 0}};
  const Vector x = oic::linalg::solve(a, Vector{2, 3});
  EXPECT_TRUE(approx_equal(x, Vector{3, 2}, 1e-12));
}

TEST(LU, MatrixRhsSolve) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = oic::linalg::LU(a).solve(b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-12));
}

// Property sweep: LU solve must reproduce random right-hand sides across a
// family of well-conditioned matrices.
class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, RandomSystemsRoundTrip) {
  const int seed = GetParam();
  oic::Rng rng{static_cast<std::uint64_t>(seed)};
  const std::size_t n = static_cast<std::size_t>(2 + seed % 5);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += static_cast<double>(n);  // diagonal dominance => invertible
  }
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5, 5);
  const Vector x = oic::linalg::solve(a, b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuProperty, ::testing::Range(0, 25));

}  // namespace
