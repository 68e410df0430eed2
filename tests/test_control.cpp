// Tests for oic::control basics: AffineLTI, controllers, LQR synthesis.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/lu.hpp"
#include "control/controller.hpp"
#include "control/lqr.hpp"
#include "control/lti.hpp"

namespace {

using oic::control::AffineLTI;
using oic::control::dlqr;
using oic::control::LinearFeedback;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

AffineLTI double_integrator() {
  const double dt = 0.1;
  Matrix a{{1, dt}, {0, 1}};
  Matrix b{{0.5 * dt * dt}, {dt}};
  HPolytope x = HPolytope::sym_box(Vector{5, 5});
  HPolytope u = HPolytope::sym_box(Vector{2});
  HPolytope w = HPolytope::sym_box(Vector{0.01, 0.01});
  return AffineLTI::canonical(a, b, x, u, w);
}

TEST(AffineLTI, DimensionsAndAccessors) {
  const AffineLTI sys = double_integrator();
  EXPECT_EQ(sys.nx(), 2u);
  EXPECT_EQ(sys.nu(), 1u);
  EXPECT_EQ(sys.nw(), 2u);
  EXPECT_DOUBLE_EQ(sys.a()(0, 1), 0.1);
}

TEST(AffineLTI, StepMatchesHandComputation) {
  const AffineLTI sys = double_integrator();
  const Vector x{1.0, 2.0};
  const Vector u{0.5};
  const Vector w{0.001, -0.002};
  const Vector next = sys.step(x, u, w);
  EXPECT_NEAR(next[0], 1.0 + 0.1 * 2.0 + 0.005 * 0.5 + 0.001, 1e-12);
  EXPECT_NEAR(next[1], 2.0 + 0.1 * 0.5 - 0.002, 1e-12);
}

TEST(AffineLTI, NominalStepDropsDisturbance) {
  const AffineLTI sys = double_integrator();
  const Vector x{1.0, 2.0};
  const Vector u{0.5};
  EXPECT_TRUE(approx_equal(sys.step_nominal(x, u), sys.step(x, u, Vector{0, 0}), 1e-12));
}

TEST(AffineLTI, NominalStepIntoIsBitIdenticalAndRejectsAliasing) {
  // A 4-state, 3-input plant with a nonzero affine term: step_nominal_into
  // must reproduce step_nominal's (A x + B u) + c bit for bit, signed
  // zeros included, through a reused output vector.
  oic::Rng rng(77);
  const std::size_t nx = 4, nu = 3;
  Matrix a(nx, nx), b(nx, nu);
  Vector c(nx);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < nx; ++j) a(i, j) = rng.uniform(-1.5, 1.5);
    for (std::size_t j = 0; j < nu; ++j) b(i, j) = rng.uniform(-1.5, 1.5);
    c[i] = rng.uniform(-0.5, 0.5);
  }
  c[1] = -0.0;
  const AffineLTI sys(a, b, Matrix::identity(nx), c,
                      HPolytope::sym_box(Vector(nx, 10.0)),
                      HPolytope::sym_box(Vector(nu, 10.0)),
                      HPolytope::sym_box(Vector(nx, 0.1)));
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  Vector out;
  for (int trial = 0; trial < 200; ++trial) {
    Vector x(nx), u(nu);
    for (std::size_t i = 0; i < nx; ++i) x[i] = rng.uniform(-3.0, 3.0);
    for (std::size_t j = 0; j < nu; ++j) u[j] = rng.uniform(-3.0, 3.0);
    if (trial % 7 == 0) {
      x = Vector(nx, -0.0);
      u = Vector(nu, -0.0);
    }
    const Vector ref = sys.step_nominal(x, u);
    sys.step_nominal_into(x, u, out);
    ASSERT_EQ(out.size(), nx);
    for (std::size_t i = 0; i < nx; ++i) {
      ASSERT_EQ(bits(out[i]), bits(ref[i])) << "trial " << trial << " row " << i;
    }
  }

  Vector x(nx, 1.0), u(nu, 1.0);
  EXPECT_THROW(sys.step_nominal_into(x, u, x), oic::PreconditionError);
  EXPECT_THROW(sys.step_nominal_into(x, u, u), oic::PreconditionError);
  EXPECT_THROW(sys.step_nominal_into(Vector(nx - 1), u, out), oic::PreconditionError);
}

TEST(AffineLTI, DimensionMismatchThrows) {
  const AffineLTI sys = double_integrator();
  EXPECT_THROW(sys.step(Vector{1.0}, Vector{0.0}, Vector{0, 0}),
               oic::PreconditionError);
  EXPECT_THROW(sys.step(Vector{1, 2}, Vector{0, 0}, Vector{0, 0}),
               oic::PreconditionError);
}

TEST(AffineLTI, ConstructorValidatesShapes) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{0}, {1}};
  EXPECT_THROW(AffineLTI::canonical(a, b, HPolytope::sym_box(Vector{1}),  // X wrong dim
                                    HPolytope::sym_box(Vector{1}),
                                    HPolytope::sym_box(Vector{1, 1})),
               oic::PreconditionError);
}

TEST(AffineLTI, DisturbanceInStateSpaceIdentity) {
  const AffineLTI sys = double_integrator();
  const HPolytope d = sys.disturbance_in_state_space();
  EXPECT_TRUE(approx_equal(d, HPolytope::sym_box(Vector{0.01, 0.01}), 1e-8));
}

TEST(AffineLTI, DisturbanceInStateSpaceRectangularE) {
  // Scalar disturbance entering only the first state: E = [1; 0].
  Matrix a{{1, 0.1}, {0, 1}};
  Matrix b{{0}, {0.1}};
  Matrix e{{1}, {0}};
  const AffineLTI sys(a, b, e, Vector{0, 0}, HPolytope::sym_box(Vector{5, 5}),
                      HPolytope::sym_box(Vector{2}), HPolytope::sym_box(Vector{0.3}));
  const HPolytope d = sys.disturbance_in_state_space();
  ASSERT_EQ(d.dim(), 2u);
  EXPECT_TRUE(d.contains(Vector{0.3, 0.0}, 1e-7));
  EXPECT_TRUE(d.contains(Vector{-0.3, 0.0}, 1e-7));
  EXPECT_FALSE(d.contains(Vector{0.0, 0.05}));
  EXPECT_FALSE(d.contains(Vector{0.35, 0.0}));
}

TEST(LinearFeedback, ComputesGainTimesState) {
  LinearFeedback fb(Matrix{{-1.0, -2.0}});
  const Vector u = fb.control(Vector{1.0, 0.5});
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], -2.0);
  EXPECT_EQ(fb.invocations(), 1u);
  fb.control(Vector{0, 0});
  EXPECT_EQ(fb.invocations(), 2u);
}

TEST(LinearFeedback, AffineOffset) {
  LinearFeedback fb(Matrix{{-1.0, 0.0}}, Vector{3.0});
  EXPECT_DOUBLE_EQ(fb.control(Vector{1.0, 0.0})[0], 2.0);
}

TEST(Dlqr, StabilizesDoubleIntegrator) {
  const AffineLTI sys = double_integrator();
  const auto lqr = dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  ASSERT_TRUE(lqr.converged);
  const Matrix a_cl = sys.a() + sys.b() * lqr.k;
  EXPECT_LT(oic::control::spectral_radius_estimate(a_cl), 1.0);
}

TEST(Dlqr, GainSatisfiesRiccatiFixedPoint) {
  const AffineLTI sys = double_integrator();
  const Matrix q = Matrix::identity(2);
  const Matrix r{{0.5}};
  const auto lqr = dlqr(sys.a(), sys.b(), q, r);
  ASSERT_TRUE(lqr.converged);
  // P = Q + A'PA - A'PB (R+B'PB)^{-1} B'PA evaluated at the returned P.
  const Matrix at = sys.a().transposed();
  const Matrix bt = sys.b().transposed();
  const Matrix gram = r + bt * lqr.p * sys.b();
  const Matrix rhs =
      q + at * lqr.p * sys.a() -
      at * lqr.p * sys.b() * oic::linalg::LU(gram).solve(bt * lqr.p * sys.a());
  EXPECT_TRUE(approx_equal(lqr.p, rhs, 1e-6));
}

TEST(Dlqr, ClosedLoopBeatsOpenLoopDecay) {
  const AffineLTI sys = double_integrator();
  const auto lqr = dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  // Simulate: the state norm must shrink substantially over 100 steps.
  Vector x{2.0, -1.0};
  LinearFeedback fb(lqr.k);
  for (int t = 0; t < 100; ++t) x = sys.step_nominal(x, fb.control(x));
  EXPECT_LT(x.norm2(), 1e-3);
}

TEST(Dlqr, ShapeValidation) {
  EXPECT_THROW(dlqr(Matrix{{1, 0}}, Matrix{{0}, {1}}, Matrix::identity(2),
                    Matrix{{1.0}}),
               oic::PreconditionError);
}

TEST(SpectralRadius, KnownValues) {
  EXPECT_NEAR(oic::control::spectral_radius_estimate(Matrix{{0.5, 0}, {0, 0.25}}), 0.5,
              1e-6);
  EXPECT_NEAR(oic::control::spectral_radius_estimate(Matrix{{2.0}}), 2.0, 1e-6);
  EXPECT_NEAR(oic::control::spectral_radius_estimate(Matrix::zero(2, 2)), 0.0, 1e-12);
  // Rotation by 90 degrees has spectral radius 1.
  EXPECT_NEAR(oic::control::spectral_radius_estimate(Matrix{{0, -1}, {1, 0}}), 1.0,
              1e-6);
}

}  // namespace
