#include "control/lti.hpp"

#include "common/error.hpp"
#include "linalg/lu.hpp"
#include "poly/ops.hpp"

namespace oic::control {

using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

AffineLTI::AffineLTI(Matrix a, Matrix b, Matrix e, Vector c, HPolytope x_set,
                     HPolytope u_set, HPolytope w_set)
    : a_(std::move(a)),
      b_(std::move(b)),
      e_(std::move(e)),
      c_(std::move(c)),
      x_set_(std::move(x_set)),
      u_set_(std::move(u_set)),
      w_set_(std::move(w_set)) {
  OIC_REQUIRE(a_.rows() == a_.cols(), "AffineLTI: A must be square");
  OIC_REQUIRE(b_.rows() == a_.rows(), "AffineLTI: B row count must match A");
  OIC_REQUIRE(e_.rows() == a_.rows(), "AffineLTI: E row count must match A");
  OIC_REQUIRE(c_.size() == a_.rows(), "AffineLTI: c dimension must match A");
  OIC_REQUIRE(x_set_.dim() == nx(), "AffineLTI: X dimension mismatch");
  OIC_REQUIRE(u_set_.dim() == nu(), "AffineLTI: U dimension mismatch");
  OIC_REQUIRE(w_set_.dim() == nw(), "AffineLTI: W dimension mismatch");
}

AffineLTI AffineLTI::canonical(Matrix a, Matrix b, HPolytope x_set, HPolytope u_set,
                               HPolytope w_set) {
  const std::size_t n = a.rows();
  return AffineLTI(std::move(a), std::move(b), Matrix::identity(n), Vector(n),
                   std::move(x_set), std::move(u_set), std::move(w_set));
}

Vector AffineLTI::step(const Vector& x, const Vector& u, const Vector& w) const {
  OIC_REQUIRE(x.size() == nx(), "AffineLTI::step: state dimension mismatch");
  OIC_REQUIRE(u.size() == nu(), "AffineLTI::step: input dimension mismatch");
  OIC_REQUIRE(w.size() == nw(), "AffineLTI::step: disturbance dimension mismatch");
  return a_ * x + b_ * u + e_ * w + c_;
}

void AffineLTI::step_into(const Vector& x, const Vector& u, const Vector& w,
                          Vector& out) const {
  OIC_REQUIRE(x.size() == nx(), "AffineLTI::step_into: state dimension mismatch");
  OIC_REQUIRE(u.size() == nu(), "AffineLTI::step_into: input dimension mismatch");
  OIC_REQUIRE(w.size() == nw(), "AffineLTI::step_into: disturbance dimension mismatch");
  OIC_REQUIRE(&out != &x && &out != &u && &out != &w,
              "AffineLTI::step_into: out must not alias an input (row i reads "
              "entries the loop has already overwritten)");
  out.data().resize(nx());
  const double* xp = x.data().data();
  const double* up = u.data().data();
  const double* wp = w.data().data();
  // Same per-row grouping as step()'s ((A x + B u) + E w) + c.
  for (std::size_t i = 0; i < nx(); ++i) {
    double ax = 0.0, bu = 0.0, ew = 0.0;
    const double* ar = a_.row_data(i);
    for (std::size_t j = 0; j < nx(); ++j) ax += ar[j] * xp[j];
    const double* br = b_.row_data(i);
    for (std::size_t j = 0; j < nu(); ++j) bu += br[j] * up[j];
    const double* er = e_.row_data(i);
    for (std::size_t j = 0; j < nw(); ++j) ew += er[j] * wp[j];
    out[i] = ((ax + bu) + ew) + c_[i];
  }
}

Vector AffineLTI::step_nominal(const Vector& x, const Vector& u) const {
  OIC_REQUIRE(x.size() == nx(), "AffineLTI::step_nominal: state dimension mismatch");
  OIC_REQUIRE(u.size() == nu(), "AffineLTI::step_nominal: input dimension mismatch");
  return a_ * x + b_ * u + c_;
}

void AffineLTI::step_nominal_into(const Vector& x, const Vector& u, Vector& out) const {
  OIC_REQUIRE(x.size() == nx(), "AffineLTI::step_nominal_into: state dimension mismatch");
  OIC_REQUIRE(u.size() == nu(), "AffineLTI::step_nominal_into: input dimension mismatch");
  OIC_REQUIRE(&out != &x && &out != &u,
              "AffineLTI::step_nominal_into: out must not alias an input (row i "
              "reads entries the loop has already overwritten)");
  out.data().resize(nx());
  const double* xp = x.data().data();
  const double* up = u.data().data();
  // Same per-row grouping as step_nominal()'s (A x + B u) + c.
  for (std::size_t i = 0; i < nx(); ++i) {
    double ax = 0.0, bu = 0.0;
    const double* ar = a_.row_data(i);
    for (std::size_t j = 0; j < nx(); ++j) ax += ar[j] * xp[j];
    const double* br = b_.row_data(i);
    for (std::size_t j = 0; j < nu(); ++j) bu += br[j] * up[j];
    out[i] = (ax + bu) + c_[i];
  }
}

HPolytope AffineLTI::disturbance_in_state_space() const {
  // E W as a polytope in R^nx.  For square invertible E the image is exact;
  // otherwise project the graph (handles rectangular / singular E).
  if (e_.rows() == e_.cols()) {
    const linalg::LU lu(e_);
    if (!lu.singular()) {
      return w_set_.affine_image_invertible(e_, Vector(nx()));
    }
  }
  return poly::affine_image_projection(w_set_, e_, Vector(nx()));
}

}  // namespace oic::control
