#include "poly/hpolytope.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "linalg/lu.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "poly/support_solver.hpp"

namespace oic::poly {

using linalg::Matrix;
using linalg::Vector;

HPolytope::HPolytope(Matrix a, Vector b) : a_(std::move(a)), b_(std::move(b)) {
  OIC_REQUIRE(a_.rows() == b_.size(), "HPolytope: A rows must match b size");
}

HPolytope HPolytope::universe(std::size_t dim) {
  return HPolytope(Matrix(0, dim), Vector(0));
}

HPolytope HPolytope::box(const Vector& lo, const Vector& hi) {
  OIC_REQUIRE(lo.size() == hi.size(), "HPolytope::box: bound dimension mismatch");
  const std::size_t n = lo.size();
  Matrix a(2 * n, n);
  Vector b(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    OIC_REQUIRE(lo[i] <= hi[i], "HPolytope::box: empty interval");
    a(2 * i, i) = 1.0;
    b[2 * i] = hi[i];
    a(2 * i + 1, i) = -1.0;
    b[2 * i + 1] = -lo[i];
  }
  return HPolytope(std::move(a), std::move(b));
}

HPolytope HPolytope::sym_box(const Vector& r) {
  Vector lo = r, hi = r;
  for (std::size_t i = 0; i < r.size(); ++i) {
    OIC_REQUIRE(r[i] >= 0.0, "HPolytope::sym_box: radii must be non-negative");
    lo[i] = -r[i];
  }
  return box(lo, hi);
}

HPolytope HPolytope::l1_ball(std::size_t dim, double r) {
  OIC_REQUIRE(dim >= 1, "HPolytope::l1_ball: dimension must be positive");
  // The halfspace description of a cross-polytope needs one row per sign
  // pattern -- 2^dim rows.  Beyond ~16 dimensions that is no longer a
  // usable representation (65k+ rows), only a memory bomb; refuse early.
  OIC_REQUIRE(dim <= kL1BallMaxDim,
              "HPolytope::l1_ball: dimension too large (2^dim facet rows; "
              "use sym_box or a custom template for high dimensions)");
  OIC_REQUIRE(r >= 0.0, "HPolytope::l1_ball: radius must be non-negative");
  // All sign patterns of sum(+-x_i) <= r.
  const std::size_t rows = std::size_t{1} << dim;
  Matrix a(rows, dim);
  Vector b(rows);
  for (std::size_t mask = 0; mask < rows; ++mask) {
    for (std::size_t i = 0; i < dim; ++i)
      a(mask, i) = (mask >> i) & 1u ? 1.0 : -1.0;
    b[mask] = r;
  }
  return HPolytope(std::move(a), std::move(b));
}

bool HPolytope::contains(const Vector& x, double tol) const {
  OIC_REQUIRE(x.size() == dim(), "HPolytope::contains: dimension mismatch");
  return violation(x) <= tol;
}

double HPolytope::violation(const Vector& x) const {
  OIC_REQUIRE(x.size() == dim(), "HPolytope::violation: dimension mismatch");
  const std::size_t m = num_constraints();
  if (m == 0) return 0.0;
  // Raw-row walk: the same j-ascending sum per face as the accessor form,
  // without two out-of-line bounds-checked calls per coefficient (this
  // runs several times per monitored period).
  const std::size_t n = dim();
  const double* xp = x.data().data();
  const double* bp = b_.data().data();
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a_.row_data(i);
    double s = -bp[i];
    for (std::size_t j = 0; j < n; ++j) s += ai[j] * xp[j];
    worst = std::max(worst, s);
  }
  return worst;
}

bool HPolytope::is_empty() const {
  if (num_constraints() == 0) return false;
  lp::Problem p(dim());
  for (std::size_t i = 0; i < num_constraints(); ++i)
    p.add_constraint(a_.row_data(i), dim(), lp::Relation::kLessEq, b_[i]);
  const lp::Result r = lp::solve(p);
  return r.status == lp::Status::kInfeasible;
}

bool HPolytope::is_bounded() const {
  // Axis directions +-e_j, in the same order the per-direction loop asked
  // them (+e_j before -e_j); one batched sweep over the shared tableau.
  linalg::Matrix dirs(2 * dim(), dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    dirs(2 * j, j) = 1.0;
    dirs(2 * j + 1, j) = -1.0;
  }
  SupportSolver solver(*this);
  for (const Support& s : solver.support_batch(dirs)) {
    if (!s.bounded) return false;
  }
  return true;
}

Support HPolytope::support(const Vector& d) const {
  OIC_REQUIRE(d.size() == dim(), "HPolytope::support: dimension mismatch");
  lp::Problem p(dim());
  p.set_objective(-d);  // maximize d.x == minimize -d.x
  for (std::size_t i = 0; i < num_constraints(); ++i)
    p.add_constraint(a_.row_data(i), dim(), lp::Relation::kLessEq, b_[i]);
  const lp::Result r = lp::solve(p);
  Support s;
  switch (r.status) {
    case lp::Status::kOptimal:
      s.bounded = true;
      s.feasible = true;
      s.value = -r.objective;
      s.maximizer = r.x;
      break;
    case lp::Status::kUnbounded:
      s.bounded = false;
      s.feasible = true;
      break;
    case lp::Status::kInfeasible:
      s.bounded = true;
      s.feasible = false;
      break;
    case lp::Status::kIterLimit:
      throw NumericalError("HPolytope::support: simplex iteration limit");
  }
  return s;
}

ChebyshevBall HPolytope::chebyshev() const {
  // max r  s.t.  a_i.x + ||a_i||_2 r <= b_i,  r >= 0.
  lp::Problem p(dim() + 1);
  p.set_objective_coeff(dim(), -1.0);  // maximize r
  p.set_bounds(dim(), 0.0, lp::Problem::kInf);
  for (std::size_t i = 0; i < num_constraints(); ++i) {
    Vector row(dim() + 1);
    const Vector ai = a_.row(i);
    for (std::size_t j = 0; j < dim(); ++j) row[j] = ai[j];
    row[dim()] = ai.norm2();
    p.add_constraint(row, lp::Relation::kLessEq, b_[i]);
  }
  const lp::Result r = lp::solve(p);
  ChebyshevBall ball;
  if (r.status == lp::Status::kInfeasible) return ball;
  if (r.status == lp::Status::kUnbounded) {
    // Unbounded radius: the polyhedron contains arbitrarily large balls.
    // Report feasibility with an infinite radius at an arbitrary feasible
    // point found by a bounded re-solve.
    lp::Problem p2(dim() + 1);
    for (std::size_t i = 0; i < num_constraints(); ++i)
      p2.add_constraint(p.constraint(i).coeffs, dim() + 1, lp::Relation::kLessEq,
                        p.constraint(i).rhs);
    p2.set_bounds(dim(), 0.0, 1e9);
    p2.set_objective_coeff(dim(), -1.0);
    const lp::Result r2 = lp::solve(p2);
    OIC_CHECK(r2.status == lp::Status::kOptimal,
              "HPolytope::chebyshev: bounded re-solve failed");
    ball.feasible = true;
    ball.radius = std::numeric_limits<double>::infinity();
    ball.center = Vector(dim());
    for (std::size_t j = 0; j < dim(); ++j) ball.center[j] = r2.x[j];
    return ball;
  }
  OIC_CHECK(r.status == lp::Status::kOptimal,
            "HPolytope::chebyshev: simplex iteration limit");
  ball.feasible = true;
  ball.radius = r.x[dim()];
  ball.center = Vector(dim());
  for (std::size_t j = 0; j < dim(); ++j) ball.center[j] = r.x[j];
  return ball;
}

HPolytope HPolytope::intersect(const HPolytope& other) const {
  OIC_REQUIRE(dim() == other.dim(), "HPolytope::intersect: dimension mismatch");
  return HPolytope(linalg::vcat(a_, other.a_), linalg::concat(b_, other.b_));
}

HPolytope HPolytope::affine_preimage(const Matrix& m, const Vector& t) const {
  OIC_REQUIRE(m.rows() == dim(), "HPolytope::affine_preimage: map range mismatch");
  OIC_REQUIRE(t.size() == dim(), "HPolytope::affine_preimage: offset mismatch");
  return HPolytope(a_ * m, b_ - a_ * t);
}

HPolytope HPolytope::affine_image_invertible(const Matrix& m, const Vector& t) const {
  OIC_REQUIRE(m.rows() == m.cols() && m.rows() == dim(),
              "HPolytope::affine_image_invertible: map must be square of matching size");
  const Matrix minv = linalg::inverse(m);  // throws NumericalError if singular
  // y = Mx + t  =>  x = M^{-1}(y - t);  A x <= b  =>  (A M^{-1}) y <= b + A M^{-1} t.
  return HPolytope(a_ * minv, b_ + (a_ * minv) * t);
}

HPolytope HPolytope::pontryagin_diff(const HPolytope& q) const {
  OIC_REQUIRE(dim() == q.dim(), "HPolytope::pontryagin_diff: dimension mismatch");
  // One LP per facet, all over Q's constraint system: the facet-normal
  // matrix goes straight into the batched entry (build Q's tableau once,
  // swap objectives, no per-row Vector copies).
  SupportSolver q_support(q);
  const std::vector<Support> sup = q_support.support_batch(a_);
  Vector b2 = b_;
  for (std::size_t i = 0; i < num_constraints(); ++i) {
    const Support& s = sup[i];
    OIC_REQUIRE(s.feasible, "pontryagin_diff: subtrahend is empty");
    OIC_REQUIRE(s.bounded, "pontryagin_diff: subtrahend unbounded along a facet normal");
    b2[i] -= s.value;
  }
  return HPolytope(a_, b2);
}

HPolytope HPolytope::translate(const Vector& t) const {
  OIC_REQUIRE(t.size() == dim(), "HPolytope::translate: dimension mismatch");
  return HPolytope(a_, b_ + a_ * t);
}

HPolytope HPolytope::scale(double s) const {
  OIC_REQUIRE(s > 0.0, "HPolytope::scale: factor must be positive");
  Vector b2 = b_;
  b2 *= s;
  return HPolytope(a_, b2);
}

HPolytope HPolytope::remove_redundancy(double tol) const {
  const std::size_t m = num_constraints();
  if (m == 0) return *this;

  std::vector<bool> keep(m, true);
  // Exact-duplicate pass first (cheap), then the LP pass.
  for (std::size_t i = 0; i < m; ++i) {
    if (!keep[i]) continue;
    for (std::size_t j = i + 1; j < m; ++j) {
      if (!keep[j]) continue;
      bool same = std::fabs(b_[i] - b_[j]) <= 1e-12;
      for (std::size_t c = 0; same && c < dim(); ++c)
        same = std::fabs(a_(i, c) - a_(j, c)) <= 1e-12;
      if (same) keep[j] = false;
    }
  }

  // LP pass: row i is redundant iff maximizing a_i.x subject to all *other*
  // kept rows cannot exceed b_i.  Rows are appended by pointer into the
  // LP's one row block.
  for (std::size_t i = 0; i < m; ++i) {
    if (!keep[i]) continue;
    lp::Problem p(dim());
    p.set_objective(-a_.row(i));
    bool any = false;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i || !keep[j]) continue;
      p.add_constraint(a_.row_data(j), dim(), lp::Relation::kLessEq, b_[j]);
      any = true;
    }
    if (!any) continue;  // last remaining row is never redundant
    // Relaxation trick: also cap by b_i + 1 to keep the LP bounded when the
    // row is the only bound in its direction.
    p.add_constraint(a_.row_data(i), dim(), lp::Relation::kLessEq, b_[i] + 1.0);
    const lp::Result r = lp::solve(p);
    if (r.status == lp::Status::kInfeasible) {
      // The remaining rows are already empty; any row can be dropped safely,
      // but keep it to preserve the (empty) description conservatively.
      continue;
    }
    OIC_CHECK(r.status == lp::Status::kOptimal,
              "remove_redundancy: unexpected LP status");
    if (-r.objective <= b_[i] + tol) keep[i] = false;
  }

  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  Matrix a2(kept, dim());
  Vector b2(kept);
  std::size_t r2 = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (!keep[i]) continue;
    a2.set_row(r2, a_.row(i));
    b2[r2] = b_[i];
    ++r2;
  }
  return HPolytope(std::move(a2), std::move(b2));
}

std::optional<std::pair<Vector, Vector>> HPolytope::bounding_box() const {
  // Axis sweep +-e_j per coordinate, batched over the shared tableau in
  // the same order the per-direction loop issued (+e_j before -e_j).
  linalg::Matrix dirs(2 * dim(), dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    dirs(2 * j, j) = 1.0;
    dirs(2 * j + 1, j) = -1.0;
  }
  SupportSolver solver(*this);
  const std::vector<Support> sup = solver.support_batch(dirs);
  Vector lo(dim()), hi(dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    const Support& up = sup[2 * j];
    const Support& dn = sup[2 * j + 1];
    if (!up.feasible || !up.bounded) return std::nullopt;
    if (!dn.feasible || !dn.bounded) return std::nullopt;
    hi[j] = up.value;
    lo[j] = -dn.value;
  }
  return std::make_pair(lo, hi);
}

std::vector<Vector> HPolytope::vertices_2d(double tol) const {
  OIC_REQUIRE(dim() == 2, "vertices_2d: only implemented for planar polytopes");
  const HPolytope p = remove_redundancy();
  const std::size_t m = p.num_constraints();
  std::vector<Vector> verts;
  // Intersect every facet pair; keep feasible intersection points.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double a11 = p.a()(i, 0), a12 = p.a()(i, 1);
      const double a21 = p.a()(j, 0), a22 = p.a()(j, 1);
      const double det = a11 * a22 - a12 * a21;
      if (std::fabs(det) < 1e-12) continue;
      Vector v(2);
      v[0] = (p.b()[i] * a22 - a12 * p.b()[j]) / det;
      v[1] = (a11 * p.b()[j] - p.b()[i] * a21) / det;
      if (p.contains(v, tol)) verts.push_back(v);
    }
  }
  if (verts.empty()) return verts;
  // Deduplicate and order counter-clockwise around the centroid.
  Vector c(2);
  for (const auto& v : verts) c += v;
  c /= static_cast<double>(verts.size());
  std::sort(verts.begin(), verts.end(), [&](const Vector& u, const Vector& v) {
    return std::atan2(u[1] - c[1], u[0] - c[0]) < std::atan2(v[1] - c[1], v[0] - c[0]);
  });
  std::vector<Vector> out;
  for (const auto& v : verts) {
    if (out.empty() || (v - out.back()).norm_inf() > 1e-8) out.push_back(v);
  }
  if (out.size() > 1 && (out.front() - out.back()).norm_inf() <= 1e-8) out.pop_back();
  return out;
}

HPolytope HPolytope::from_vertices_2d(const std::vector<Vector>& pts) {
  OIC_REQUIRE(!pts.empty(), "from_vertices_2d: need at least one point");
  for (const auto& p : pts)
    OIC_REQUIRE(p.size() == 2, "from_vertices_2d: points must be planar");

  // Andrew's monotone chain convex hull.
  std::vector<Vector> s = pts;
  std::sort(s.begin(), s.end(), [](const Vector& a, const Vector& b) {
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
  });
  s.erase(std::unique(s.begin(), s.end(),
                      [](const Vector& a, const Vector& b) {
                        return (a - b).norm_inf() < 1e-12;
                      }),
          s.end());
  auto cross = [](const Vector& o, const Vector& a, const Vector& b) {
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]);
  };
  std::vector<Vector> hull;
  if (s.size() <= 2) {
    hull = s;
  } else {
    std::vector<Vector> lower, upper;
    for (const auto& p : s) {
      while (lower.size() >= 2 && cross(lower[lower.size() - 2], lower.back(), p) <= 0)
        lower.pop_back();
      lower.push_back(p);
    }
    for (auto it = s.rbegin(); it != s.rend(); ++it) {
      while (upper.size() >= 2 && cross(upper[upper.size() - 2], upper.back(), *it) <= 0)
        upper.pop_back();
      upper.push_back(*it);
    }
    lower.pop_back();
    upper.pop_back();
    hull = lower;
    hull.insert(hull.end(), upper.begin(), upper.end());
  }

  if (hull.size() == 1) {
    // A single point {v}: x == v as two inequalities per coordinate.
    return box(hull[0], hull[0]);
  }
  if (hull.size() == 2) {
    // A segment: equality along the normal, bounds along the tangent.
    const Vector& u = hull[0];
    const Vector& v = hull[1];
    Vector tdir = v - u;
    const double len = tdir.norm2();
    OIC_CHECK(len > 0.0, "from_vertices_2d: degenerate segment");
    tdir /= len;
    Vector ndir{-tdir[1], tdir[0]};
    Matrix a(4, 2);
    Vector b(4);
    a.set_row(0, ndir);
    b[0] = linalg::dot(ndir, u);
    a.set_row(1, -ndir);
    b[1] = -linalg::dot(ndir, u);
    a.set_row(2, tdir);
    b[2] = std::max(linalg::dot(tdir, u), linalg::dot(tdir, v));
    a.set_row(3, -tdir);
    b[3] = -std::min(linalg::dot(tdir, u), linalg::dot(tdir, v));
    return HPolytope(std::move(a), std::move(b));
  }

  // Hull edges (ccw) -> outward halfspaces.
  Matrix a(hull.size(), 2);
  Vector b(hull.size());
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const Vector& u = hull[i];
    const Vector& v = hull[(i + 1) % hull.size()];
    // Edge direction (v-u); outward normal for a ccw polygon is (dy, -dx).
    Vector nrm{v[1] - u[1], -(v[0] - u[0])};
    const double len = nrm.norm2();
    OIC_CHECK(len > 0.0, "from_vertices_2d: zero-length hull edge");
    nrm /= len;
    a.set_row(i, nrm);
    b[i] = linalg::dot(nrm, u);
  }
  return HPolytope(std::move(a), std::move(b));
}

bool contains_polytope(const HPolytope& outer, const HPolytope& inner, double tol) {
  OIC_REQUIRE(outer.dim() == inner.dim(), "contains_polytope: dimension mismatch");
  if (inner.is_empty()) return true;
  // The outer face normals are exactly the rows of outer.a(): hand the
  // matrix to the batched entry without per-row copies.
  SupportSolver inner_support(inner);
  const std::vector<Support> sup = inner_support.support_batch(outer.a());
  for (std::size_t i = 0; i < sup.size(); ++i) {
    if (!sup[i].bounded) return false;
    if (sup[i].value > outer.offset(i) + tol) return false;
  }
  return true;
}

bool approx_equal(const HPolytope& p, const HPolytope& q, double tol) {
  return contains_polytope(p, q, tol) && contains_polytope(q, p, tol);
}

std::ostream& operator<<(std::ostream& os, const HPolytope& p) {
  return os << "HPolytope{" << p.num_constraints() << " constraints in R^" << p.dim()
            << "}";
}

}  // namespace oic::poly
