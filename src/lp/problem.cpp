#include "lp/problem.hpp"

#include "common/error.hpp"

namespace oic::lp {

Problem::Problem(std::size_t num_vars)
    : c_(num_vars), lo_(num_vars, -kInf), hi_(num_vars, kInf) {}

std::size_t Problem::add_variable(double lo, double hi) {
  OIC_REQUIRE(lo <= hi, "Problem::add_variable: empty bound interval");
  lo_.push_back(lo);
  hi_.push_back(hi);
  const std::size_t n = num_vars();
  linalg::Vector c(n);
  for (std::size_t j = 0; j + 1 < n; ++j) c[j] = c_[j];
  c_ = c;
  // Widen every row by one zero coefficient.
  std::vector<double> widened(num_constraints() * n, 0.0);
  for (std::size_t i = 0; i < num_constraints(); ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) widened[i * n + j] = coeffs_[i * (n - 1) + j];
  }
  coeffs_.swap(widened);
  return n - 1;
}

void Problem::set_bounds(std::size_t j, double lo, double hi) {
  OIC_REQUIRE(j < num_vars(), "Problem::set_bounds: variable out of range");
  OIC_REQUIRE(lo <= hi, "Problem::set_bounds: empty bound interval");
  lo_[j] = lo;
  hi_[j] = hi;
}

double Problem::lower(std::size_t j) const {
  OIC_REQUIRE(j < num_vars(), "Problem::lower: variable out of range");
  return lo_[j];
}

double Problem::upper(std::size_t j) const {
  OIC_REQUIRE(j < num_vars(), "Problem::upper: variable out of range");
  return hi_[j];
}

void Problem::set_objective_coeff(std::size_t j, double cj) {
  OIC_REQUIRE(j < num_vars(), "Problem::set_objective_coeff: variable out of range");
  c_[j] = cj;
}

void Problem::set_objective(const linalg::Vector& c) {
  OIC_REQUIRE(c.size() == num_vars(), "Problem::set_objective: dimension mismatch");
  c_ = c;
}

void Problem::add_constraint(const linalg::Vector& coeffs, Relation rel, double rhs) {
  OIC_REQUIRE(coeffs.size() == num_vars(),
              "Problem::add_constraint: coefficient dimension mismatch");
  add_constraint(coeffs.data().data(), coeffs.size(), rel, rhs);
}

void Problem::add_constraint(const double* coeffs, std::size_t n, Relation rel,
                             double rhs) {
  OIC_REQUIRE((coeffs != nullptr || n == 0) && n == num_vars(),
              "Problem::add_constraint: coefficient dimension mismatch");
  coeffs_.insert(coeffs_.end(), coeffs, coeffs + n);
  rel_.push_back(rel);
  rhs_.push_back(rhs);
}

Constraint Problem::constraint(std::size_t i) const {
  OIC_REQUIRE(i < num_constraints(), "Problem::constraint: row out of range");
  return Constraint{coeffs_.data() + i * num_vars(), rel_[i], rhs_[i]};
}

}  // namespace oic::lp
