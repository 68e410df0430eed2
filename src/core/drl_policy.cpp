#include "core/drl_policy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace oic::core {

using linalg::Vector;

void build_drl_state_row(double* row, const Vector& x, const WHistory& w_history,
                         std::size_t r, std::size_t w_dim) {
  OIC_REQUIRE(r >= 1, "build_drl_state: memory length must be positive");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) row[i] = x[i];
  // Most recent r observations, oldest first, front-padded with zeros.
  const std::size_t have = std::min(r, w_history.size());
  const std::size_t pad = r - have;
  for (std::size_t i = 0; i < pad * w_dim; ++i) row[n + i] = 0.0;
  for (std::size_t k = 0; k < have; ++k) {
    const Vector& w = w_history[w_history.size() - have + k];
    OIC_REQUIRE(w.size() == w_dim, "build_drl_state: disturbance dimension mismatch");
    for (std::size_t i = 0; i < w_dim; ++i) {
      row[n + (pad + k) * w_dim + i] = w[i];
    }
  }
}

void build_drl_state_into(Vector& out, const Vector& x, const WHistory& w_history,
                          std::size_t r, std::size_t w_dim) {
  out.data().resize(drl_state_dim(x.size(), w_dim, r));
  build_drl_state_row(out.data().data(), x, w_history, r, w_dim);
}

Vector build_drl_state(const Vector& x, const WHistory& w_history, std::size_t r,
                       std::size_t w_dim) {
  Vector s;
  build_drl_state_into(s, x, w_history, r, w_dim);
  return s;
}

std::size_t drl_state_dim(std::size_t nx, std::size_t w_dim, std::size_t r) {
  return nx + r * w_dim;
}

Vector drl_state_scale(const control::AffineLTI& sys, std::size_t r) {
  const std::size_t nx = sys.nx();
  Vector scale(drl_state_dim(nx, nx, r), 1.0);

  auto half_widths = [](const poly::HPolytope& p) {
    Vector hw(p.dim(), 0.0);
    const auto bb = p.bounding_box();
    if (!bb.has_value()) return hw;
    for (std::size_t i = 0; i < p.dim(); ++i) {
      hw[i] = 0.5 * (bb->second[i] - bb->first[i]);
    }
    return hw;
  };
  const Vector hx = half_widths(sys.x_set());
  const Vector hw = half_widths(sys.disturbance_in_state_space());
  for (std::size_t i = 0; i < nx; ++i) {
    if (hx[i] > 1e-9) scale[i] = 1.0 / hx[i];
  }
  for (std::size_t k = 0; k < r; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      if (hw[i] > 1e-9) scale[nx + k * nx + i] = 1.0 / hw[i];
    }
  }
  return scale;
}

namespace {

/// row[i] *= scale[i] over the scale's length (no-op when empty).
void scale_row(double* row, const Vector& scale) {
  for (std::size_t i = 0; i < scale.size(); ++i) row[i] *= scale[i];
}

/// The greedy action: argmax over the Q-values, first index on ties.
int greedy(const double* q, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (q[i] > q[best]) best = i;
  }
  return static_cast<int>(best);
}

}  // namespace

void apply_state_scale_inplace(Vector& state, const Vector& scale) {
  if (scale.empty()) return;
  OIC_REQUIRE(scale.size() == state.size(),
              "apply_state_scale: scale dimension mismatch");
  scale_row(state.data().data(), scale);
}

Vector apply_state_scale(Vector state, const Vector& scale) {
  apply_state_scale_inplace(state, scale);
  return state;
}

double skipping_reward(const SafeSets& sets, const Vector& x1, int z, const Vector& x2,
                       double kappa_energy, double w1, double w2) {
  const double r1 = sets.x_prime.contains(x2) ? 0.0 : 1.0;
  const bool free_skip = (z == 0) && sets.x_prime.contains(x1);
  const double r2 = free_skip ? 0.0 : kappa_energy;
  return -w1 * r1 - w2 * r2;
}

DrlPolicy::DrlPolicy(std::shared_ptr<const rl::DoubleDqn> agent, std::size_t r,
                     std::size_t w_dim, Vector state_scale)
    : DrlPolicy(agent != nullptr
                    // Aliasing pointer: shares the agent's lifetime, points
                    // at its online network.
                    ? std::shared_ptr<const rl::Mlp>(agent, &agent->online())
                    : nullptr,
                r, w_dim, std::move(state_scale), "drl-dqn") {}

DrlPolicy::DrlPolicy(std::shared_ptr<const rl::Mlp> net, std::size_t r,
                     std::size_t w_dim, Vector state_scale, std::string label)
    : net_(std::move(net)), r_(r), w_dim_(w_dim),
      state_scale_(std::move(state_scale)), label_(std::move(label)) {
  OIC_REQUIRE(net_ != nullptr, "DrlPolicy: agent must not be null");
  OIC_REQUIRE(r_ >= 1, "DrlPolicy: memory length must be positive");
  OIC_REQUIRE(!label_.empty(), "DrlPolicy: empty label");
}

std::unique_ptr<DrlPolicy> DrlPolicy::from_network(std::shared_ptr<const rl::Mlp> net,
                                                   std::size_t r, std::size_t w_dim,
                                                   Vector state_scale,
                                                   std::string label) {
  return std::unique_ptr<DrlPolicy>(new DrlPolicy(
      std::move(net), r, w_dim, std::move(state_scale), std::move(label)));
}

int DrlPolicy::decide(const Vector& x, const WHistory& w_history) {
  build_drl_state_into(state_scratch_, x, w_history, r_, w_dim_);
  apply_state_scale_inplace(state_scratch_, state_scale_);
  // Same computation as DoubleDqn::greedy_action on the online network.
  const Vector& q = net_->forward_into(state_scratch_, mlp_ws_);
  return greedy(q.data().data(), q.size());
}

void DrlPolicy::decide_batch(const Vector* const* x, const WHistory* const* w,
                             std::size_t m, int* z) {
  const std::size_t dim = net_->sizes().front();
  if (state_batch_.rows() < m || state_batch_.cols() != dim) {
    state_batch_ = linalg::Matrix(m + m / 2 + 1, dim);
  }
  OIC_REQUIRE(state_scale_.empty() || state_scale_.size() == dim,
              "apply_state_scale: scale dimension mismatch");
  for (std::size_t s = 0; s < m; ++s) {
    OIC_REQUIRE(drl_state_dim(x[s]->size(), w_dim_, r_) == dim,
                "DrlPolicy: state dimension does not fit the network");
    double* row = state_batch_.row_data(s);
    build_drl_state_row(row, *x[s], *w[s], r_, w_dim_);
    scale_row(row, state_scale_);
  }
  const linalg::Matrix& q = net_->forward_batch_into(state_batch_, m, batch_ws_);
  for (std::size_t s = 0; s < m; ++s) z[s] = greedy(q.row_data(s), q.cols());
}

}  // namespace oic::core
