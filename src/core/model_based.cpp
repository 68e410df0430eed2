#include "core/model_based.hpp"

#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace oic::core {

using linalg::Vector;

SequenceOracle::SequenceOracle(std::vector<Vector> seq) : seq_(std::move(seq)) {
  OIC_REQUIRE(!seq_.empty(), "SequenceOracle: need at least one sample");
}

Vector SequenceOracle::at(std::size_t t) const {
  return t < seq_.size() ? seq_[t] : seq_.back();
}

ModelBasedPolicy::ModelBasedPolicy(const control::AffineLTI& sys, const SafeSets& sets,
                                   const control::LinearFeedback& kappa,
                                   Vector u_skip, const DisturbanceOracle& oracle,
                                   ModelBasedConfig config)
    : sys_(sys),
      sets_(sets),
      kappa_(kappa),
      u_skip_(std::move(u_skip)),
      oracle_(oracle),
      config_(std::move(config)) {
  OIC_REQUIRE(config_.horizon >= 1, "ModelBasedPolicy: horizon must be positive");
  OIC_REQUIRE(u_skip_.size() == sys_.nu(), "ModelBasedPolicy: skip input mismatch");
  if (config_.energy_offset.empty()) config_.energy_offset = Vector(sys_.nu());
  OIC_REQUIRE(config_.energy_offset.size() == sys_.nu(),
              "ModelBasedPolicy: energy offset dimension mismatch");
}

double ModelBasedPolicy::energy(const Vector& u) const {
  return (u - config_.energy_offset).norm1();
}

std::string ModelBasedPolicy::name() const {
  std::ostringstream os;
  os << "model-based(H=" << config_.horizon << ")";
  return os.str();
}

int ModelBasedPolicy::decide(const Vector& x, const core::WHistory&) {
  OIC_REQUIRE(x.size() == sys_.nx(), "ModelBasedPolicy::decide: state mismatch");
  const std::size_t h = config_.horizon;
  last_ = ModelBasedInfo{};

  // Controller feedback is affine, the disturbance is known, so fixing the
  // binary sequence determines the whole trajectory; branch-and-prune on
  // accumulated energy.
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_z;
  std::vector<int> cur_z(h, 0);
  std::size_t nodes = 0;

  // Recursive lambda via explicit function object to keep the stack shallow.
  auto dfs = [&](auto&& self, std::size_t k, const Vector& xs, double cost) -> void {
    ++nodes;
    if (cost >= best_cost) return;
    if (k == h) {
      best_cost = cost;
      best_z = cur_z;
      return;
    }
    const Vector w = oracle_.at(t_ + k);

    // Candidate inputs for z = 0 / z = 1, ordered cheapest-first so the
    // first incumbent is strong and pruning bites early.
    struct Option {
      int z;
      Vector u;
      double e;
    };
    Option opts[2] = {{0, u_skip_, energy(u_skip_)}, {1, {}, 0.0}};
    {
      Vector uk = kappa_.gain() * xs + kappa_.offset();
      opts[1].e = energy(uk);
      opts[1].u = std::move(uk);
    }
    if (opts[1].e < opts[0].e) std::swap(opts[0], opts[1]);

    for (const Option& o : opts) {
      if (!sys_.u_set().contains(o.u, 1e-9)) continue;
      const Vector xn = sys_.step(xs, o.u, w);
      if (!sets_.x_prime.contains(xn, 1e-9)) continue;
      cur_z[k] = o.z;
      self(self, k + 1, xn, cost + o.e);
    }
  };
  dfs(dfs, 0, x, 0.0);
  ++t_;

  last_.nodes_explored = nodes;
  if (best_z.empty()) {
    // No sequence keeps the prediction inside X'; run the controller and
    // let the monitor/XI machinery take over (always safe by Theorem 1).
    last_.feasible = false;
    return 1;
  }
  last_.feasible = true;
  last_.planned_cost = best_cost;
  last_.planned_z = best_z;
  return best_z.front();
}

}  // namespace oic::core
