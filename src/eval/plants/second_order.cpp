#include "eval/plants/second_order.hpp"

#include "common/error.hpp"

namespace oic::eval {

using control::AffineLTI;
using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

cert::PlantModel SecondOrderPlant::make_model(std::string name, AffineLTI sys,
                                              const control::RmpcConfig& rmpc_cfg) {
  return cert::PlantModel{std::move(name), std::move(sys), Matrix::identity(2),
                          Matrix{{1.0}},   rmpc_cfg,       Vector{0.0}};
}

SecondOrderPlant::SecondOrderPlant(std::string name, AffineLTI sys, double delta,
                                   double cost_floor, double run_cost,
                                   const control::RmpcConfig& rmpc_cfg,
                                   const cert::Provider& provider)
    : name_(std::move(name)),
      sys_(std::move(sys)),
      delta_(delta),
      cost_floor_(cost_floor),
      run_cost_(run_cost) {
  OIC_REQUIRE(sys_.nx() == 2 && sys_.nu() == 1 && sys_.nw() == 1,
              name_ + ": SecondOrderPlant expects nx=2, nu=1, nw=1");
  OIC_REQUIRE(delta_ > 0.0, name_ + ": control period must be positive");
  OIC_REQUIRE(cost_floor_ > 0.0,
              name_ + ": cost floor must be positive (savings are relative)");
  OIC_REQUIRE(run_cost_ >= 0.0, name_ + ": run cost must be non-negative");
  // Single source for the skip input: the monitor applies exactly what the
  // certificate was synthesized for.
  const cert::PlantModel m = make_model(name_, sys_, rmpc_cfg);
  u_skip_ = m.u_skip;
  rt_ = build_plant_runtime(m, provider);
}

double SecondOrderPlant::cost_step(const Vector& /*x*/, const Vector& u,
                                   bool controller_ran) const {
  const double run = controller_ran ? run_cost_ : 0.0;
  return (cost_floor_ + run + u.norm1()) * delta_;
}

Vector SecondOrderPlant::sample_x0(Rng& rng) const {
  return sample_from_set(sets().x_prime, rt_.x_prime_box, rng, name_.c_str());
}

control::RmpcConfig Toy2dCase::default_rmpc() {
  control::RmpcConfig cfg;
  cfg.horizon = 8;
  cfg.state_weight = 1.0;
  cfg.input_weight = 1.0;
  // Undamped double integrator: closed-loop (Chisci) tightening, as with
  // lane-keep, or the residual disturbance swallows the terminal set.
  cfg.closed_loop_tightening = true;
  return cfg;
}

AffineLTI Toy2dCase::build_system(const Toy2dParams& p) {
  OIC_REQUIRE(p.delta > 0.0, "Toy2dCase: control period must be positive");
  OIC_REQUIRE(p.p_max > 0.0 && p.v_max > 0.0 && p.u_max > 0.0 && p.w_max > 0.0,
              "Toy2dCase: degenerate constraint ranges");
  const double d = p.delta;
  Matrix a{{1.0, d}, {0.0, 1.0}};
  Matrix b{{0.0}, {d}};
  Matrix e{{0.0}, {d}};
  const HPolytope x =
      HPolytope::box(Vector{-p.p_max, -p.v_max}, Vector{p.p_max, p.v_max});
  const HPolytope u = HPolytope::box(Vector{-p.u_max}, Vector{p.u_max});
  const HPolytope w = HPolytope::box(Vector{-p.w_max}, Vector{p.w_max});
  return AffineLTI(a, b, e, Vector{0.0, 0.0}, x, u, w);
}

cert::PlantModel Toy2dCase::model(const Toy2dParams& params,
                                  const control::RmpcConfig& rmpc) {
  return make_model("toy2d", build_system(params), rmpc);
}

Toy2dCase::Toy2dCase(Toy2dParams params, control::RmpcConfig rmpc,
                     const cert::Provider& provider)
    : SecondOrderPlant("toy2d", build_system(params), params.delta, params.idle_cost,
                       params.run_cost, rmpc, provider),
      params_(params) {}

}  // namespace oic::eval
