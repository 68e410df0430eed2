#include "acc/acc.hpp"

#include "common/error.hpp"

namespace oic::acc {

using control::AffineLTI;
using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

control::RmpcConfig AccCase::default_rmpc() {
  control::RmpcConfig cfg;
  cfg.horizon = 10;      // Sec. IV: "prediction horizon set to 10"
  cfg.state_weight = 1.0;
  cfg.input_weight = 1.0;
  return cfg;
}

AffineLTI AccCase::build_system(const AccParams& p) {
  OIC_REQUIRE(p.delta > 0.0, "AccCase: control period must be positive");
  OIC_REQUIRE(p.s_min < p.s_max && p.v_min < p.v_max && p.u_min < p.u_max &&
                  p.vf_min < p.vf_max,
              "AccCase: degenerate constraint ranges");
  const double d = p.delta;
  Matrix a{{1.0, -d}, {0.0, 1.0 - p.drag * d}};
  Matrix b{{0.0}, {d}};
  Matrix e{{d}, {0.0}};

  const double sr = p.s_ref();
  const double vr = p.v_ref();
  const double ue = p.u_eq();
  const HPolytope x = HPolytope::box(Vector{p.s_min - sr, p.v_min - vr},
                                     Vector{p.s_max - sr, p.v_max - vr});
  const HPolytope u = HPolytope::box(Vector{p.u_min - ue}, Vector{p.u_max - ue});
  const HPolytope w = HPolytope::box(Vector{p.vf_min - vr}, Vector{p.vf_max - vr});
  return AffineLTI(a, b, e, Vector{0.0, 0.0}, x, u, w);
}

cert::PlantModel AccCase::model(const AccParams& params,
                                const control::RmpcConfig& rmpc) {
  // Unit LQR weights for the local stabilizing gain; skip actuates raw
  // u = 0, i.e. shifted u~ = -u_eq.
  return cert::PlantModel{"acc",          build_system(params),
                          Matrix::identity(2), Matrix{{1.0}},
                          rmpc,           Vector{-params.u_eq()}};
}

AccCase::AccCase(AccParams params, control::RmpcConfig rmpc,
                 const cert::Provider& provider)
    : params_(params), sys_(build_system(params)) {
  // The declarative model is the single source of the skip input: the
  // certificate (X', ladder) is synthesized for m.u_skip, and the monitor
  // must apply exactly that input or the certificate proves nothing.
  const cert::PlantModel m = model(params_, rmpc);
  u_skip_ = m.u_skip;                          // raw u = 0, i.e. u~ = -u_eq
  energy_offset_ = Vector{-params_.u_eq()};    // ||u_raw||_1 = ||u~ + u_eq||_1

  // Offline artifacts (LQR gain, tightened/terminal sets, XI per Prop. 1,
  // X' per Definition 3, the skip ladder) come from the certificate layer:
  // synthesized fresh by default, read from a cert::Store cache otherwise.
  rt_ = eval::build_plant_runtime(m, provider);

  // Fuel map: the ACC's u already includes the tractive force per unit
  // mass net of nothing -- the drag k v is modelled separately in the
  // dynamics -- so the fuel power is the engine power m v u alone (drag and
  // rolling terms are zeroed to avoid double counting).
  sim::FuelParams fp;
  fp.drag_coeff = 0.0;
  fp.rolling_coeff = 0.0;
  fuel_ = sim::FuelModel(fp);
}

double AccCase::energy_raw(const Vector& u_shifted) const {
  return (u_shifted - energy_offset_).norm1();
}

Vector AccCase::to_shifted(double s, double v) const {
  return Vector{s - params_.s_ref(), v - params_.v_ref()};
}

std::pair<double, double> AccCase::from_shifted(const Vector& x) const {
  OIC_REQUIRE(x.size() == 2, "AccCase::from_shifted: state must be planar");
  return {x[0] + params_.s_ref(), x[1] + params_.v_ref()};
}

double AccCase::u_raw(const Vector& u_shifted) const {
  OIC_REQUIRE(u_shifted.size() == 1, "AccCase::u_raw: input must be scalar");
  return u_shifted[0] + params_.u_eq();
}

double AccCase::fuel_step(const Vector& x, const Vector& u) const {
  const auto [s, v] = from_shifted(x);
  (void)s;
  const double a_engine = u_raw(u);  // engine-commanded acceleration
  return fuel_.consume(v, a_engine, params_.delta);
}

Vector AccCase::sample_x0(Rng& rng) const {
  // Same per-coordinate draw order as the historical 2-D sampler, so the
  // case streams are unchanged.
  return eval::sample_from_set(rt_.sets.x_prime, rt_.x_prime_box, rng,
                               "AccCase::sample_x0");
}

}  // namespace oic::acc
