/// \file acc_model_based.cpp
/// The model-based skipping path of the paper (Sec. III-B.1): when the
/// controller is analytic (here: the LQR gain) and the disturbance trace
/// is known (a noise-free Equation-8 sinusoid), the skipping choice comes
/// from the horizon-H optimization of Equation 6 -- solved both by the
/// exact sequence search and by the big-M MIP, which must agree.
///
/// Run: ./build/examples/acc_model_based

#include <cmath>
#include <cstdio>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "core/model_based.hpp"
#include "eval/harness.hpp"

namespace {

/// Noise-free Equation-8 sinusoid as a disturbance oracle.
class SinusoidOracle final : public oic::core::DisturbanceOracle {
 public:
  explicit SinusoidOracle(const oic::acc::AccCase& acc) : acc_(acc) {}
  oic::linalg::Vector at(std::size_t t) const override {
    const auto& p = acc_.params();
    const double vf =
        p.v_ref() + 9.0 * std::sin(M_PI / 2.0 * p.delta * static_cast<double>(t));
    return oic::linalg::Vector{acc_.w_from_vf(vf)};
  }

 private:
  const oic::acc::AccCase& acc_;
};

}  // namespace

int main() {
  using namespace oic;
  std::printf("Model-based opportunistic skipping (Equation 6) on the ACC plant\n");
  std::printf("with a known sinusoidal front vehicle and the analytic LQR law.\n\n");

  acc::AccCase acc_case;
  control::LinearFeedback kappa(acc_case.lqr_gain());
  SinusoidOracle oracle(acc_case);

  core::ModelBasedConfig cfg;
  cfg.horizon = 8;
  cfg.energy_offset = acc_case.energy_offset();
  core::ModelBasedPolicy exact(acc_case.system(), acc_case.sets(), kappa,
                               acc_case.u_skip(), oracle, cfg);
  core::ModelBasedConfig mip_cfg = cfg;
  mip_cfg.solver = core::ModelBasedConfig::Solver::kBigMMip;
  core::ModelBasedPolicy mip(acc_case.system(), acc_case.sets(), kappa,
                             acc_case.u_skip(), oracle, mip_cfg);

  // Walk the closed loop under the exact policy and show the decisions.
  Rng rng(7);
  linalg::Vector x = acc_case.sample_x0(rng);
  std::printf(" t |   gap     speed |  z  plan (z* over horizon) | cost   solvers\n");
  std::printf("---+-----------------+----------------------------+----------------\n");
  std::size_t skipped = 0;
  for (std::size_t t = 0; t < 30; ++t) {
    const bool in_xprime = acc_case.sets().x_prime.contains(x);
    int z = 1;
    std::string plan = "(monitor forced z=1)";
    char agree = '-';
    if (in_xprime) {
      z = exact.decide(x, {});
      const int zm = mip.decide(x, {});
      agree = (z == zm || std::abs(exact.last().planned_cost -
                                   mip.last().planned_cost) < 1e-5)
                  ? 'y'
                  : 'N';
      plan.clear();
      for (int zi : exact.last().planned_z) plan += zi ? '1' : '0';
    } else {
      exact.decide(x, {});  // keep the policy clocks aligned with time
      mip.decide(x, {});
    }
    linalg::Vector u = z == 1 ? kappa.control(x) : acc_case.u_skip();
    if (!acc_case.system().u_set().contains(u, 1e-9)) u = acc_case.u_skip();
    if (z == 0) ++skipped;

    const auto [s, v] = acc_case.from_shifted(x);
    std::printf("%2zu | %6.1f m %5.1f m/s |  %d  %-25s | %6.2f  agree=%c\n", t, s, v, z,
                plan.c_str(), exact.last().feasible ? exact.last().planned_cost : -1.0,
                agree);
    x = acc_case.system().step(x, u, oracle.at(t));
  }
  std::printf("\nskipped %zu / 30 steps; exact search and MIP agreed on every "
              "consulted step.\n",
              skipped);
  return 0;
}
