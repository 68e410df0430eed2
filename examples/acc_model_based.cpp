/// \file acc_model_based.cpp
/// The model-based skipping path of the paper (Sec. III-B.1): when the
/// controller is analytic (here: the LQR gain) and the disturbance trace
/// is known (a noise-free Equation-8 sinusoid), the skipping choice comes
/// from the horizon-H optimization of Equation 6, solved by the exact
/// search over skip sequences.
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
  core::ModelBasedPolicy policy(acc_case.system(), acc_case.sets(), kappa,
                                acc_case.u_skip(), oracle, cfg);

  // Walk the closed loop under the policy and show the decisions.
  Rng rng(7);
  linalg::Vector x = acc_case.sample_x0(rng);
  std::printf(" t |   gap     speed |  z  plan (z* over horizon) | cost\n");
  std::printf("---+-----------------+----------------------------+-------\n");
  std::size_t skipped = 0;
  for (std::size_t t = 0; t < 30; ++t) {
    const bool in_xprime = acc_case.sets().x_prime.contains(x);
    int z = 1;
    std::string plan = "(monitor forced z=1)";
    if (in_xprime) {
      z = policy.decide(x, {});
      plan.clear();
      for (int zi : policy.last().planned_z) plan += zi ? '1' : '0';
    } else {
      policy.decide(x, {});  // keep the policy clock aligned with time
    }
    linalg::Vector u = z == 1 ? kappa.control(x) : acc_case.u_skip();
    if (!acc_case.system().u_set().contains(u, 1e-9)) u = acc_case.u_skip();
    if (z == 0) ++skipped;

    const auto [s, v] = acc_case.from_shifted(x);
    std::printf("%2zu | %6.1f m %5.1f m/s |  %d  %-25s | %6.2f\n", t, s, v, z,
                plan.c_str(), policy.last().feasible ? policy.last().planned_cost : -1.0);
    x = acc_case.system().step(x, u, oracle.at(t));
  }
  std::printf("\nskipped %zu / 30 steps.\n", skipped);
  return 0;
}
