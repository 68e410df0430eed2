/// \file bench_ablation_horizon.cpp
/// Ablation of the model-based skipping policy (Equation 6), a design
/// choice called out in DESIGN.md: the exact branch-and-prune search over
/// binary skip sequences versus the big-M MIP formulation solved by branch
/// & bound, across horizons H.  Both are exact optimizers of the same
/// problem, so costs must agree; the interesting outputs are wall time and
/// node counts, plus the energy saving the model-based policy achieves on
/// the noise-free sinusoid (where the disturbance oracle is exact).
///
/// Flags: --cases=N evaluation cases (default 30), --steps=N (default 100).

#include <chrono>
#include <cstdio>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/model_based.hpp"
#include "eval/harness.hpp"

namespace {

using namespace oic;
using Clock = std::chrono::steady_clock;

/// Oracle for the noise-free Equation-8 sinusoid in W-space.
class SinusoidOracle final : public core::DisturbanceOracle {
 public:
  SinusoidOracle(const acc::AccCase& acc, double af) : acc_(acc), af_(af) {}
  linalg::Vector at(std::size_t t) const override {
    const double vf = acc_.params().v_ref() +
                      af_ * std::sin(M_PI / 2.0 * acc_.params().delta *
                                     static_cast<double>(t));
    return linalg::Vector{acc_.w_from_vf(vf)};
  }

 private:
  const acc::AccCase& acc_;
  double af_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cases = benchutil::flag(argc, argv, "cases", 30);
  const std::size_t steps = benchutil::flag(argc, argv, "steps", 100);

  std::printf("=== Ablation: model-based Omega (Eq. 6) -- exact search vs MIP ===\n");
  std::printf("workload: noise-free sinusoid (known disturbance), kappa = LQR "
              "feedback\ncases=%zu, steps=%zu\n\n",
              cases, steps);

  acc::AccCase acc_case;
  control::LinearFeedback kappa(acc_case.lqr_gain());
  SinusoidOracle oracle(acc_case, 9.0);

  benchutil::rule('=');
  std::printf("%-4s | %-26s | %-26s | %s\n", "H", "exact search", "big-M MIP",
              "cost match");
  std::printf("%-4s | %12s %13s | %12s %13s |\n", "", "mean us/call", "mean nodes",
              "mean us/call", "mean nodes");
  benchutil::rule();

  for (std::size_t h : {2u, 4u, 6u, 8u, 10u}) {
    core::ModelBasedConfig ecfg;
    ecfg.horizon = h;
    ecfg.solver = core::ModelBasedConfig::Solver::kExactSearch;
    core::ModelBasedPolicy exact(acc_case.system(), acc_case.sets(), kappa,
                                 acc_case.u_skip(), oracle, ecfg);
    core::ModelBasedConfig mcfg = ecfg;
    mcfg.solver = core::ModelBasedConfig::Solver::kBigMMip;
    core::ModelBasedPolicy mip(acc_case.system(), acc_case.sets(), kappa,
                               acc_case.u_skip(), oracle, mcfg);

    Rng rng(9000 + h);
    double t_exact = 0.0, t_mip = 0.0;
    double n_exact = 0.0, n_mip = 0.0;
    std::size_t mismatches = 0;
    const std::size_t probes = 40;
    for (std::size_t i = 0; i < probes; ++i) {
      const linalg::Vector x = acc_case.sample_x0(rng);
      exact.reset();
      mip.reset();
      auto t0 = Clock::now();
      exact.decide(x, {});
      auto t1 = Clock::now();
      mip.decide(x, {});
      auto t2 = Clock::now();
      t_exact += std::chrono::duration<double, std::micro>(t1 - t0).count();
      t_mip += std::chrono::duration<double, std::micro>(t2 - t1).count();
      n_exact += static_cast<double>(exact.last().nodes_explored);
      n_mip += static_cast<double>(mip.last().nodes_explored);
      if (exact.last().feasible != mip.last().feasible ||
          (exact.last().feasible &&
           std::abs(exact.last().planned_cost - mip.last().planned_cost) > 1e-4)) {
        ++mismatches;
      }
    }
    std::printf("%-4zu | %12.1f %13.1f | %12.1f %13.1f | %s\n", h, t_exact / probes,
                n_exact / probes, t_mip / probes, n_mip / probes,
                mismatches == 0 ? "yes" : "MISMATCH");
  }
  benchutil::rule();

  // Energy saving of the model-based policy vs RMPC-only on the known
  // sinusoid (the scenario where Eq. 6 is applicable).
  std::printf("\n[model-based policy energy saving on the known sinusoid]\n");
  const acc::AccParams p = acc_case.params();
  acc::Scenario noiseless("Eq8-clean", "noise-free sinusoid",
                          std::make_unique<sim::SinusoidalProfile>(
                              p.v_ref(), 9.0, p.delta, 0.0, p.vf_min, p.vf_max));

  core::ModelBasedConfig cfg;
  cfg.horizon = 8;
  cfg.energy_offset = acc_case.energy_offset();
  core::ModelBasedPolicy mb(acc_case.system(), acc_case.sets(), kappa,
                            acc_case.u_skip(), oracle, cfg);
  core::BangBangPolicy bb;
  const auto cmp = eval::compare_policies(acc_case, noiseless, {&bb, &mb}, cases,
                                          steps, 777001);
  std::printf("  bang-bang    : %6.2f %% fuel saving vs RMPC-only\n",
              100.0 * mean(cmp.savings[0]));
  std::printf("  model-based  : %6.2f %% fuel saving vs RMPC-only (H=8, exact)\n",
              100.0 * mean(cmp.savings[1]));
  std::printf("  safety       : %s\n",
              (cmp.any_violation[0] || cmp.any_violation[1]) ? "VIOLATED (BUG!)"
                                                             : "no violations");
  return (cmp.any_violation[0] || cmp.any_violation[1]) ? 1 : 0;
}
