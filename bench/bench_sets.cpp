/// \file bench_sets.cpp
/// Micro-benchmarks of the safe-set pipeline of Sec. III-A (google-
/// benchmark), plus the open-loop vs closed-loop constraint-tightening
/// ablation:
///
///   * mRPI outer approximation (Rakovic scheme) for linear feedback;
///   * maximal robust control invariant set (fixed-point iteration);
///   * RMPC feasible-set computation (Fourier-Motzkin recursion, Prop. 1);
///   * strengthened safe set X' = B(XI, 0) intersect XI (Definition 3);
///   * tightening-mode ablation: terminal/Chebyshev radii of X(N).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "acc/acc.hpp"
#include "control/invariant.hpp"
#include "control/lqr.hpp"
#include "control/reach.hpp"
#include "control/tube_mpc.hpp"
#include "core/safe_sets.hpp"

namespace {

using namespace oic;
using control::AffineLTI;
using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

AffineLTI double_integrator(double wmag) {
  const double dt = 0.1;
  Matrix a{{1, dt}, {0, 1}};
  Matrix b{{0.5 * dt * dt}, {dt}};
  return AffineLTI::canonical(a, b, HPolytope::sym_box(Vector{5, 5}),
                              HPolytope::sym_box(Vector{2}),
                              HPolytope::sym_box(Vector{wmag, wmag}));
}

void BM_MrpiOuter(benchmark::State& state) {
  const AffineLTI sys = double_integrator(0.05);
  const auto lqr = control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  const Matrix a_cl = sys.a() + sys.b() * lqr.k;
  const HPolytope w = sys.disturbance_in_state_space();
  control::MrpiOptions opt;
  opt.alpha = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::mrpi_outer(a_cl, w, opt));
  }
  state.SetLabel("alpha=1/" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MrpiOuter)->Arg(5)->Arg(20)->Arg(100);

void BM_MaximalRobustControlInvariant(benchmark::State& state) {
  const AffineLTI sys = double_integrator(0.05);
  const auto lqr = control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0}));
  }
}
BENCHMARK(BM_MaximalRobustControlInvariant);

void BM_RmpcFeasibleSet(benchmark::State& state) {
  const AffineLTI sys = double_integrator(0.02);
  const auto lqr = control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  control::RmpcConfig cfg;
  cfg.horizon = static_cast<std::size_t>(state.range(0));
  const control::TubeMpc mpc(sys, lqr.k, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc.compute_feasible_set());
  }
  state.SetLabel("N=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_RmpcFeasibleSet)->Arg(4)->Arg(8)->Arg(12);

void BM_StrengthenedSafeSet(benchmark::State& state) {
  const AffineLTI sys = double_integrator(0.05);
  const auto lqr = control::dlqr(sys.a(), sys.b(), Matrix::identity(2), Matrix{{1.0}});
  const auto inv = control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_safe_sets(sys, inv.set, Vector{0.0}));
  }
}
BENCHMARK(BM_StrengthenedSafeSet);

void BM_BackwardReachConstInput(benchmark::State& state) {
  const AffineLTI sys = double_integrator(0.05);
  const HPolytope y = HPolytope::sym_box(Vector{2, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::backward_reach_const_input(sys, y, Vector{0.0}));
  }
}
BENCHMARK(BM_BackwardReachConstInput);

void print_tightening_ablation() {
  std::printf("\n=== Ablation: open-loop (paper) vs closed-loop (Chisci) "
              "tightening ===\n");
  std::printf("%-22s %-18s %-18s %-18s\n", "configuration", "X(N) Chebyshev r",
              "terminal Cheb. r", "XI Chebyshev r");
  const acc::AccParams params;
  for (const bool closed : {false, true}) {
    control::RmpcConfig cfg = acc::AccCase::default_rmpc();
    cfg.closed_loop_tightening = closed;
    acc::AccCase acc_case(params, cfg);
    const auto& mpc = acc_case.rmpc();
    const double rx = mpc.tightened(cfg.horizon).chebyshev().radius;
    const double rt = mpc.terminal_set().chebyshev().radius;
    const double ri = acc_case.sets().xi.chebyshev().radius;
    std::printf("%-22s %-18.3f %-18.3f %-18.3f\n",
                closed ? "closed-loop (Chisci)" : "open-loop (paper)", rx, rt, ri);
  }
  std::printf(
      "(which mode is less conservative is system-dependent: closed-loop wins "
      "when\n A amplifies the disturbance direction, open-loop wins when A "
      "leaves it\n invariant and feedback would spread it into other "
      "coordinates -- the ACC\n plant is the latter case)\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tightening_ablation();
  return 0;
}
