/// \file bench_micro.cpp
/// Throughput micro-benchmarks of the substrate primitives every
/// experiment leans on: the simplex LP solver, polytope queries, Minkowski
/// operations, Fourier-Motzkin projection, and DQN inference/training
/// steps, the tube-MPC solve a monitored period runs, and a certificate
/// cache hit.  These establish the per-operation budgets behind the
/// Sec. IV-A computation-saving claim.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "cert/store.hpp"
#include "common/random.hpp"
#include "control/tube_mpc.hpp"
#include "eval/harness.hpp"
#include "eval/registry.hpp"
#include "linalg/lu.hpp"
#include "lp/simplex.hpp"
#include "poly/fourier_motzkin.hpp"
#include "poly/hpolytope.hpp"
#include "poly/ops.hpp"
#include "rl/dqn.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"

namespace {

using namespace oic;
using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

lp::Problem random_lp(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  lp::Problem p(n);
  Vector c(n);
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = rng.uniform(-1, 1);
    p.set_bounds(j, 0.0, rng.uniform(0.5, 3.0));
  }
  p.set_objective(c);
  for (std::size_t i = 0; i < m; ++i) {
    Vector a(n);
    for (std::size_t j = 0; j < n; ++j) a[j] = rng.uniform(-1, 1);
    p.add_constraint(a, lp::Relation::kLessEq, rng.uniform(0.5, 2.0));
  }
  return p;
}

void BM_SimplexSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = random_lp(n, 2 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
  state.SetLabel(std::to_string(n) + " vars, " + std::to_string(2 * n) + " rows");
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(30)->Arg(60)->Arg(120);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix a(n, n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += static_cast<double>(n);
    b[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(4)->Arg(16)->Arg(64);

void BM_PolytopeContains(benchmark::State& state) {
  const HPolytope p = HPolytope::l1_ball(2, 3.0).intersect(
      HPolytope::sym_box(Vector{2.5, 2.5}));
  const Vector x{0.3, -0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.contains(x));
  }
}
BENCHMARK(BM_PolytopeContains);

void BM_PolytopeSupport(benchmark::State& state) {
  const HPolytope p = HPolytope::l1_ball(2, 3.0).intersect(
      HPolytope::sym_box(Vector{2.5, 2.5}));
  const Vector d{0.6, 0.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.support(d));
  }
}
BENCHMARK(BM_PolytopeSupport);

void BM_RemoveRedundancy(benchmark::State& state) {
  // A 2-D set described by many rows, most redundant.
  const auto dirs = poly::uniform_directions_2d(static_cast<std::size_t>(state.range(0)));
  const HPolytope ball = HPolytope::sym_box(Vector{1, 1});
  const HPolytope p = poly::template_outer(2, dirs, [&](const Vector& d) {
    return ball.support(d).value + 0.5;
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.remove_redundancy());
  }
}
BENCHMARK(BM_RemoveRedundancy)->Arg(16)->Arg(64);

void BM_MinkowskiSum2d(benchmark::State& state) {
  const HPolytope a = HPolytope::l1_ball(2, 1.0);
  const HPolytope b = HPolytope::sym_box(Vector{0.5, 0.25});
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly::minkowski_sum(a, b));
  }
}
BENCHMARK(BM_MinkowskiSum2d);

void BM_PontryaginDiff(benchmark::State& state) {
  const HPolytope a = HPolytope::sym_box(Vector{3, 3});
  const HPolytope b = HPolytope::l1_ball(2, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.pontryagin_diff(b));
  }
}
BENCHMARK(BM_PontryaginDiff);

void BM_FourierMotzkinProject(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Vector lo(dim), hi(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    lo[i] = -1.0;
    hi[i] = 1.0;
  }
  HPolytope box = HPolytope::box(lo, hi);
  // Couple the coordinates so elimination does real work.
  Rng rng(5);
  Matrix extra(dim, dim);
  Vector be(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) extra(i, j) = rng.uniform(-1, 1);
    be[i] = rng.uniform(0.5, 1.5);
  }
  const HPolytope p = box.intersect(HPolytope(extra, be));
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly::project_prefix(p, 2));
  }
  state.SetLabel("eliminate " + std::to_string(dim - 2) + " of " + std::to_string(dim));
}
BENCHMARK(BM_FourierMotzkinProject)->Arg(3)->Arg(4)->Arg(6);

void BM_DqnTrainStep(benchmark::State& state) {
  rl::DqnConfig cfg;
  cfg.min_replay = 32;
  rl::DoubleDqn agent(4, 2, cfg, Rng(1));
  Rng rng(2);
  // Warm the replay buffer.
  for (int i = 0; i < 64; ++i) {
    rl::Transition t;
    t.state = Vector{rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0};
    t.action = rng.uniform_int(0, 1);
    t.reward = rng.uniform(-1, 1);
    t.next_state = t.state;
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    rl::Transition t;
    t.state = Vector{rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0};
    t.action = rng.uniform_int(0, 1);
    t.reward = rng.uniform(-1, 1);
    t.next_state = t.state;
    benchmark::DoNotOptimize(agent.observe(std::move(t)));
  }
}
BENCHMARK(BM_DqnTrainStep);

// Stages of one double-DQN update at the production shape (state dim 6,
// hidden {64, 64}, 2 actions, minibatch 32 -- the DqnConfig defaults the
// trainer uses): the batched forwards, the batched backward, the Adam step,
// the act-time forward of select_action, and the whole update.  An update
// runs two forward, one forward_cached, one backward and one Adam; the rest
// is replay sampling, SoA packing and the TD targets.  Only the public rl
// API is used, so this file builds against older revisions for before/after
// comparisons.
struct DqnStages {
  static constexpr std::size_t kStateDim = 6, kActions = 2, kBatch = 32;
  /// Distinct minibatches the backward stage rotates over: one fixed cache
  /// would let the branch predictor learn its ReLU pattern, which no two
  /// training updates share.
  static constexpr std::size_t kCaches = 16;
  Rng rng{2024};
  rl::Mlp net = rl::Mlp({kStateDim, 64, 64, kActions}, rng);
  std::vector<Matrix> states;  ///< kCaches input minibatches
  std::vector<Matrix> douts;   ///< one TD-style output gradient per minibatch
  std::vector<rl::BatchForwardCache> caches;
  rl::BatchWorkspace ws;
  rl::Gradients grad = net.zero_gradients();

  DqnStages() {
    for (std::size_t c = 0; c < kCaches; ++c) {
      Matrix in(kBatch, kStateDim);
      for (std::size_t k = 0; k < kBatch * kStateDim; ++k) {
        in.data()[k] = rng.uniform(-1, 1);
      }
      // One nonzero per row, at the taken action, like the TD loss.
      Matrix d(kBatch, kActions);
      for (std::size_t b = 0; b < kBatch; ++b) {
        d(b, rng.uniform_int(0, 1)) = rng.uniform(-1, 1);
      }
      caches.emplace_back();
      net.forward_batch_cached(in, caches.back());
      states.push_back(in);
      douts.push_back(d);
    }
  }

  static rl::DoubleDqn make_agent() {
    rl::DqnConfig cfg;
    cfg.min_replay = 64;
    cfg.replay_capacity = 1024;
    cfg.gamma = 0.99;
    // Greedy acting: every select_action runs the forward.
    cfg.epsilon_start = 0.0;
    cfg.epsilon_end = 0.0;
    return rl::DoubleDqn(kStateDim, kActions, cfg, Rng(7));
  }

  static rl::Transition transition(Rng& env) {
    rl::Transition t;
    t.state = Vector(kStateDim);
    t.next_state = Vector(kStateDim);
    for (std::size_t i = 0; i < kStateDim; ++i) {
      t.state[i] = env.uniform(-1, 1);
      t.next_state[i] = env.uniform(-1, 1);
    }
    t.action = env.uniform_int(0, 1);
    t.reward = env.uniform(-1, 1);
    t.terminal = env.bernoulli(0.05);
    return t;
  }
};

void BM_DqnStageForward(benchmark::State& state) {
  DqnStages s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.net.forward_batch_into(s.states[0], s.ws));
  }
}
BENCHMARK(BM_DqnStageForward);

void BM_DqnStageForwardCached(benchmark::State& state) {
  DqnStages s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.net.forward_batch_cached(s.states[0], s.caches[0]));
  }
}
BENCHMARK(BM_DqnStageForwardCached);

void BM_DqnStageBackward(benchmark::State& state) {
  DqnStages s;
  std::size_t c = 0;
  for (auto _ : state) {
    s.grad.zero();
    s.net.backward_batch(s.caches[c], s.douts[c], s.ws, s.grad);
    benchmark::ClobberMemory();
    c = (c + 1) % DqnStages::kCaches;
  }
}
BENCHMARK(BM_DqnStageBackward);

void BM_DqnStageAdam(benchmark::State& state) {
  DqnStages s;
  s.net.backward_batch(s.caches[0], s.douts[0], s.ws, s.grad);
  rl::Adam adam(rl::DqnConfig{}.learning_rate);
  for (auto _ : state) {
    adam.step(s.net, s.grad);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DqnStageAdam);

void BM_DqnStageAct(benchmark::State& state) {
  rl::DoubleDqn agent = DqnStages::make_agent();
  Rng env(11);
  const Vector probe = DqnStages::transition(env).state;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.select_action(probe));
  }
}
BENCHMARK(BM_DqnStageAct);

void BM_DqnStageUpdate(benchmark::State& state) {
  rl::DoubleDqn agent = DqnStages::make_agent();
  Rng env(11);
  while (agent.train_steps() < 10) agent.observe(DqnStages::transition(env));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.observe(DqnStages::transition(env)));
  }
}
BENCHMARK(BM_DqnStageUpdate);

// The tube-MPC layer of a monitored period on the acc plant: kappa's warm
// dual-simplex re-solve, and the canonical-seed restart an episode reset
// (or the scheduled refactorization) pays.  Both replay one fixed
// closed-loop state sequence -- 100 periods of the always-run RMPC loop
// under the Fig.4 scenario -- with reset_solver() every 100 solves, so
// every run re-solves the same LPs.  Only the public control/eval API is
// used, so this file builds against older revisions for before/after
// comparisons.
struct AccMpcRun {
  static constexpr std::size_t kSolves = 100;
  std::unique_ptr<eval::PlantCase> plant;
  std::vector<Vector> states;

  AccMpcRun() {
    const eval::ScenarioRegistry& registry = eval::ScenarioRegistry::builtin();
    plant = registry.make_plant("acc");
    Rng rng(2020);
    const eval::CaseData data =
        eval::make_case(*plant, registry.make_scenario("acc", "Fig.4"), rng, kSolves);
    control::TubeMpc mpc = plant->rmpc();
    Vector x = data.x0;
    Vector w(plant->system().nw());
    for (std::size_t t = 0; t < kSolves; ++t) {
      states.push_back(x);
      const Vector u = mpc.control(x);
      plant->signal_to_w(data.signal[t], w);
      x = plant->system().step(x, u, w);
    }
  }

  /// Built once per process: the acc certificate synthesis takes seconds.
  static const AccMpcRun& get() {
    static const AccMpcRun run;
    return run;
  }
};

void BM_TubeMpcWarmSolve(benchmark::State& state) {
  const AccMpcRun& run = AccMpcRun::get();
  control::TubeMpc mpc = run.plant->rmpc();
  std::size_t t = 0;
  for (auto _ : state) {
    if (t == 0) {
      // Every 100 solves: drop the carried basis and re-anchor, untimed.
      state.PauseTiming();
      mpc.reset_solver();
      benchmark::DoNotOptimize(mpc.control(run.states[0]));
      t = 1;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(mpc.control(run.states[t]));
    t = (t + 1) % AccMpcRun::kSolves;
  }
  state.SetLabel("acc, warm re-solves");
}
BENCHMARK(BM_TubeMpcWarmSolve);

void BM_TubeMpcSeedRestart(benchmark::State& state) {
  const AccMpcRun& run = AccMpcRun::get();
  control::TubeMpc mpc = run.plant->rmpc();
  benchmark::DoNotOptimize(mpc.control(run.states[0]));  // builds the seed
  std::size_t t = 0;
  for (auto _ : state) {
    mpc.reset_solver();
    benchmark::DoNotOptimize(mpc.control(run.states[t]));
    t = (t + 1) % AccMpcRun::kSolves;
  }
  state.SetLabel("acc, seed restart per solve");
}
BENCHMARK(BM_TubeMpcSeedRestart);

// One campaign episode's share of kappa: a seed restart followed by warm
// re-solves of the whole 100-state sequence.  The two cases above repeat
// one kind of solve on a cache the previous iteration left warm; this one
// runs the restart-then-warm mix an episode pays, so the warm pivots start
// on the freshly copied seed tableau.
void BM_TubeMpcEpisode(benchmark::State& state) {
  const AccMpcRun& run = AccMpcRun::get();
  control::TubeMpc mpc = run.plant->rmpc();
  benchmark::DoNotOptimize(mpc.control(run.states[0]));  // builds the seed
  for (auto _ : state) {
    mpc.reset_solver();
    for (const Vector& x : run.states) benchmark::DoNotOptimize(mpc.control(x));
  }
  state.SetLabel("acc, seed restart + 100 solves");
}
BENCHMARK(BM_TubeMpcEpisode);

// The same episode on five controller copies in turn, as an mc campaign's
// per-plant engines run it (the always-run baseline plus four policies,
// each with its own TubeMpc): every copy pays its seed restart and warm
// re-solves on a cache the other four have just used.  BM_TubeMpcEpisode
// keeps one copy hot and hides that footprint effect.
void BM_TubeMpcEpisodeFiveCopies(benchmark::State& state) {
  const AccMpcRun& run = AccMpcRun::get();
  std::vector<control::TubeMpc> copies(5, run.plant->rmpc());
  for (control::TubeMpc& mpc : copies) {
    benchmark::DoNotOptimize(mpc.control(run.states[0]));  // builds the seed
  }
  for (auto _ : state) {
    for (control::TubeMpc& mpc : copies) {
      mpc.reset_solver();
      for (const Vector& x : run.states) benchmark::DoNotOptimize(mpc.control(x));
    }
  }
  state.SetLabel("acc, 5 copies x (seed restart + 100 solves)");
}
BENCHMARK(BM_TubeMpcEpisodeFiveCopies);

// Certificate cold start from the cache: one `cert::Store::get` hit (read
// and parse the `oic-cert v1` file) per iteration, per production plant.
// The plant's synthesis runs once, untimed, to fill a scratch store.
void BM_CertStoreLoad(benchmark::State& state) {
  namespace fs = std::filesystem;
  const eval::ScenarioRegistry& registry = eval::ScenarioRegistry::builtin();
  const std::vector<std::string> ids = registry.production_plant_ids();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= ids.size()) {
    state.SkipWithError("no such production plant");
    return;
  }
  const cert::PlantModel model = registry.make_model(ids[index]);
  const std::string name = "oic-bench-micro-certs-" + std::to_string(::getpid());
  const cert::Store store((fs::temp_directory_path() / name).string());
  cert::save_certificate_file(cert::synthesize(model), store.path_for(model));
  for (auto _ : state) benchmark::DoNotOptimize(store.get(model));
  fs::remove_all(store.dir());
  state.SetLabel(ids[index] + ", cache hit");
}
BENCHMARK(BM_CertStoreLoad)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
