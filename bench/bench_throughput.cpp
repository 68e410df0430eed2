/// \file bench_throughput.cpp
/// Episode-throughput benchmark: the Fig-4-style policy-comparison sweep
/// (paired fuel savings of skipping policies vs the always-run baseline)
/// timed two ways:
///
///   engine-serial   -- EpisodeEngine contexts (hoisted construction,
///                      prepared LP, warm-started dual simplex), 1 worker;
///   engine-parallel -- the same sharded over a thread pool.
///
/// Reports episodes/sec and per-step latency, checks that the parallel
/// sweep is bit-identical to the serial one, and writes machine-readable
/// BENCH_throughput.json for the performance trajectory.
///
/// Flags: --cases=N (default 24), --steps=N (default 100), --workers=N
/// (default hardware), --json=PATH (default ./BENCH_throughput.json).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "bench_kernels.hpp"
#include "bench_util.hpp"
#include "cert/io.hpp"
#include "cert/store.hpp"
#include "common/buildinfo.hpp"
#include "common/jsonout.hpp"
#include "common/stats.hpp"
#include "core/policy.hpp"
#include "eval/engine.hpp"
#include "eval/harness.hpp"
#include "eval/registry.hpp"
#include "mc/campaign.hpp"
#include "rl/dqn.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Timing {
  double wall_s = 0.0;
  std::size_t episodes = 0;
  std::size_t steps = 0;
  double episodes_per_s() const { return episodes / wall_s; }
  double step_ns() const { return 1e9 * wall_s / static_cast<double>(steps); }
};

void print_timing(const char* label, const Timing& t) {
  std::printf("%-16s : %8.2f s wall  |  %8.1f episodes/s  |  %9.0f ns/step\n", label,
              t.wall_s, t.episodes_per_s(), t.step_ns());
}

const char* json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "BENCH_throughput.json";
}

/// DQN minibatch-update micro-bench: the identical training stream (same
/// seeds, same transitions) through the per-sample and the batched
/// forward/backward paths.  The batched path must be bit-identical -- the
/// reported max |weight delta| is expected to be exactly 0 -- and faster
/// (it replaces three allocating forwards plus a freshly allocated
/// Gradients per transition with fused batched GEMM over reused buffers).
struct TrainBenchResult {
  double per_sample_us = 0.0;  ///< mean us per observe() once learning runs
  double batched_us = 0.0;
  double speedup = 0.0;
  double max_weight_delta = 0.0;
};

TrainBenchResult bench_train_minibatch(std::size_t updates) {
  using oic::Rng;
  using oic::linalg::Vector;

  oic::rl::DqnConfig cfg;
  cfg.hidden = {64, 64};
  cfg.min_replay = 128;
  cfg.batch_size = 32;
  const std::size_t state_dim = 8;  // a 2-state plant with memory r = 3
  const std::size_t warmup = cfg.min_replay;

  const auto run = [&](bool batched, double& mean_us) {
    oic::rl::DqnConfig c = cfg;
    c.batched = batched;
    oic::rl::DoubleDqn agent(state_dim, 2, c, Rng(20200607));
    Rng env(99);
    Vector s(state_dim);
    // Feed identical synthetic transitions; time only the learning phase.
    const auto feed = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t k = 0; k < state_dim; ++k) s[k] = env.uniform(-1.0, 1.0);
        const int a = agent.select_action(s);
        oic::rl::Transition t;
        t.state = s;
        t.action = a;
        t.reward = env.uniform(-1.0, 1.0);
        t.next_state = s;
        t.terminal = false;
        agent.observe(std::move(t));
      }
    };
    feed(warmup);
    const auto t0 = Clock::now();
    feed(updates);
    mean_us = 1e6 * seconds_since(t0) / static_cast<double>(updates);
    return agent;
  };

  TrainBenchResult out;
  const auto per_sample = run(false, out.per_sample_us);
  const auto batched = run(true, out.batched_us);
  out.speedup = out.per_sample_us / out.batched_us;
  for (std::size_t l = 0; l < per_sample.online().num_layers(); ++l) {
    const auto& wa = per_sample.online().weight(l);
    const auto& wb = batched.online().weight(l);
    for (std::size_t i = 0; i < wa.rows(); ++i) {
      for (std::size_t j = 0; j < wa.cols(); ++j) {
        out.max_weight_delta =
            std::max(out.max_weight_delta, std::abs(wa(i, j) - wb(i, j)));
      }
    }
    const auto& ba = per_sample.online().bias(l);
    const auto& bb = batched.online().bias(l);
    for (std::size_t i = 0; i < ba.size(); ++i) {
      out.max_weight_delta = std::max(out.max_weight_delta, std::abs(ba[i] - bb[i]));
    }
  }
  return out;
}

/// Certificate cold-start bench: fresh offline synthesis (the LP-bound
/// path every process start used to pay per plant) vs loading the cached
/// `oic-cert v1` file (the --cert-dir path).  The loaded certificate must
/// be bit-identical to fresh synthesis -- that is the golden-load contract
/// the eval/train layers rely on for reproducibility.
struct CertBenchResult {
  std::size_t plants = 0;
  double synth_ms = 0.0;  ///< total fresh-synthesis time over all plants
  double load_ms = 0.0;   ///< total cache-load time over all plants
  double speedup = 0.0;
  bool bit_identical = true;
};

CertBenchResult bench_cert_cold_start() {
  namespace fs = std::filesystem;
  const auto& registry = oic::eval::ScenarioRegistry::builtin();
  // Scratch store under the system temp dir, suffixed per process: the
  // bench may run from the build dir or the repo root and must not litter
  // either, and concurrent / multi-user runs must not collide on a shared
  // path.
  const std::string dir =
      (fs::temp_directory_path() /
       ("oic-bench-cert-cache-" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);  // measure a true cold cache
  const oic::cert::Store store(dir);

  CertBenchResult out;
  for (const auto& pid : registry.production_plant_ids()) {
    const oic::cert::PlantModel model = registry.make_model(pid);
    auto t0 = Clock::now();
    const oic::cert::PlantCertificate fresh = oic::cert::synthesize(model);
    out.synth_ms += 1e3 * seconds_since(t0);
    oic::cert::save_certificate_file(fresh, store.path_for(model));

    t0 = Clock::now();
    const oic::cert::PlantCertificate loaded = store.get(model);  // cache hit
    out.load_ms += 1e3 * seconds_since(t0);

    out.bit_identical = out.bit_identical && oic::cert::bit_equal(fresh, loaded);
    ++out.plants;
  }
  fs::remove_all(dir, ec);
  out.speedup = out.synth_ms / out.load_ms;
  return out;
}

/// Monte-Carlo campaign bench: randomized-scenario episode throughput
/// through the blocked streaming engine (src/mc), serial vs sharded, with
/// the worker-count bit-identity contract checked on the full statistics.
struct McBenchResult {
  std::uint64_t episodes = 0;  ///< episode runs per campaign (incl. baseline)
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double parallel_episodes_per_s = 0.0;
  double step_ns = 0.0;
  bool bit_identical = true;
  bool violations = false;
};

McBenchResult bench_mc_campaign(std::uint64_t episodes, std::size_t steps,
                                std::size_t workers) {
  oic::mc::CampaignSpec spec;
  spec.plants = {"toy2d"};
  spec.families = {"mixed"};
  spec.policies = {"bang-bang", "periodic-5"};
  spec.episodes = episodes;
  spec.steps = steps;
  spec.seed = 20200406;
  spec.block = 64;

  const auto& registry = oic::eval::ScenarioRegistry::builtin();
  McBenchResult out;

  spec.workers = 1;
  auto t0 = Clock::now();
  const auto serial = oic::mc::run_campaign(registry, spec);
  out.serial_s = seconds_since(t0);

  spec.workers = workers;
  t0 = Clock::now();
  const auto parallel = oic::mc::run_campaign(registry, spec);
  out.parallel_s = seconds_since(t0);

  out.episodes = parallel.episodes;
  out.parallel_episodes_per_s = parallel.episodes_per_s();
  out.step_ns = parallel.step_ns();
  out.violations = serial.safety_violations || parallel.safety_violations;

  const auto same = [](const oic::mc::PolicyStats& a, const oic::mc::PolicyStats& b) {
    const auto welford_eq = [](const oic::Welford& x, const oic::Welford& y) {
      return x.count() == y.count() && x.mean() == y.mean() && x.m2() == y.m2() &&
             (x.count() == 0 || (x.min() == y.min() && x.max() == y.max()));
    };
    return a.violations == b.violations && a.episodes == b.episodes &&
           welford_eq(a.saving, b.saving) && welford_eq(a.cost, b.cost) &&
           welford_eq(a.skipped, b.skipped);
  };
  out.bit_identical = serial.cells.size() == parallel.cells.size();
  for (std::size_t c = 0; out.bit_identical && c < serial.cells.size(); ++c) {
    const auto& sa = serial.cells[c];
    const auto& pa = parallel.cells[c];
    out.bit_identical = same(sa.baseline, pa.baseline) &&
                        sa.policies.size() == pa.policies.size();
    for (std::size_t p = 0; out.bit_identical && p < sa.policies.size(); ++p) {
      out.bit_identical = same(sa.policies[p], pa.policies[p]);
    }
  }
  return out;
}

/// Serve-layer bench: the multi-session monitor service under
/// scenario-family traffic (src/serve).  Loadgen clients replay
/// mc::ScenarioFamily disturbances against a loopback-socket Server at
/// 10k+ concurrent sessions -- the measured path includes the real wire
/// (serialize, TCP, parse) -- with the tick sharded across two workers and
/// half the fleet running certified burst:<k> sessions.  Reported are
/// decision-latency percentiles (split into submit->enqueue and
/// enqueue->response components) and the sustained session rate.  The
/// batched decision path must be bit-identical to the per-session
/// IntermittentController path including its burst branch
/// (check_batched_parity compares z/forced/input/state bitwise).
struct ServeBenchResult {
  std::size_t sessions = 0;
  std::size_t steps = 0;
  std::size_t clients = 0;
  std::string transport;
  std::size_t tick_workers = 0;
  std::size_t pipeline_window = 0;
  std::size_t burst_sessions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t errors = 0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double submit_p50_ms = 0.0;
  double submit_p99_ms = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  std::vector<oic::serve::TickLatency> tick_latency;
  double decisions_per_s = 0.0;
  double sessions_per_s = 0.0;
  bool bit_identical = true;
  std::size_t parity_decisions = 0;
  std::string parity_detail;
};

ServeBenchResult bench_serve(std::size_t sessions, std::size_t steps,
                             std::size_t workers, std::uint64_t seed) {
  const auto& registry = oic::eval::ScenarioRegistry::builtin();
  ServeBenchResult out;

  oic::serve::ServiceConfig cfg;
  cfg.workers = workers;
  // Two tick shards: the bang-bang/burst policy mix below forms two
  // (plant, cert, policy) groups, so each fused pass genuinely splits.
  cfg.tick_workers = 2;
  oic::serve::LoadgenConfig lg;
  lg.plants = {"toy2d"};
  lg.policy = "bang-bang,burst:32";
  lg.transport = "socket";
  lg.sessions = sessions;
  lg.steps = steps;
  // Two clients in lock-step (window 1): on a shared-core box more client
  // threads or deeper pipelining only add queueing delay to the measured
  // round trip without raising the decision rate.
  lg.clients = 2;
  lg.pipeline_window = 1;
  lg.max_batch = 512;
  lg.seed = seed;
  {
    oic::serve::Server server(registry, cfg);
    const oic::serve::LoadgenResult res =
        oic::serve::run_loadgen(server, registry, lg);
    server.shutdown();
    out.sessions = res.sessions;
    out.steps = res.steps;
    out.clients = lg.clients;
    out.transport = lg.transport;
    out.tick_workers = cfg.tick_workers;
    out.pipeline_window = lg.pipeline_window;
    out.burst_sessions = res.burst_sessions;
    out.decisions = res.decisions;
    out.errors = res.errors;
    out.wall_s = res.wall_s;
    out.p50_ms = res.p50_ms;
    out.p99_ms = res.p99_ms;
    out.submit_p50_ms = res.submit_p50_ms;
    out.submit_p99_ms = res.submit_p99_ms;
    out.wait_p50_ms = res.wait_p50_ms;
    out.wait_p99_ms = res.wait_p99_ms;
    out.tick_latency = res.tick_latency;
    out.decisions_per_s = res.decisions_per_s;
    out.sessions_per_s = res.sessions_per_s;
  }

  // Small but adversarial parity census: interleaved sessions, policies
  // round-robin across the monitor-only, periodic, certified-burst, and
  // forced regimes.
  const oic::serve::ParityReport parity = oic::serve::check_batched_parity(
      registry, "toy2d", {"bang-bang", "periodic-3", "burst:4"}, 8, 40, seed);
  out.bit_identical = parity.identical;
  out.parity_decisions = parity.decisions;
  out.parity_detail = parity.detail;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oic;
  // Unparsable flag values come back as 0; a zero-case or zero-step sweep is
  // meaningless, so clamp rather than crash deep in the harness.
  const std::size_t cases =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "cases", 24));
  const std::size_t steps =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "steps", 100));
  const std::size_t workers = benchutil::flag(
      argc, argv, "workers",
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  const std::uint64_t seed = 20200406;

  std::printf("=== Episode throughput: policy-comparison sweep ===\n");
  std::printf("cases=%zu, steps/case=%zu, workers=%zu, policies=bang-bang+periodic-5\n\n",
              cases, steps, workers);

  // Per-sweep episode count: always-run baseline + 2 policies per case.
  const std::size_t episodes_per_sweep = cases * 3;
  const std::size_t steps_per_sweep = episodes_per_sweep * steps;

  // ---- Engine paths ----
  std::printf("[setup] building engine AccCase (prepared LP + warm start)...\n");
  acc::AccCase acc_fast;
  const acc::Scenario scen = acc::fig4_scenario(acc_fast.params());
  const eval::PolicySetFactory factory = [] {
    std::vector<std::unique_ptr<core::SkipPolicy>> ps;
    ps.push_back(std::make_unique<core::BangBangPolicy>());
    ps.push_back(std::make_unique<core::PeriodicPolicy>(5));
    return ps;
  };

  eval::SweepConfig sweep;
  sweep.cases = cases;
  sweep.steps = steps;
  sweep.seed = seed;

  sweep.workers = 1;
  auto t0 = Clock::now();
  const auto cmp_serial = eval::compare_policies_parallel(acc_fast, scen, factory, sweep);
  Timing serial{seconds_since(t0), episodes_per_sweep, steps_per_sweep};
  print_timing("engine-serial", serial);

  sweep.workers = workers;
  t0 = Clock::now();
  const auto cmp_parallel =
      eval::compare_policies_parallel(acc_fast, scen, factory, sweep);
  Timing parallel{seconds_since(t0), episodes_per_sweep, steps_per_sweep};
  print_timing("engine-parallel", parallel);

  // ---- Parallel == serial, bit for bit ----
  bool identical = cmp_serial.savings.size() == cmp_parallel.savings.size();
  for (std::size_t p = 0; identical && p < cmp_serial.savings.size(); ++p) {
    identical = cmp_serial.savings[p] == cmp_parallel.savings[p] &&
                cmp_serial.mean_skipped[p] == cmp_parallel.mean_skipped[p];
  }

  benchutil::rule('=');
  std::printf("parallel bit-identical to serial: %s  (%zu workers)\n",
              identical ? "yes" : "NO (BUG!)", workers);
  for (std::size_t p = 0; p < cmp_serial.policy_names.size(); ++p) {
    std::printf("  %-12s mean saving %6.2f %%, mean skipped %5.1f\n",
                cmp_serial.policy_names[p].c_str(), 100.0 * mean(cmp_serial.savings[p]),
                cmp_serial.mean_skipped[p]);
  }
  bool violation = false;
  for (bool v : cmp_serial.any_violation) violation = violation || v;
  std::printf("safety violations: %s (Theorem 1: must be none)\n\n",
              violation ? "YES (BUG!)" : "none");

  // ---- DQN minibatch path: per-sample vs batched ----
  // Clamp like cases/steps above: zero updates would divide by zero and
  // leak inf/nan into the JSON.
  const std::size_t train_updates =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "train-updates", 600));
  std::printf("=== DQN minibatch update: per-sample vs batched ===\n");
  const TrainBenchResult train = bench_train_minibatch(train_updates);
  std::printf("per-sample : %8.1f us/update\n", train.per_sample_us);
  std::printf("batched    : %8.1f us/update   (%0.2fx speedup)\n", train.batched_us,
              train.speedup);
  std::printf("max |weight delta| batched vs per-sample: %.3e (must be 0)\n\n",
              train.max_weight_delta);
  const bool train_identical = train.max_weight_delta == 0.0;

  // ---- Certificate cold start: offline synthesis vs cache load ----
  std::printf("=== Certificate cold start: synthesize vs load (all plants) ===\n");
  const CertBenchResult cert = bench_cert_cold_start();
  std::printf("synthesize : %8.1f ms total (%zu plants)\n", cert.synth_ms, cert.plants);
  std::printf("cache load : %8.2f ms total   (%0.0fx speedup)\n", cert.load_ms,
              cert.speedup);
  std::printf("loaded certificates bit-identical to synthesis: %s\n\n",
              cert.bit_identical ? "yes" : "NO (BUG!)");

  // ---- Monte-Carlo campaign: randomized-scenario throughput ----
  const std::uint64_t mc_episodes =
      std::max<std::uint64_t>(1, benchutil::flag(argc, argv, "mc-episodes", 200));
  std::printf("=== MC campaign: randomized scenarios, streaming stats ===\n");
  const McBenchResult mc = bench_mc_campaign(mc_episodes, steps, workers);
  std::printf("serial     : %8.2f s   |   parallel: %8.2f s (%zu workers)\n",
              mc.serial_s, mc.parallel_s, workers);
  std::printf("throughput : %8.1f episodes/s  |  %9.0f ns/step (parallel)\n",
              mc.parallel_episodes_per_s, mc.step_ns);
  std::printf("stats bit-identical across worker counts: %s\n",
              mc.bit_identical ? "yes" : "NO (BUG!)");
  std::printf("campaign safety violations: %s\n\n",
              mc.violations ? "YES (BUG!)" : "none");

  // ---- Serve layer: multi-session monitor service ----
  const std::size_t serve_sessions =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "serve-sessions", 10000));
  const std::size_t serve_steps =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "serve-steps", 200));
  std::printf("=== Serve: batched monitor service, %zu concurrent sessions ===\n",
              serve_sessions);
  const ServeBenchResult srv = bench_serve(serve_sessions, serve_steps, workers, seed);
  std::printf("loadgen    : %zu sessions x %zu steps, %zu clients, %.2f s wall\n",
              srv.sessions, srv.steps, srv.clients, srv.wall_s);
  std::printf("transport  : %s  |  tick workers %zu  |  window %zu  |  "
              "%zu burst sessions\n",
              srv.transport.c_str(), srv.tick_workers, srv.pipeline_window,
              srv.burst_sessions);
  std::printf("latency    : p50 %8.3f ms  |  p99 %8.3f ms (submit -> await; "
              "submit p50 %.3f ms, wait p50 %.3f ms)\n",
              srv.p50_ms, srv.p99_ms, srv.submit_p50_ms, srv.wait_p50_ms);
  // The per-tick table is dominated by the startup transient; past it the
  // rows repeat, so stdout shows the head and the JSON carries the rest.
  const std::size_t tick_rows = std::min<std::size_t>(srv.tick_latency.size(), 12);
  for (std::size_t i = 0; i < tick_rows; ++i) {
    const auto& tl = srv.tick_latency[i];
    std::printf("  tick %2zu  : p50 %8.3f ms  |  p99 %8.3f ms  |  max %8.3f ms "
                "(%zu round trips)\n",
                tl.tick, tl.p50_ms, tl.p99_ms, tl.max_ms, tl.samples);
  }
  if (tick_rows < srv.tick_latency.size()) {
    std::printf("  ... %zu more ticks in the JSON\n",
                srv.tick_latency.size() - tick_rows);
  }
  std::printf("throughput : %8.0f decisions/s  |  %8.0f sessions/s sustained\n",
              srv.decisions_per_s, srv.sessions_per_s);
  std::printf("batched decisions bit-identical to per-session path: %s "
              "(%zu decision pairs)\n",
              srv.bit_identical ? "yes" : "NO (BUG!)", srv.parity_decisions);
  if (!srv.bit_identical) {
    std::printf("  first divergence: %s\n", srv.parity_detail.c_str());
  }
  std::printf("loadgen errors: %llu (must be 0)\n\n",
              static_cast<unsigned long long>(srv.errors));

  // ---- Kernel microbench: per-ISA dispatch table ----
  // A short budget keeps the smoke run fast; the standalone bench_kernels
  // binary takes --budget-ms for the committed reference numbers.
  const std::size_t kernel_budget_ms =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "kernel-budget-ms", 10));
  std::printf("=== Kernels: per-ISA dispatch table (budget %zu ms) ===\n",
              kernel_budget_ms);
  const std::vector<benchkernels::KernelStat> kernels =
      benchkernels::run(static_cast<double>(kernel_budget_ms));
  benchkernels::print(kernels);
  std::printf("\n");

  // ---- JSON ----
  const char* json_path = json_flag(argc, argv);
  bool json_written = false;
  {
    using oic::jsonout::append_format;
    oic::jsonout::Doc doc("throughput");
    std::string& out = doc.body();
    append_format(out,
                  "  \"config\": {\"cases\": %zu, \"steps\": %zu, \"workers\": %zu, "
                  "\"policies\": [\"bang-bang\", \"periodic-5\"], \"seed\": %llu},\n",
                  cases, steps, workers, static_cast<unsigned long long>(seed));
    auto emit = [&](const char* k, const Timing& t) {
      append_format(out,
                    "  \"%s\": {\"wall_s\": %.6f, \"episodes\": %zu, "
                    "\"episodes_per_s\": %.3f, \"step_ns\": %.1f},\n",
                    k, t.wall_s, t.episodes, t.episodes_per_s(), t.step_ns());
    };
    emit("engine_serial", serial);
    emit("engine_parallel", parallel);
    append_format(out, "  \"parallel_bit_identical\": %s,\n",
                  identical ? "true" : "false");
    append_format(out,
                  "  \"train_minibatch\": {\"updates\": %zu, \"per_sample_us\": %.2f, "
                  "\"batched_us\": %.2f, \"speedup\": %.3f, "
                  "\"max_weight_delta\": %.3e, \"bit_identical\": %s},\n",
                  train_updates, train.per_sample_us, train.batched_us, train.speedup,
                  train.max_weight_delta, train_identical ? "true" : "false");
    append_format(out,
                  "  \"cert_cold_start\": {\"plants\": %zu, \"synth_ms\": %.2f, "
                  "\"load_ms\": %.3f, \"speedup\": %.1f, \"bit_identical\": %s},\n",
                  cert.plants, cert.synth_ms, cert.load_ms, cert.speedup,
                  cert.bit_identical ? "true" : "false");
    append_format(out,
                  "  \"mc_campaign\": {\"episodes\": %llu, \"serial_s\": %.3f, "
                  "\"parallel_s\": %.3f, \"episodes_per_s\": %.1f, "
                  "\"step_ns\": %.1f, \"bit_identical\": %s, \"violations\": %s},\n",
                  static_cast<unsigned long long>(mc.episodes), mc.serial_s,
                  mc.parallel_s, mc.parallel_episodes_per_s, mc.step_ns,
                  mc.bit_identical ? "true" : "false",
                  mc.violations ? "true" : "false");
    append_format(out,
                  "  \"bench_serve\": {\"sessions\": %zu, \"steps\": %zu, "
                  "\"clients\": %zu, \"transport\": \"%s\", \"tick_workers\": %zu, "
                  "\"pipeline_window\": %zu, \"burst_sessions\": %zu, "
                  "\"decisions\": %llu, \"wall_s\": %.3f, "
                  "\"p50_ms\": %.6f, \"p99_ms\": %.6f, "
                  "\"submit_p50_ms\": %.6f, \"submit_p99_ms\": %.6f, "
                  "\"wait_p50_ms\": %.6f, \"wait_p99_ms\": %.6f, "
                  "\"decisions_per_s\": %.1f, "
                  "\"sessions_per_s\": %.1f, \"bit_identical\": %s, "
                  "\"errors\": %llu},\n",
                  srv.sessions, srv.steps, srv.clients, srv.transport.c_str(),
                  srv.tick_workers, srv.pipeline_window, srv.burst_sessions,
                  static_cast<unsigned long long>(srv.decisions), srv.wall_s,
                  srv.p50_ms, srv.p99_ms, srv.submit_p50_ms, srv.submit_p99_ms,
                  srv.wait_p50_ms, srv.wait_p99_ms,
                  srv.decisions_per_s, srv.sessions_per_s,
                  srv.bit_identical ? "true" : "false",
                  static_cast<unsigned long long>(srv.errors));
    out += "  \"serve_tick_latency_ms\": [";
    for (std::size_t i = 0; i < srv.tick_latency.size(); ++i) {
      const auto& tl = srv.tick_latency[i];
      append_format(out,
                    "%s{\"tick\": %zu, \"samples\": %zu, \"p50\": %.6f, "
                    "\"p99\": %.6f, \"max\": %.6f, \"submit_p50\": %.6f, "
                    "\"submit_p99\": %.6f, \"wait_p50\": %.6f, \"wait_p99\": %.6f}",
                    i ? ", " : "", tl.tick, tl.samples, tl.p50_ms, tl.p99_ms,
                    tl.max_ms, tl.submit_p50_ms, tl.submit_p99_ms, tl.wait_p50_ms,
                    tl.wait_p99_ms);
    }
    out += "],\n";
    oic::benchkernels::append_json(out, kernels);
    const std::string body = std::move(doc).finish(violation);
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      json_written = true;
      std::printf("wrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "could not write %s\n", json_path);
    }
  }

  return (identical && train_identical && cert.bit_identical && mc.bit_identical &&
          srv.bit_identical && srv.errors == 0 && !mc.violations && !violation &&
          json_written)
             ? 0
             : 1;
}
