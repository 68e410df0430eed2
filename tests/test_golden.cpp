// Golden-trace regression corpus: one short canonical episode per registry
// plant (x one fixed scenario), serialized at full precision into
// tests/golden/ and byte-compared on every run.
//
// What this catches that the parity tests cannot: test_engine and
// test_eval pin two *code paths* to each other, so a change that shifts
// both paths identically -- a solver tweak, a kernel reassociation, a
// sampling change -- sails through them.  The golden traces pin the
// absolute state/input/skip stream of the full Algorithm-1 loop to
// committed bytes, so any silent numeric drift anywhere in the stack
// (linalg, LP, tube MPC, monitor, profiles, Rng) fails loudly here.
//
// Regenerating (after an *intentional* stream change -- say the PR-5
// Rng::split derivation switch): run this binary with
// OIC_GOLDEN_REGEN=1 in the environment, inspect the diff, commit.  The
// corpus directory is injected at compile time (OIC_GOLDEN_DIR, set by
// CMake to <repo>/tests/golden).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "core/drl_policy.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "eval/engine.hpp"
#include "eval/harness.hpp"
#include "eval/policy_spec.hpp"
#include "eval/registry.hpp"
#include "rl/mlp.hpp"

namespace {

using oic::Rng;
using oic::eval::CaseData;
using oic::eval::EpisodeResult;
using oic::eval::ScenarioRegistry;

#ifndef OIC_GOLDEN_DIR
#error "OIC_GOLDEN_DIR must point at the committed corpus (set by CMakeLists.txt)"
#endif

constexpr std::uint64_t kSeed = 0x601dc0deull;
constexpr std::size_t kSteps = 40;

/// The canonical (plant, scenario) pairs.  One scenario per plant keeps
/// the corpus small; the scenario ids are the most structured ones so the
/// trace exercises skips and forced runs alike.
struct GoldenCase {
  const char* plant;
  const char* scenario;
};
constexpr GoldenCase kCases[] = {
    {"acc", "Fig.4"},
    {"lane-keep", "sine"},
    {"quad-alt", "sine"},
    {"toy2d", "sine"},
};

/// Render the full decision stream of one canonical episode: per step the
/// state entering the period, the actuated input, the skip choice and the
/// monitor's forced flag.  %.17g round-trips doubles exactly, so equal
/// strings == equal bit patterns.
std::string render_trace(const std::string& plant_id, const std::string& scenario_id) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const auto plant = registry.make_plant(plant_id);
  const auto scenario = registry.make_scenario(plant_id, scenario_id);

  Rng rng(kSeed);
  const CaseData data = oic::eval::make_case(*plant, scenario, rng, kSteps);

  oic::core::BangBangPolicy policy;
  oic::core::IntermittentController ic(plant->system(), plant->sets(), plant->rmpc(),
                                       policy,
                                       make_intermittent_config(*plant, policy));
  ic.reset();
  plant->rmpc().reset_solver();

  std::string out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    out += buf;
  };
  out += "oic-golden-trace v1\n";
  out += "plant " + plant_id + "\n";
  out += "scenario " + scenario_id + "\n";
  std::snprintf(buf, sizeof buf, "seed %llu steps %zu\n",
                static_cast<unsigned long long>(kSeed), kSteps);
  out += buf;
  const auto disturbance = [&](std::size_t t, oic::linalg::Vector& w) {
    plant->signal_to_w(data.signal[t], w);
  };
  const auto render_period = [&](const oic::core::Period& p) {
    const oic::sim::TraceStep step = oic::core::trace_step(p);
    std::snprintf(buf, sizeof buf, "t %zu z %d forced %d x", step.t, step.z,
                  step.forced ? 1 : 0);
    out += buf;
    for (std::size_t i = 0; i < step.x.size(); ++i) num(step.x[i]);
    out += " u";
    for (std::size_t i = 0; i < step.u.size(); ++i) num(step.u[i]);
    out += " w";
    num(step.disturbance);
    out += "\n";
  };
  const oic::core::RunResult rr = oic::core::run_closed_loop(
      plant->system(), ic, data.x0, kSteps, disturbance, render_period);
  std::snprintf(buf, sizeof buf, "left_x %d left_xi %d\n", rr.left_x ? 1 : 0,
                rr.left_xi ? 1 : 0);
  out += buf;
  out += "end\n";
  return out;
}

std::string golden_path(const std::string& plant_id) {
  // Scenario ids can contain '.' but stay filesystem-safe; plant ids are
  // already slug-like.
  return std::string(OIC_GOLDEN_DIR) + "/" + plant_id + ".trace";
}

TEST(GoldenTrace, EveryRegistryPlantReplaysByteExact) {
  const bool regen = std::getenv("OIC_GOLDEN_REGEN") != nullptr;
  for (const auto& gc : kCases) {
    SCOPED_TRACE(gc.plant);
    const std::string rendered = render_trace(gc.plant, gc.scenario);
    const std::string path = golden_path(gc.plant);
    if (regen) {
      std::ofstream os(path, std::ios::binary);
      ASSERT_TRUE(os) << "cannot write " << path;
      os << rendered;
      continue;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " (regenerate with OIC_GOLDEN_REGEN=1 and commit)";
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string committed = ss.str();
    // Byte compare; on mismatch report the first differing line, which
    // names the step where the streams diverged.
    if (committed != rendered) {
      std::istringstream a(committed), b(rendered);
      std::string la, lb;
      std::size_t line = 0;
      while (std::getline(a, la) && std::getline(b, lb)) {
        ++line;
        ASSERT_EQ(la, lb) << gc.plant << ": first divergence at line " << line
                          << " of " << path;
      }
      FAIL() << gc.plant << ": golden trace length changed (" << path << ")";
    }
  }
}

TEST(GoldenTrace, CoversTheWholeRegistry) {
  // A new production plant must come with a golden trace: this fails
  // until kCases (and the corpus) grow with it.  Test-only plants (the
  // rare1d analytic bed) have no harness episode to trace and are
  // pinned by their own closed-form tests instead.
  const auto ids = ScenarioRegistry::builtin().production_plant_ids();
  ASSERT_EQ(ids.size(), std::size(kCases));
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], kCases[i].plant);
}

// Episode golden: every EpisodeResult field of a small paired grid (each
// production plant x {fault-free, lossy, fresh-lossy} x {bang-bang,
// periodic-5, burst:4, w-trend}, 4 cases x 100 steps), hashed with FNV-1a
// over exact bit patterns.  The lossy preset delays every measurement, so
// its monitor never sees a fresh one; fresh-lossy drops packets without a
// delay, which keeps the faulted loop's fresh branch (Omega consulted, the
// disturbance history rebuilt from measurements) in the pin.  run_episode
// (the plant's RMPC driven in place, a fresh controller per episode) and a
// reused EpisodeEngine must both reproduce the same pinned constant; the
// engine's observer additionally pins every successor state x_{t+1}.  On
// an intentional stream change, rerun and copy the reported values in.
constexpr std::uint64_t kEpisodeResultsHash = 0xff5ec906c21ede70ull;
constexpr std::uint64_t kEpisodeStatesHash = 0x7436d7f183868f7cull;
constexpr std::size_t kEpisodeCases = 4;
constexpr std::size_t kEpisodeSteps = 100;

/// Skips while the newest observed disturbance is no larger than the one
/// before it.  Its decisions read the disturbance history the loop feeds
/// through record_transition, which the registry policies never consult,
/// so the pin also covers what that history is built from on the
/// fault-free and the faulted path.
class DisturbanceTrendPolicy final : public oic::core::SkipPolicy {
 public:
  int decide(const oic::linalg::Vector&, const oic::core::WHistory& w) override {
    if (w.size() < 2) return 1;
    return w[w.size() - 1].norm2() <= w[w.size() - 2].norm2() ? 0 : 1;
  }
  std::string name() const override { return "w-trend"; }
};

std::unique_ptr<oic::core::SkipPolicy> make_episode_policy(const std::string& spec) {
  if (spec == "w-trend") return std::make_unique<DisturbanceTrendPolicy>();
  return oic::eval::make_policy(spec);
}

void hash_result(oic::Fnv1a& h, const EpisodeResult& r) {
  h.f64(r.fuel);
  h.f64(r.energy);
  h.u64(r.skipped);
  h.u64(r.forced);
  h.u64(r.steps);
  h.u64(r.left_x ? 1 : 0);
  h.u64(r.left_xi ? 1 : 0);
  h.u64(r.degraded_steps);
  h.u64(r.stale_forced);
  h.u64(r.policy_unavail);
  h.u64(r.meas_dropped);
  h.u64(r.act_dropped);
}

TEST(EpisodeGolden, HarnessAndEngineReplayThePinnedStreams) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const oic::fault::FaultSpec fault_modes[] = {
      oic::fault::FaultSpec{}, registry.resolve_faults("lossy"),
      oic::fault::FaultSpec::parse("meas_drop:0.1,act_drop:0.05,hold,policy_drop:0.05")};
  ASSERT_TRUE(fault_modes[1].active());
  oic::Fnv1a harness, engine, states;
  std::size_t skipped = 0, degraded = 0;
  for (const auto& gc : kCases) {
    const auto plant = registry.make_plant(gc.plant);
    const auto scenario = registry.make_scenario(gc.plant, gc.scenario);
    for (const auto& faults : fault_modes) {
      for (const char* spec : {"bang-bang", "periodic-5", "burst:4", "w-trend"}) {
        SCOPED_TRACE(std::string(gc.plant) + " " + spec);
        const auto harness_policy = make_episode_policy(spec);
        const auto engine_policy = make_episode_policy(spec);
        oic::eval::EpisodeEngine eng(*plant, *engine_policy, faults);
        eng.set_observer([&](std::size_t t, const oic::linalg::Vector& x_next) {
          states.u64(t);
          for (std::size_t i = 0; i < x_next.size(); ++i) states.f64(x_next[i]);
        });
        Rng rng(kSeed);
        for (std::size_t c = 0; c < kEpisodeCases; ++c) {
          const CaseData data = oic::eval::make_case(*plant, scenario, rng, kEpisodeSteps,
                                                     faults.active());
          hash_result(harness,
                      oic::eval::run_episode(*plant, *harness_policy, data, faults));
          const EpisodeResult r = eng.run(data);
          hash_result(engine, r);
          skipped += r.skipped;
          degraded += r.degraded_steps;
        }
      }
    }
  }
  // The grid must exercise skips and degraded periods, or the pin is vacuous.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(harness.value(), kEpisodeResultsHash)
      << "run_episode results hash 0x" << std::hex << harness.value();
  EXPECT_EQ(engine.value(), kEpisodeResultsHash)
      << "EpisodeEngine results hash 0x" << std::hex << engine.value();
  EXPECT_EQ(states.value(), kEpisodeStatesHash)
      << "EpisodeEngine successor-state hash 0x" << std::hex << states.value();
}

// Stale-input override golden: the degraded monitor's robust check of a
// stale period (IntermittentController::robustify_stale_input) replaces
// the planned input by the hypothesis-robust contraction-LP input only
// when an actuation-drop counterfactual would leave XI.  The episode
// golden above never reaches that branch; this grid does -- every
// production plant x its full scenario catalogue x {lossy, a hold-receiver
// mode with heavy actuation drops} under bang-bang, 3 cases x 40 steps --
// and pins every EpisodeResult field and every successor state.  On an
// intentional stream change, rerun and copy the reported values in.
constexpr std::uint64_t kOverrideResultsHash = 0x94e580493dab8452ull;
constexpr std::uint64_t kOverrideStatesHash = 0xd9043f80080da4c4ull;

TEST(EpisodeGolden, FaultedCataloguePinsTheStaleInputOverride) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const oic::fault::FaultSpec fault_modes[] = {
      registry.resolve_faults("lossy"),
      oic::fault::FaultSpec::parse("meas_drop:0.2,act_drop:0.1,hold")};
  oic::Fnv1a results, states;
  std::size_t degraded = 0, stale_forced = 0;
  for (const std::string& plant_id : registry.production_plant_ids()) {
    const auto plant = registry.make_plant(plant_id);
    for (const std::string& scenario_id : registry.plant(plant_id).scenario_ids) {
      const auto scenario = registry.make_scenario(plant_id, scenario_id);
      for (const auto& faults : fault_modes) {
        SCOPED_TRACE(plant_id + " " + scenario_id);
        oic::core::BangBangPolicy policy;
        oic::eval::EpisodeEngine eng(*plant, policy, faults);
        eng.set_observer([&](std::size_t t, const oic::linalg::Vector& x_next) {
          states.u64(t);
          for (std::size_t i = 0; i < x_next.size(); ++i) states.f64(x_next[i]);
        });
        Rng rng(kSeed);
        for (std::size_t c = 0; c < 3; ++c) {
          const CaseData data = oic::eval::make_case(*plant, scenario, rng, kSteps,
                                                     /*with_fault_stream=*/true);
          const EpisodeResult r = eng.run(data);
          hash_result(results, r);
          degraded += r.degraded_steps;
          stale_forced += r.stale_forced;
        }
      }
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(stale_forced, 0u);
  EXPECT_EQ(results.value(), kOverrideResultsHash)
      << "faulted catalogue results hash 0x" << std::hex << results.value();
  EXPECT_EQ(states.value(), kOverrideStatesHash)
      << "faulted catalogue successor-state hash 0x" << std::hex << states.value();
}

// DRL episode golden: every production plant x its canonical scenario x
// {fault-free, fresh-lossy with policy drops} under a DrlPolicy built from
// a fixed-seed network (DrlPolicy::from_network, memory 1, the plant's
// state normalization), 4 cases x 100 steps through a reused
// EpisodeEngine.  The episode golden above has no learned policy in it;
// this one pins the Omega consult that builds a DQN state row from the
// disturbance history.  Same hashing as above; on an intentional stream
// change, rerun and copy the reported values in.
constexpr std::uint64_t kDrlResultsHash = 0x3725c32cc9e7f654ull;
constexpr std::uint64_t kDrlStatesHash = 0x33bf6b70266f9d73ull;

TEST(EpisodeGolden, DrlPolicyStreamIsPinned) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const oic::fault::FaultSpec fault_modes[] = {
      oic::fault::FaultSpec{},
      oic::fault::FaultSpec::parse("meas_drop:0.1,act_drop:0.05,hold,policy_drop:0.05")};
  oic::Fnv1a results, states;
  std::size_t skipped = 0, policy_runs = 0;
  for (const auto& gc : kCases) {
    const auto plant = registry.make_plant(gc.plant);
    const auto scenario = registry.make_scenario(gc.plant, gc.scenario);
    const oic::control::AffineLTI& sys = plant->system();
    Rng net_rng(kSeed);
    const std::size_t state_dim = oic::core::drl_state_dim(sys.nx(), sys.nx(), 1);
    const auto policy = oic::core::DrlPolicy::from_network(
        std::make_shared<oic::rl::Mlp>(std::vector<std::size_t>{state_dim, 16, 2},
                                       net_rng),
        1, sys.nx(), oic::core::drl_state_scale(sys, 1));
    for (const auto& faults : fault_modes) {
      SCOPED_TRACE(gc.plant);
      oic::eval::EpisodeEngine eng(*plant, *policy, faults);
      eng.set_observer([&](std::size_t t, const oic::linalg::Vector& x_next) {
        states.u64(t);
        for (std::size_t i = 0; i < x_next.size(); ++i) states.f64(x_next[i]);
      });
      Rng rng(kSeed);
      for (std::size_t c = 0; c < kEpisodeCases; ++c) {
        const CaseData data = oic::eval::make_case(*plant, scenario, rng, kEpisodeSteps,
                                                   faults.active());
        const EpisodeResult r = eng.run(data);
        hash_result(results, r);
        skipped += r.skipped;
        policy_runs += r.steps - r.skipped - r.forced;
      }
    }
  }
  // The network must both skip and run inside X', or the pin is vacuous.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(policy_runs, 0u);
  EXPECT_EQ(results.value(), kDrlResultsHash)
      << "DRL episode results hash 0x" << std::hex << results.value();
  EXPECT_EQ(states.value(), kDrlStatesHash)
      << "DRL successor-state hash 0x" << std::hex << states.value();
}

}  // namespace
