// Tests for the fault-injection layer (src/fault) and graceful monitor
// degradation: spec grammar round-trip and rejection, deterministic
// per-channel fault streams, faults-off bit-identity with the legacy
// paths, harness/engine bit-parity on the faulted path, conservative
// degradation under total blackout, and the lossy-preset safety sweep
// across every registry plant (zero hard safe-set violations).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cert/store.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "eval/engine.hpp"
#include "eval/harness.hpp"
#include "eval/registry.hpp"
#include "eval/sweep.hpp"
#include "fault/fault.hpp"

namespace {

using oic::Rng;
using oic::eval::CaseData;
using oic::eval::EpisodeResult;
using oic::eval::ScenarioRegistry;
using oic::fault::FaultSpec;
using oic::fault::Link;
using oic::fault::Measurement;

// Shared scratch certificate cache: each plant's synthesis LPs run once
// for the whole binary, later constructions are file-read-bound.
std::string cert_dir() {
  static const std::string dir = [] {
    auto d = std::filesystem::temp_directory_path() / "oic-test-fault-certs";
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d.string();
  }();
  return dir;
}

const oic::cert::Store& shared_store() {
  static const oic::cert::Store store(cert_dir());
  return store;
}

std::unique_ptr<oic::eval::PlantCase> build_plant(const std::string& id) {
  return ScenarioRegistry::builtin().make_plant(id, shared_store().provider());
}

// ------------------------------------------------------------------ spec

TEST(FaultSpec, ParsesTheGrammarAndCanonicalizes) {
  const FaultSpec off1 = FaultSpec::parse("");
  const FaultSpec off2 = FaultSpec::parse("off");
  EXPECT_FALSE(off1.active());
  EXPECT_FALSE(off2.active());
  EXPECT_EQ(off1.canonical(), "");

  const FaultSpec lossy =
      FaultSpec::parse("meas_drop:0.05,meas_delay:2,act_drop:0.02,hold");
  EXPECT_TRUE(lossy.active());
  EXPECT_DOUBLE_EQ(lossy.meas_drop, 0.05);
  EXPECT_EQ(lossy.meas_delay, 2u);
  EXPECT_DOUBLE_EQ(lossy.act_drop, 0.02);
  EXPECT_EQ(lossy.act_mode, oic::fault::ActDropMode::kHold);

  // canonical() is a fixed-point of parse(): re-parsing it reproduces the
  // same canonical string, and key order / spelling do not matter.
  const std::string canon = lossy.canonical();
  EXPECT_EQ(FaultSpec::parse(canon).canonical(), canon);
  const FaultSpec respelled =
      FaultSpec::parse("hold,act_drop:0.02,meas_delay:2,meas_drop:0.05");
  EXPECT_EQ(respelled.canonical(), canon);

  // Every key appears in the canonical form when set.
  const FaultSpec full = FaultSpec::parse(
      "meas_drop:0.1,meas_delay:1,meas_jitter:2,meas_spike:0.2,"
      "spike_gain:0.25,act_drop:0.3,zero,policy_drop:0.4");
  EXPECT_EQ(FaultSpec::parse(full.canonical()).canonical(), full.canonical());
  EXPECT_EQ(full.meas_jitter, 2u);
  EXPECT_DOUBLE_EQ(full.spike_gain, 0.25);
  EXPECT_DOUBLE_EQ(full.policy_drop, 0.4);
  EXPECT_EQ(full.act_mode, oic::fault::ActDropMode::kZero);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("meas_drop:1.5"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_drop:-0.1"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_drop:abc"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_drop:0.1x"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_drop"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("warp_drive:0.5"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_delay:65"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("meas_drop:0.1,meas_drop:0.2"),
               oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("hold,zero"), oic::PreconditionError);
  EXPECT_THROW(FaultSpec::parse("spike_gain:nan"), oic::PreconditionError);
  // The number grammar of every other text format: decimal only, no
  // leading blanks (strtod used to read these as 0.25, 0.5, 2 and 3).
  for (const char* spec : {"meas_drop:0x1p-2", "meas_drop: 0.5", "act_drop:+-0.5",
                           "spike_gain:0x1p1", "meas_spike:0.5,spike_gain: 2",
                           "meas_delay: 3", "meas_delay:0x3", "meas_delay:+3"}) {
    EXPECT_THROW(FaultSpec::parse(spec), oic::PreconditionError) << spec;
  }
}

TEST(FaultSpec, PresetsResolveThroughTheRegistry) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  EXPECT_FALSE(reg.fault_presets().empty());
  const FaultSpec lossy = reg.resolve_faults("lossy");
  EXPECT_TRUE(lossy.active());
  EXPECT_EQ(lossy.canonical(),
            FaultSpec::parse("meas_drop:0.05,meas_delay:2,act_drop:0.02,hold")
                .canonical());
  EXPECT_FALSE(reg.resolve_faults("").active());
  EXPECT_FALSE(reg.resolve_faults("off").active());
  // Unknown ids fall through to the grammar and reject loudly.
  EXPECT_THROW(reg.resolve_faults("no-such-preset"), oic::PreconditionError);
  // Every registered preset parses to an active spec.
  for (const auto& preset : reg.fault_presets()) {
    EXPECT_TRUE(reg.resolve_faults(preset.id).active()) << preset.id;
  }
}

// ------------------------------------------------------------------ link

TEST(Link, RealizationIsAPureFunctionOfSpecAndStream) {
  const FaultSpec spec =
      FaultSpec::parse("meas_drop:0.3,meas_delay:1,meas_jitter:2,act_drop:0.4");
  Link a(spec, 42), b(spec, 42);
  oic::linalg::Vector x(2), u(1);
  for (std::size_t t = 0; t < 100; ++t) {
    x[0] = static_cast<double>(t);
    x[1] = -0.5 * static_cast<double>(t);
    u[0] = 1.0;
    const Measurement& ma = a.sense_and_observe(t, x);
    const Measurement& mb = b.sense_and_observe(t, x);
    EXPECT_EQ(ma.available, mb.available) << t;
    if (ma.available && mb.available) {
      EXPECT_EQ(ma.age, mb.age) << t;
      EXPECT_EQ(ma.x[0], mb.x[0]) << t;
    }
    EXPECT_EQ(a.policy_available(t), b.policy_available(t)) << t;
    EXPECT_EQ(a.actuate(t, u)[0], b.actuate(t, u)[0]) << t;
  }
  EXPECT_EQ(a.meas_dropped(), b.meas_dropped());
  EXPECT_EQ(a.act_dropped(), b.act_dropped());
  EXPECT_GT(a.meas_dropped(), 0u);
  EXPECT_GT(a.act_dropped(), 0u);

  // A different stream realizes a different loss pattern (statistical).
  Link c(spec, 43);
  bool any_diff = false;
  for (std::size_t t = 0; t < 100; ++t) {
    x[0] = static_cast<double>(t);
    x[1] = 0.0;
    any_diff = any_diff ||
               c.sense_and_observe(t, x).available !=
                   a.sense_and_observe(t, x).available;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Link, ChannelsDrawFromIndependentSubstreams) {
  // Adding an actuation fault must not perturb the measurement channel's
  // realization: each channel derives its own substream.
  const FaultSpec meas_only = FaultSpec::parse("meas_drop:0.3");
  const FaultSpec both = FaultSpec::parse("meas_drop:0.3,act_drop:0.5,policy_drop:0.2");
  Link a(meas_only, 7), b(both, 7);
  oic::linalg::Vector x(1);
  for (std::size_t t = 0; t < 200; ++t) {
    x[0] = static_cast<double>(t);
    EXPECT_EQ(a.sense_and_observe(t, x).available,
              b.sense_and_observe(t, x).available)
        << t;
  }
  EXPECT_EQ(a.meas_dropped(), b.meas_dropped());
}

TEST(Link, HoldSemanticsReapplyTheLastDeliveredInput) {
  const FaultSpec spec = FaultSpec::parse("act_drop:0.5,hold");
  Link link(spec, 11);
  oic::linalg::Vector u(1);
  double last_delivered = 0.0;  // hold register starts at zero
  for (std::size_t t = 0; t < 200; ++t) {
    u[0] = static_cast<double>(t) + 1.0;
    const double applied = link.actuate(t, u)[0];
    if (applied == u[0]) {
      last_delivered = applied;  // delivered: register updates
    } else {
      EXPECT_EQ(applied, last_delivered) << t;  // dropped: hold re-applies
    }
  }
  EXPECT_GT(link.act_dropped(), 0u);
  EXPECT_LT(link.act_dropped(), 200u);
}

// ----------------------------------------------------- episode/engine

TEST(FaultedEpisode, InactiveSpecNeverDegrades) {
  // The fault-free episode streams themselves are pinned by the episode
  // golden in test_golden.
  auto plant = build_plant("toy2d");
  const auto scen = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  auto bb = oic::eval::make_policy("bang-bang");
  Rng rng(123);
  for (int c = 0; c < 3; ++c) {
    const CaseData data = oic::eval::make_case(*plant, scen, rng, 50);
    const EpisodeResult r = oic::eval::run_episode(*plant, *bb, data, FaultSpec{});
    EXPECT_EQ(r.degraded_steps, 0u);
    EXPECT_EQ(r.meas_dropped, 0u);
  }
}

TEST(FaultedEpisode, DegradesButNeverLeavesXUnderFaults) {
  auto plant = build_plant("toy2d");
  const auto scen = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  const FaultSpec spec = FaultSpec::parse(
      "meas_drop:0.15,meas_delay:1,meas_jitter:1,meas_spike:0.05,"
      "act_drop:0.1,hold,policy_drop:0.1");
  for (const char* pspec : {"bang-bang", "periodic-3", "burst:3"}) {
    auto policy = oic::eval::make_policy(pspec);
    oic::eval::EpisodeEngine engine(*plant, *policy, spec);
    Rng rng(321);
    bool any_degraded = false;
    for (int c = 0; c < 4; ++c) {
      const CaseData data = oic::eval::make_case(*plant, scen, rng, 60, true);
      const EpisodeResult r = engine.run(data);
      any_degraded = any_degraded || r.degraded_steps > 0;
      // Degraded-mode conservatism: even under faults the hard safe set
      // holds on this plant.
      EXPECT_FALSE(r.left_x) << pspec << " case " << c;
    }
    EXPECT_TRUE(any_degraded) << pspec;
  }
}

TEST(FaultedEpisode, TotalSensorBlackoutDegradesEveryStep) {
  auto plant = build_plant("toy2d");
  const auto scen = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  auto bb = oic::eval::make_policy("bang-bang");
  Rng rng(55);
  const CaseData data = oic::eval::make_case(*plant, scen, rng, 40, true);
  const EpisodeResult r =
      oic::eval::run_episode(*plant, *bb, data, FaultSpec::parse("meas_drop:1"));
  EXPECT_EQ(r.meas_dropped, r.steps);
  EXPECT_EQ(r.degraded_steps, r.steps);
  // No measurement ever arrives: every period is a stale-forced
  // conservative default (bang-bang never has a burst in flight).
  EXPECT_EQ(r.stale_forced, r.steps);
  EXPECT_EQ(r.skipped, 0u);
}

TEST(FaultedEpisode, PolicyOutageForcesTheConservativeDefault) {
  auto plant = build_plant("toy2d");
  const auto scen = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  auto periodic = oic::eval::make_policy("periodic-5");
  Rng rng(56);
  const CaseData data = oic::eval::make_case(*plant, scen, rng, 40, true);
  const EpisodeResult r = oic::eval::run_episode(*plant, *periodic, data,
                                                 FaultSpec::parse("policy_drop:1"));
  // Omega is never available; every fresh in-X' step substitutes z = 1.
  EXPECT_EQ(r.policy_unavail + r.stale_forced, r.degraded_steps);
  EXPECT_GT(r.policy_unavail, 0u);
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_FALSE(r.left_x);
}

// ------------------------------------------------------------- sweeps

TEST(FaultedSweep, ParallelComparisonIsWorkerCountInvariantUnderFaults) {
  auto plant = build_plant("toy2d");
  const auto scen = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  const auto factory = oic::eval::make_policy_factory({"bang-bang", "periodic-4"});

  oic::eval::SweepConfig cfg;
  cfg.cases = 6;
  cfg.steps = 40;
  cfg.seed = 999;
  cfg.faults = FaultSpec::parse("meas_drop:0.2,act_drop:0.1,hold");

  cfg.workers = 1;
  const auto serial = oic::eval::compare_policies_parallel(*plant, scen, factory, cfg);
  cfg.workers = 3;
  const auto sharded = oic::eval::compare_policies_parallel(*plant, scen, factory, cfg);

  ASSERT_EQ(serial.policy_names, sharded.policy_names);
  for (std::size_t p = 0; p < serial.savings.size(); ++p) {
    ASSERT_EQ(serial.savings[p].size(), sharded.savings[p].size());
    for (std::size_t c = 0; c < serial.savings[p].size(); ++c) {
      EXPECT_EQ(serial.savings[p][c], sharded.savings[p][c])
          << "policy " << p << " case " << c;
    }
    EXPECT_EQ(serial.mean_skipped[p], sharded.mean_skipped[p]);
    EXPECT_EQ(serial.mean_degraded[p], sharded.mean_degraded[p]);
    EXPECT_EQ(serial.any_left_x[p], sharded.any_left_x[p]);
  }
}

TEST(FaultedSweep, LossyPresetKeepsEveryRegistryPlantInsideTheHardSafeSet) {
  // The headline robustness claim, in miniature: the flagship lossy fault
  // model over EVERY registry plant and its full scenario catalogue, with
  // zero hard safe-set violations.  XI excursions are allowed (measured
  // degradation); leaving X is not.
  oic::eval::SweepSpec spec;
  spec.policies = {"bang-bang"};
  spec.cases = 3;
  spec.steps = 40;
  spec.workers = 2;
  spec.cert_dir = cert_dir();
  spec.faults = "lossy";
  const auto& registry = ScenarioRegistry::builtin();
  const auto result = oic::eval::run_sweep(registry, spec);

  std::size_t plants_seen = 0;
  double total_degraded = 0.0;
  std::string last_plant;
  for (const auto& cell : result.cells) {
    if (cell.plant != last_plant) {
      ++plants_seen;
      last_plant = cell.plant;
    }
    for (std::size_t p = 0; p < cell.result.policy_names.size(); ++p) {
      EXPECT_FALSE(cell.result.any_left_x[p])
          << cell.plant << "/" << cell.scenario;
      total_degraded += cell.result.mean_degraded[p];
    }
  }
  EXPECT_EQ(plants_seen, registry.production_plant_ids().size());
  EXPECT_GT(total_degraded, 0.0);
  EXPECT_FALSE(result.safety_violations);
  EXPECT_TRUE(result.faults.active());
}

TEST(FaultedSweep, FaultsOffSweepIsBitIdenticalToTheHistoricalSweep) {
  // The default-off guarantee at the sweep level: an explicit "off" and an
  // absent fault flag produce identical cells.
  oic::eval::SweepSpec spec;
  spec.plants = {"toy2d"};
  spec.scenarios = {"sine"};
  spec.policies = {"bang-bang", "periodic-3"};
  spec.cases = 4;
  spec.steps = 30;
  spec.workers = 1;
  spec.cert_dir = cert_dir();
  const auto& registry = ScenarioRegistry::builtin();
  const auto plain = oic::eval::run_sweep(registry, spec);
  spec.faults = "off";
  const auto off = oic::eval::run_sweep(registry, spec);
  ASSERT_EQ(plain.cells.size(), off.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(plain.cells[i].result.savings, off.cells[i].result.savings);
    EXPECT_EQ(plain.cells[i].result.mean_skipped, off.cells[i].result.mean_skipped);
    EXPECT_EQ(plain.cells[i].result.mean_degraded, off.cells[i].result.mean_degraded);
  }
  EXPECT_FALSE(off.faults.active());
}

}  // namespace
