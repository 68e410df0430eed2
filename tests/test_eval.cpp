// Tests for the plant-generic evaluation layer: the scenario registry
// (round-trip construction, clone/reseed determinism), the new plants'
// tube-MPC safety (left_x must never fire), the sweep driver's golden-value
// parity with the pre-lift ACC harness, and the oic_eval end-to-end path
// (micro-sweep per plant + JSON output).

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/error.hpp"
#include "core/policy.hpp"
#include "eval/engine.hpp"
#include "eval/harness.hpp"
#include "eval/plants/lane_keep.hpp"
#include "eval/plants/quad_alt.hpp"
#include "eval/registry.hpp"
#include "eval/sweep.hpp"

namespace {

using oic::Rng;
using oic::eval::ScenarioRegistry;

// ---------------------------------------------------------------- registry

TEST(Registry, ListsBuiltinPlants) {
  const auto& reg = ScenarioRegistry::builtin();
  const auto ids = reg.plant_ids();
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], "acc");
  EXPECT_EQ(ids[1], "lane-keep");
  EXPECT_EQ(ids[2], "quad-alt");
  EXPECT_EQ(ids[3], "toy2d");
  EXPECT_EQ(ids[4], "rare1d");
  // The analytic rare-event bed is test-only: every sweeping driver
  // defaults to the production list, which filters it out.
  const auto prod = reg.production_plant_ids();
  ASSERT_EQ(prod.size(), 4u);
  EXPECT_EQ(prod[0], "acc");
  EXPECT_EQ(prod[3], "toy2d");
  EXPECT_TRUE(reg.plant("rare1d").test_only);
  EXPECT_FALSE(reg.plant("acc").test_only);
  EXPECT_TRUE(reg.has_plant("acc"));
  EXPECT_FALSE(reg.has_plant("submarine"));
  EXPECT_THROW(reg.plant("submarine"), oic::PreconditionError);
  EXPECT_THROW(reg.make_scenario("acc", "sine"), oic::PreconditionError);
  EXPECT_THROW(reg.make_scenario("lane-keep", "Ex.1"), oic::PreconditionError);
  EXPECT_THROW(reg.make_scenario("toy2d", "gusts"), oic::PreconditionError);
  // Every production plant exposes its declarative model with a matching
  // id; the analytic bed has no controller/certificate and throws from
  // every factory.
  for (const auto& pid : prod) EXPECT_EQ(reg.make_model(pid).id, pid);
  EXPECT_THROW(reg.make_model("rare1d"), oic::PreconditionError);
  EXPECT_THROW(reg.make_scenario("rare1d", "analytic"), oic::PreconditionError);
}

TEST(Registry, EveryScenarioConstructsClonesAndReseedsDeterministically) {
  const auto& reg = ScenarioRegistry::builtin();
  for (const auto& pid : reg.production_plant_ids()) {
    for (const auto& sid : reg.plant(pid).scenario_ids) {
      const auto scenario = reg.make_scenario(pid, sid);
      EXPECT_EQ(scenario.id, sid) << pid;
      ASSERT_NE(scenario.profile, nullptr) << pid << "/" << sid;
      EXPECT_FALSE(scenario.description.empty()) << pid << "/" << sid;

      // Round-trip: an independently constructed copy, a clone, and the
      // original all emit the identical sequence for the same seed; and
      // reseeding the same profile reproduces it (reset is complete).
      const auto again = reg.make_scenario(pid, sid);
      auto a = scenario.profile->clone();
      auto b = again.profile->clone();
      auto c = scenario.profile->clone();
      a->reset(Rng(20240607));
      b->reset(Rng(20240607));
      c->reset(Rng(999));
      std::vector<double> seq_a;
      for (int t = 0; t < 60; ++t) {
        const double va = a->next();
        seq_a.push_back(va);
        EXPECT_EQ(va, b->next()) << pid << "/" << sid << " step " << t;
        (void)c->next();  // advance a differently-seeded stream
      }
      c->reset(Rng(20240607));
      for (int t = 0; t < 60; ++t) {
        EXPECT_EQ(seq_a[t], c->next()) << pid << "/" << sid << " reseed step " << t;
      }
      // Emitted signals respect the profile's declared range (the plants'
      // disturbance sets W are sized from it).
      for (const double v : seq_a) {
        EXPECT_GE(v, scenario.profile->v_min()) << pid << "/" << sid;
        EXPECT_LE(v, scenario.profile->v_max()) << pid << "/" << sid;
      }
    }
  }
}

// ----------------------------------------------------------------- policies

TEST(PolicyFactory, ParsesKnownSpecsAndRejectsUnknown) {
  EXPECT_EQ(oic::eval::make_policy("always-run")->name(), "always-run");
  EXPECT_EQ(oic::eval::make_policy("bang-bang")->name(), "bang-bang");
  EXPECT_EQ(oic::eval::make_policy("periodic-5")->name(), "periodic(5)");
  EXPECT_THROW(oic::eval::make_policy("periodic-0"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("periodic-x"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("drl"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy_factory({}), oic::PreconditionError);

  const auto factory = oic::eval::make_policy_factory({"bang-bang", "periodic-3"});
  const auto set_a = factory();
  const auto set_b = factory();
  ASSERT_EQ(set_a.size(), 2u);
  ASSERT_EQ(set_b.size(), 2u);
  EXPECT_EQ(set_a[0]->name(), set_b[0]->name());
  EXPECT_NE(set_a[0].get(), set_b[0].get());  // independently mutable instances
}

// ------------------------------------------------------- new-plant safety

void expect_safe_full_sweep(const std::string& plant_id) {
  oic::eval::SweepSpec spec;
  spec.plants = {plant_id};  // all scenarios of the plant
  spec.policies = {"bang-bang", "periodic-4"};
  spec.cases = 4;
  spec.steps = 60;
  spec.workers = 2;
  const auto result = oic::eval::run_sweep(ScenarioRegistry::builtin(), spec);
  const auto& info = ScenarioRegistry::builtin().plant(plant_id);
  ASSERT_EQ(result.cells.size(), info.scenario_ids.size());
  EXPECT_FALSE(result.safety_violations);
  for (const auto& cell : result.cells) {
    for (std::size_t p = 0; p < cell.result.policy_names.size(); ++p) {
      EXPECT_FALSE(cell.result.any_violation[p])
          << plant_id << "/" << cell.scenario << " " << cell.result.policy_names[p];
      // The monitor must actually be exercising skips, not just vetoing.
      EXPECT_GT(cell.result.mean_skipped[p], 0.0)
          << plant_id << "/" << cell.scenario;
    }
  }
}

TEST(NewPlants, LaneKeepFullSweepIsSafe) { expect_safe_full_sweep("lane-keep"); }

TEST(NewPlants, QuadAltFullSweepIsSafe) { expect_safe_full_sweep("quad-alt"); }

TEST(NewPlants, Toy2dFullSweepIsSafe) { expect_safe_full_sweep("toy2d"); }

// ------------------------------------------------ ACC parity (golden values)

TEST(SweepDriver, ReproducesGoldenAccHarnessNumbers) {
  // Golden values pinning the full sweep-driver stream (Ex.1, bang-bang +
  // periodic-5, cases=4, steps=50, seed=20200406, workers=1) -- the exact
  // code path behind `oic_eval --plant acc --scenario Ex.1 --policies
  // bang-bang,periodic-5` must reproduce them bit for bit; test_golden
  // separately pins the per-episode streams.  Re-pinned
  // when Rng::split() moved to splitmix64 stream derivation (the case
  // stream -- x0 draws and profile seeds -- changed with it), and again
  // when warm-solve cold restarts moved to the canonical-seed dual
  // continuation (equally-optimal argmins shifted by ~1e-13 on degenerate
  // MPC steps; docs/perf.md quantifies the drift); any further
  // unintentional drift in sampling, dynamics, or solver behavior fails
  // here.
  const double golden_bb[4] = {0.7262241205374529, 0.1285438409626803,
                               0.5876510688940028, 0.6097358845352306};
  const double golden_p5[4] = {0.42436035407119083, 0.08694322151804597,
                               0.43116050789058274, 0.40275300056190116};

  oic::eval::SweepSpec spec;
  spec.plants = {"acc"};
  spec.scenarios = {"Ex.1"};
  spec.policies = {"bang-bang", "periodic-5"};
  spec.cases = 4;
  spec.steps = 50;
  spec.seeds = {20200406};
  spec.workers = 1;
  const auto result = oic::eval::run_sweep(ScenarioRegistry::builtin(), spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& r = result.cells[0].result;
  ASSERT_EQ(r.policy_names.size(), 2u);
  EXPECT_EQ(r.policy_names[0], "bang-bang");
  EXPECT_EQ(r.policy_names[1], "periodic(5)");
  ASSERT_EQ(r.savings[0].size(), 4u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(r.savings[0][c], golden_bb[c]) << "case " << c;
    EXPECT_DOUBLE_EQ(r.savings[1][c], golden_p5[c]) << "case " << c;
  }
  EXPECT_DOUBLE_EQ(r.mean_skipped[0], 43.25);
  EXPECT_DOUBLE_EQ(r.mean_skipped[1], 37.5);
  EXPECT_FALSE(result.safety_violations);
}

// --------------------------------------------------------------- end-to-end

// Minimal JSON syntax validator (objects/arrays/strings/numbers/booleans);
// enough to catch malformed emission without a JSON dependency.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(SweepDriver, EndToEndMicroSweepPerPlantEmitsValidJson) {
  // The oic_eval code path over every registered plant: a 2-case
  // micro-sweep each, JSON must parse, and safety_violations must be false
  // both in the struct and in the document.
  oic::eval::SweepSpec spec;  // plants/scenarios empty = all registered
  spec.policies = {"bang-bang", "periodic-5"};
  spec.cases = 2;
  spec.steps = 25;
  spec.workers = 2;
  const auto& reg = ScenarioRegistry::builtin();
  const auto result = oic::eval::run_sweep(reg, spec);

  std::size_t expected_cells = 0;
  for (const auto& pid : reg.production_plant_ids()) {
    expected_cells += reg.plant(pid).scenario_ids.size();
  }
  EXPECT_EQ(result.cells.size(), expected_cells);
  EXPECT_FALSE(result.safety_violations);
  EXPECT_EQ(result.episodes, expected_cells * 2 * 3);  // baseline + 2 policies

  const std::string doc = oic::eval::sweep_json(spec, result);
  JsonScanner scanner(doc);
  EXPECT_TRUE(scanner.valid()) << doc.substr(0, 400);

  // Schema anchors of eval/sweep.hpp + the verdict.
  EXPECT_NE(doc.find("\"bench\": \"oic_eval\""), std::string::npos);
  EXPECT_NE(doc.find("\"config\""), std::string::npos);
  EXPECT_NE(doc.find("\"cases\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"episodes_per_s\""), std::string::npos);
  EXPECT_NE(doc.find("\"step_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"safety_violations\": false"), std::string::npos);
}

TEST(SweepDriver, DefaultedPlantsIntersectExplicitScenarios) {
  // `--scenario sine` with no --plant must sweep exactly the plants that
  // list "sine" (lane-keep, quad-alt, and toy2d; the ACC does not), not
  // hard-fail on the first plant lacking it.
  const auto& reg = ScenarioRegistry::builtin();
  oic::eval::SweepSpec spec;
  spec.scenarios = {"sine"};
  spec.policies = {"bang-bang"};
  spec.cases = 2;
  spec.steps = 20;
  spec.workers = 1;
  const auto result = oic::eval::run_sweep(reg, spec);
  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_EQ(result.cells[0].plant, "lane-keep");
  EXPECT_EQ(result.cells[1].plant, "quad-alt");
  EXPECT_EQ(result.cells[2].plant, "toy2d");
  for (const auto& cell : result.cells) EXPECT_EQ(cell.scenario, "sine");

  // A scenario no plant lists is still an error, even with defaulted plants.
  spec.scenarios = {"warp"};
  EXPECT_THROW(oic::eval::run_sweep(reg, spec), oic::PreconditionError);
}

TEST(SweepDriver, RejectsBadGridsBeforeBuildingPlants) {
  const auto& reg = ScenarioRegistry::builtin();
  oic::eval::SweepSpec spec;
  spec.plants = {"submarine"};
  EXPECT_THROW(oic::eval::run_sweep(reg, spec), oic::PreconditionError);
  spec.plants = {"lane-keep"};
  spec.scenarios = {"Ex.1"};  // an ACC scenario: not on lane-keep
  EXPECT_THROW(oic::eval::run_sweep(reg, spec), oic::PreconditionError);
  spec.scenarios = {};
  spec.policies = {"warp-drive"};
  EXPECT_THROW(oic::eval::run_sweep(reg, spec), oic::PreconditionError);
  spec.policies = {"bang-bang"};
  spec.cases = 0;
  EXPECT_THROW(oic::eval::run_sweep(reg, spec), oic::PreconditionError);
}

}  // namespace
