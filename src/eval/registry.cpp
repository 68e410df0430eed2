#include "eval/registry.hpp"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "common/error.hpp"
#include "common/textio.hpp"
#include "eval/plants/lane_keep.hpp"
#include "eval/plants/quad_alt.hpp"
#include "eval/plants/second_order.hpp"

namespace oic::eval {

namespace {

std::string join_ids(const std::vector<std::string>& ids) {
  std::string out;
  for (const auto& id : ids) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

// ---- ACC (the paper's case study, Sec. IV) --------------------------------

Scenario make_acc_scenario(const std::string& id) {
  const acc::AccParams params;  // registry plants use paper parameters
  if (id == "Fig.4") return acc::fig4_scenario(params);
  if (id == "Jam") return acc::stop_and_go_scenario(params);
  std::uint64_t index = 0;
  if (id.rfind("Ex.", 0) == 0 && textio::parse_u64(std::string_view(id).substr(3), index)) {
    const int i = static_cast<int>(index);
    if (index >= 1 && index <= 5) return acc::range_scenario(i, params);
    if (index >= 6 && index <= 10) return acc::regularity_scenario(i, params);
  }
  throw PreconditionError("unknown acc scenario '" + id + "'");
}

PlantInfo acc_info() {
  PlantInfo info;
  info.id = "acc";
  info.description =
      "adaptive cruise control (paper Sec. IV): gap/speed vs front vehicle";
  info.make_plant = [](const cert::Provider& provider) {
    return std::make_unique<acc::AccCase>(acc::AccParams{},
                                          acc::AccCase::default_rmpc(), provider);
  };
  info.make_model = [] { return acc::AccCase::model(); };
  info.scenario_ids = {"Fig.4"};
  for (int i = 1; i <= 10; ++i) info.scenario_ids.push_back("Ex." + std::to_string(i));
  info.scenario_ids.push_back("Jam");
  info.make_scenario = make_acc_scenario;
  const acc::AccParams p;
  info.signal_band = {p.vf_min, p.vf_max};
  return info;
}

// ---- Lane keeping ----------------------------------------------------------

Scenario make_lane_keep_scenario(const std::string& id) {
  const LaneKeepParams p;
  const double w = p.w_max;
  if (id == "sine") {
    return Scenario("sine", "sinusoidal crosswind, amplitude 0.7 w_max, noise 0.1 w_max",
                    std::make_unique<sim::SinusoidalProfile>(0.0, 0.7 * w, p.delta,
                                                             0.1 * w, -w, w));
  }
  if (id == "rough") {
    return Scenario("rough", "bounded-slew random crosswind over the full range",
                    std::make_unique<sim::BoundedAccelProfile>(-w, w, 3.0 * w, p.delta));
  }
  if (id == "gusts") {
    return Scenario("gusts",
                    "stop-and-go gust fronts: dwell/ramp between -0.8/+0.8 w_max",
                    std::make_unique<sim::StopAndGoProfile>(-0.8 * w, 0.8 * w, 20, 10,
                                                            0.3));
  }
  if (id == "white") {
    return Scenario("white", "uncorrelated uniform crosswind (worst-case pattern-free)",
                    std::make_unique<sim::UniformRandomProfile>(-w, w));
  }
  throw PreconditionError("unknown lane-keep scenario '" + id + "'");
}

PlantInfo lane_keep_info() {
  PlantInfo info;
  info.id = "lane-keep";
  info.description = "double-integrator lane keeping: lateral offset vs crosswind";
  info.make_plant = [](const cert::Provider& provider) {
    return std::make_unique<LaneKeepCase>(LaneKeepParams{},
                                          LaneKeepCase::default_rmpc(), provider);
  };
  info.make_model = [] { return LaneKeepCase::model(); };
  info.scenario_ids = {"sine", "rough", "gusts", "white"};
  info.make_scenario = make_lane_keep_scenario;
  const LaneKeepParams p;
  info.signal_band = {-p.w_max, p.w_max};
  return info;
}

// ---- Quadrotor altitude hold ----------------------------------------------

Scenario make_quad_alt_scenario(const std::string& id) {
  const QuadAltParams p;
  const double w = p.w_max;
  if (id == "sine") {
    return Scenario("sine",
                    "sinusoidal thermal cycle, amplitude 0.6 w_max, noise 0.15 w_max",
                    std::make_unique<sim::SinusoidalProfile>(0.0, 0.6 * w, p.delta,
                                                             0.15 * w, -w, w));
  }
  if (id == "rough") {
    return Scenario("rough", "bounded-slew random gusts over the full range",
                    std::make_unique<sim::BoundedAccelProfile>(-w, w, 4.0 * w, p.delta));
  }
  if (id == "gusts") {
    return Scenario("gusts", "stop-and-go downdraft fronts between -0.7/+0.7 w_max",
                    std::make_unique<sim::StopAndGoProfile>(-0.7 * w, 0.7 * w, 25, 12,
                                                            0.25));
  }
  if (id == "white") {
    return Scenario("white", "uncorrelated uniform gusts (worst-case pattern-free)",
                    std::make_unique<sim::UniformRandomProfile>(-w, w));
  }
  throw PreconditionError("unknown quad-alt scenario '" + id + "'");
}

PlantInfo quad_alt_info() {
  PlantInfo info;
  info.id = "quad-alt";
  info.description = "quadrotor altitude hold: height error vs vertical gusts";
  info.make_plant = [](const cert::Provider& provider) {
    return std::make_unique<QuadAltCase>(QuadAltParams{},
                                         QuadAltCase::default_rmpc(), provider);
  };
  info.make_model = [] { return QuadAltCase::model(); };
  // "white" completes the uniform scenario family every non-ACC plant
  // exposes (sine / rough / gusts / white), so cross-plant sweeps by
  // scenario id cover both plants symmetrically.
  info.scenario_ids = {"sine", "rough", "gusts", "white"};
  info.make_scenario = make_quad_alt_scenario;
  const QuadAltParams p;
  info.signal_band = {-p.w_max, p.w_max};
  return info;
}

// ---- Plain second-order demo ----------------------------------------------

Scenario make_toy2d_scenario(const std::string& id) {
  const Toy2dParams p;
  const double w = p.w_max;
  if (id == "sine") {
    return Scenario("sine",
                    "sinusoidal torque disturbance, amplitude 0.7 w_max, "
                    "noise 0.1 w_max",
                    std::make_unique<sim::SinusoidalProfile>(0.0, 0.7 * w, p.delta,
                                                             0.1 * w, -w, w));
  }
  if (id == "white") {
    return Scenario("white",
                    "uncorrelated uniform disturbance (worst-case pattern-free)",
                    std::make_unique<sim::UniformRandomProfile>(-w, w));
  }
  throw PreconditionError("unknown toy2d scenario '" + id + "'");
}

PlantInfo toy2d_info() {
  PlantInfo info;
  info.id = "toy2d";
  info.description = "plain second-order demo: double integrator holding a setpoint";
  info.make_plant = [](const cert::Provider& provider) {
    return std::make_unique<Toy2dCase>(Toy2dParams{}, Toy2dCase::default_rmpc(),
                                       provider);
  };
  info.make_model = [] { return Toy2dCase::model(); };
  info.scenario_ids = {"sine", "white"};
  info.make_scenario = make_toy2d_scenario;
  const Toy2dParams p;
  info.signal_band = {-p.w_max, p.w_max};
  return info;
}

// ---- Analytic rare-event bed (test-only) ----------------------------------

PlantInfo rare1d_info() {
  PlantInfo info;
  info.id = "rare1d";
  info.description =
      "analytic rare-event bed: scalar bounded+Gaussian excitation with a "
      "closed-form rare-hit-count probability (splitting validation only)";
  // The bed has no dynamics, controller, or certificate: its trajectories
  // are simulated analytically inside mc::splitting, and the closed-form
  // answer is what the splitting estimator is validated against.  Any
  // attempt to build it as a control plant fails loudly.
  info.make_plant = [](const cert::Provider&) -> std::unique_ptr<PlantCase> {
    throw PreconditionError(
        "plant 'rare1d' is an analytic splitting test bed; it has no "
        "controller -- use oic_mc --splitting");
  };
  info.make_model = []() -> cert::PlantModel {
    throw PreconditionError(
        "plant 'rare1d' is an analytic splitting test bed; it has no "
        "certificate model");
  };
  info.scenario_ids = {"analytic"};
  info.make_scenario = [](const std::string&) -> Scenario {
    throw PreconditionError(
        "plant 'rare1d' is an analytic splitting test bed; it has no "
        "deterministic scenarios");
  };
  info.signal_band = {-1.0, 1.0};
  info.test_only = true;
  return info;
}

}  // namespace

void ScenarioRegistry::add(PlantInfo info) {
  OIC_REQUIRE(!info.id.empty(), "ScenarioRegistry::add: empty plant id");
  OIC_REQUIRE(!has_plant(info.id),
              "ScenarioRegistry::add: duplicate plant '" + info.id + "'");
  OIC_REQUIRE(static_cast<bool>(info.make_plant),
              "ScenarioRegistry::add: plant factory required");
  OIC_REQUIRE(static_cast<bool>(info.make_model),
              "ScenarioRegistry::add: model factory required");
  OIC_REQUIRE(static_cast<bool>(info.make_scenario),
              "ScenarioRegistry::add: scenario factory required");
  OIC_REQUIRE(!info.scenario_ids.empty(),
              "ScenarioRegistry::add: plant '" + info.id + "' lists no scenarios");
  OIC_REQUIRE(info.signal_band.hi > info.signal_band.lo,
              "ScenarioRegistry::add: plant '" + info.id +
                  "' needs a non-degenerate signal band");
  plants_.push_back(std::move(info));
}

std::vector<std::string> ScenarioRegistry::plant_ids() const {
  std::vector<std::string> ids;
  ids.reserve(plants_.size());
  for (const auto& p : plants_) ids.push_back(p.id);
  return ids;
}

std::vector<std::string> ScenarioRegistry::production_plant_ids() const {
  std::vector<std::string> ids;
  ids.reserve(plants_.size());
  for (const auto& p : plants_) {
    if (!p.test_only) ids.push_back(p.id);
  }
  return ids;
}

bool ScenarioRegistry::has_plant(const std::string& id) const {
  for (const auto& p : plants_) {
    if (p.id == id) return true;
  }
  return false;
}

const PlantInfo& ScenarioRegistry::plant(const std::string& id) const {
  for (const auto& p : plants_) {
    if (p.id == id) return p;
  }
  throw PreconditionError("unknown plant '" + id + "' (known: " + join_ids(plant_ids()) +
                          ")");
}

std::unique_ptr<PlantCase> ScenarioRegistry::make_plant(
    const std::string& id, const cert::Provider& provider) const {
  return plant(id).make_plant(provider);
}

cert::PlantModel ScenarioRegistry::make_model(const std::string& id) const {
  return plant(id).make_model();
}

Scenario ScenarioRegistry::make_scenario(const std::string& plant_id,
                                         const std::string& scenario_id) const {
  const PlantInfo& info = plant(plant_id);
  const auto& ids = info.scenario_ids;
  if (std::find(ids.begin(), ids.end(), scenario_id) == ids.end()) {
    throw PreconditionError("plant '" + plant_id + "' has no scenario '" + scenario_id +
                            "' (known: " + join_ids(ids) + ")");
  }
  return info.make_scenario(scenario_id);
}

void ScenarioRegistry::add_fault_preset(fault::FaultPreset preset) {
  OIC_REQUIRE(!preset.id.empty(), "ScenarioRegistry::add_fault_preset: empty id");
  for (const auto& p : fault_presets_) {
    OIC_REQUIRE(p.id != preset.id,
                "ScenarioRegistry::add_fault_preset: duplicate preset '" + preset.id +
                    "'");
  }
  // Vet the spec at registration, so a broken preset fails loudly here and
  // not in the middle of a campaign.
  (void)fault::FaultSpec::parse(preset.spec);
  fault_presets_.push_back(std::move(preset));
}

fault::FaultSpec ScenarioRegistry::resolve_faults(const std::string& text) const {
  for (const auto& p : fault_presets_) {
    if (p.id == text) return fault::FaultSpec::parse(p.spec);
  }
  return fault::FaultSpec::parse(text);
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry reg = [] {
    ScenarioRegistry r;
    r.add(acc_info());
    r.add(lane_keep_info());
    r.add(quad_alt_info());
    r.add(toy2d_info());
    r.add(rare1d_info());
    for (const auto& preset : fault::standard_fault_presets()) {
      r.add_fault_preset(preset);
    }
    return r;
  }();
  return reg;
}

}  // namespace oic::eval
