#pragma once
/// \file fleet.hpp
/// Set-up shared by every workload: cold certificate synthesis for the
/// production plants, plant runtime builds from those certificates, and
/// (optionally) one DRL skipping agent per plant, trained from a fixed
/// seed so every run evaluates the same agents.

#include <memory>
#include <string>
#include <vector>

#include "cert/store.hpp"
#include "common.hpp"
#include "eval/plant.hpp"

namespace perfbench {

struct Fleet {
  std::vector<std::string> ids;  ///< production plant ids, registry order
  std::string cert_dir;
  std::unique_ptr<oic::cert::Store> store;
  std::vector<std::unique_ptr<oic::eval::PlantCase>> plants;
  std::vector<std::string> agent_paths;  ///< absolute; empty without agents
  double synth_ms = 0.0;   ///< cert: cold synthesis of every plant
  double build_ms = 0.0;   ///< eval: plant runtimes from the cached certs
  double agent_ms = 0.0;   ///< train: agent preparation
  double total_s = 0.0;

  std::vector<const oic::eval::PlantCase*> plant_ptrs() const;
};

/// Build a fleet in `dir` (emptied first).
Fleet make_fleet(const std::string& dir, bool with_agents);

/// Set-up repeated `reps` times (fresh directory each time); the last
/// fleet is kept.  Records the median set-up time and per-layer parts.
struct SetupTimes {
  double total_s = 0.0;
  double synth_ms = 0.0;
  double build_ms = 0.0;
  double agent_ms = 0.0;
};

/// Median of each part over a list of fleets' timings.
SetupTimes median_setup(const std::vector<SetupTimes>& runs);

inline SetupTimes times_of(const Fleet& f) {
  return {f.total_s, f.synth_ms, f.build_ms, f.agent_ms};
}

/// Set-up times at the reference host speed (see host_slowness).
inline SetupTimes at_reference_speed(SetupTimes t, double cal_before, double cal_after) {
  const double slow = host_slowness(cal_before, cal_after);
  return {t.total_s / slow, t.synth_ms / slow, t.build_ms / slow, t.agent_ms / slow};
}

}  // namespace perfbench
