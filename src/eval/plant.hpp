#pragma once
/// \file plant.hpp
/// Plant-generic evaluation: the PlantCase interface and Scenario bundle.
///
/// The paper's Algorithm 1 (tube-MPC feasible set + learned skip policy) is
/// plant-agnostic: nothing in the monitor, the episode loop, or the sweep
/// machinery cares that the first case study was adaptive cruise control.
/// A PlantCase packages what an evaluation needs from a concrete plant:
///
///   * the shifted affine model x+ = A x + B u + E w + c with polytopic
///     X / U / W (control::AffineLTI),
///   * the underlying safe controller kappa_R (a tube RMPC) and its nested
///     sets X' subset XI subset X (core::SafeSets),
///   * the designated skip input,
///   * a scalar-signal-to-disturbance map (scenarios drive plants through
///     one scalar signal per step: the ACC's front-vehicle speed, a
///     crosswind acceleration, a gust load, ...),
///   * the per-step running cost the experiments report ("fuel" for the
///     ACC; actuator duty / battery draw for other plants) and the raw
///     actuation energy.
///
/// acc::AccCase is the first implementation; eval/plants/ holds the rest,
/// and eval/registry.hpp catalogues them by string id.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cert/store.hpp"
#include "common/random.hpp"
#include "control/lti.hpp"
#include "control/tube_mpc.hpp"
#include "core/safe_sets.hpp"
#include "sim/profile.hpp"

namespace oic::eval {

/// A concrete plant wired for the intermittent-control evaluation.
/// Construction splits into a cheap declarative cert::PlantModel and the
/// synthesized cert::PlantCertificate resolved through a cert::Provider
/// (fresh synthesis by default, a cert::Store cache with --cert-dir), so
/// building a plant is file-read-bound once certificates are cached.
/// Instances are not copyable; construct once and share const references
/// across engines.
class PlantCase {
 public:
  virtual ~PlantCase() = default;

  /// Registry id ("acc", "lane-keep", ...).
  virtual std::string name() const = 0;

  /// Shifted-coordinate plant model.
  virtual const control::AffineLTI& system() const = 0;

  /// The underlying safe controller kappa_R (tube RMPC).  Engines copy it;
  /// run_episode and the trainer drive this shared instance directly.
  virtual control::TubeMpc& rmpc() = 0;
  virtual const control::TubeMpc& rmpc() const = 0;

  /// X, XI (Prop. 1), X' (Definition 3), in shifted coordinates.
  virtual const core::SafeSets& sets() const = 0;

  /// The certificate's k-step skip ladder X'_1..X'_k (X'_1 == X'),
  /// certifying whole skip bursts (core::compute_multi_step_safe_sets).
  /// The engines wire it into IntermittentConfig for burst:<k> policies;
  /// the default is empty (no burst support).
  virtual const std::vector<poly::HPolytope>& ladder() const;

  /// Skip input in shifted coordinates.
  virtual const linalg::Vector& u_skip() const = 0;

  /// Uniform sample from the strengthened safe set X'.
  virtual linalg::Vector sample_x0(Rng& rng) const = 0;

  /// Map one scalar scenario signal to the disturbance vector w (dimension
  /// nw; `w` is caller-allocated scratch).  The ACC maps the front-vehicle
  /// speed to w = vf - v_ref; plants whose scenarios emit the disturbance
  /// directly just copy.
  virtual void signal_to_w(double signal, linalg::Vector& w) const = 0;

  /// Running cost of one control period at shifted state x actuating
  /// shifted input u.  `controller_ran` is the realized skipping choice
  /// (z = 1): plants whose savings come from the sensing / compute /
  /// communication energy of the control loop itself (the paper's Sec. I
  /// motivation) charge a per-run overhead on it; the ACC's fuel map
  /// ignores it.  Must be strictly positive for the always-run baseline so
  /// relative savings are well defined (model an idle floor).
  virtual double cost_step(const linalg::Vector& x, const linalg::Vector& u,
                           bool controller_ran) const = 0;

  /// Physical actuation energy of a shifted input.
  virtual double energy_raw(const linalg::Vector& u) const = 0;

  /// Per-plant hook for the DRL trainer's energy penalty R2 (Sec. III-B.2)
  /// under train::EnergyMode::kCost: the running-cost *rate* of executing
  /// kappa(x) = u, i.e. cost per unit time rather than per control period,
  /// so reward weights transfer across plants with different periods.  The
  /// default charges the per-step running cost of a controller-run period;
  /// the ACC overrides it with its fuel map divided by the period.
  virtual double train_cost_rate(const linalg::Vector& x,
                                 const linalg::Vector& u) const {
    return cost_step(x, u, /*controller_ran=*/true);
  }
};

/// Envelope of a plant's scalar scenario signal, registered alongside the
/// fixed scenario catalogue: the hard range the signal may take (the ACC's
/// front-vehicle speed window, a crosswind's +/- w_max).  The Monte-Carlo
/// layer (src/mc) synthesizes randomized scenario families inside this
/// band without knowing the plant concretely -- a profile generated
/// within the band maps to in-bounds disturbances through the plant's
/// signal_to_w, so every sampled scenario respects the certificate's W.
/// (Family spectra are drawn in *steps*, so no time scale is needed here:
/// per-step generation is invariant to the plant's physical period.)
struct SignalBand {
  double lo = 0.0;  ///< smallest signal value scenarios may emit
  double hi = 0.0;  ///< largest signal value scenarios may emit

  double center() const { return 0.5 * (lo + hi); }
  double halfwidth() const { return 0.5 * (hi - lo); }
};

/// One experiment configuration: a named disturbance-signal generator.
/// Experiments clone and reseed the profile prototype per test case.
struct Scenario {
  std::string id;          ///< registry key ("Fig.4", "Ex.1", "sine", ...)
  std::string description; ///< human-readable summary for tables
  std::unique_ptr<sim::VelocityProfile> profile;

  Scenario() = default;
  Scenario(std::string id_, std::string desc, std::unique_ptr<sim::VelocityProfile> p)
      : id(std::move(id_)), description(std::move(desc)), profile(std::move(p)) {}

  // Copies null-propagate: a default-constructed Scenario has no profile
  // prototype, and copying one must not dereference the null pointer.
  Scenario(const Scenario& other)
      : id(other.id),
        description(other.description),
        profile(other.profile ? other.profile->clone() : nullptr) {}
  Scenario& operator=(const Scenario& other);
  Scenario(Scenario&&) = default;
  Scenario& operator=(Scenario&&) = default;
};

/// The Algorithm-1 runtime pieces every PlantCase assembles from its
/// certificate: the local LQR gain, the tube RMPC rehydrated from the
/// certificate's tightened / terminal sets, the nested safe-set triple
/// (XI from the RMPC's feasible region per Prop. 1, X' per Definition 3),
/// and the k-step skip ladder.
struct PlantRuntime {
  linalg::Matrix k_lqr;
  std::unique_ptr<control::TubeMpc> rmpc;
  core::SafeSets sets;
  std::vector<poly::HPolytope> ladder;  ///< X'_1 .. X'_k
  /// sets.x_prime.bounding_box(), computed once: every initial-state draw
  /// (sample_x0) rejection-samples from it, and it costs four support LPs.
  std::optional<std::pair<linalg::Vector, linalg::Vector>> x_prime_box;
};

/// Assemble the runtime from an already-resolved certificate (no synthesis
/// LPs run here; the TubeMpc is rehydrated from the stored sets).
PlantRuntime runtime_from_certificate(const cert::PlantModel& model,
                                      cert::PlantCertificate certificate);

/// Resolve the model's certificate through `provider` (empty = fresh
/// cert::synthesize; a cert::Store provider makes this file-read-bound on
/// cache hits) and assemble the runtime.  Throws NumericalError when
/// synthesis degenerates (LQR divergence, empty feasible set, ...).
PlantRuntime build_plant_runtime(const cert::PlantModel& model,
                                 const cert::Provider& provider = {});

/// Uniform sample from a bounded polytope by rejection sampling from its
/// bounding box `box`, which must be set.bounding_box() (callers compute it
/// once; it costs one support LP per face of the box).  Dimension-generic;
/// the AccCase sampler specialized to 2-D.  `who` labels diagnostics.
/// Throws NumericalError when the set is unbounded (no box) or too thin for
/// rejection sampling.
linalg::Vector sample_from_set(
    const poly::HPolytope& set,
    const std::optional<std::pair<linalg::Vector, linalg::Vector>>& box, Rng& rng,
    const char* who);

}  // namespace oic::eval
