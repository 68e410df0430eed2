#pragma once
/// \file profile.hpp
/// Front-vehicle velocity profiles -- the source of the perturbation w(t)
/// whose *pattern* the skipping policies learn to exploit (Sec. IV-B).
///
/// Each experiment of the paper corresponds to one profile configuration:
///   * SinusoidalProfile       -- Equation (8): vf = ve + af sin(pi/2 dt t) + w
///                                 (Fig. 4, and Ex.8-Ex.10 of Fig. 6)
///   * UniformRandomProfile    -- Ex.6: a fresh uniform draw each step
///   * BoundedAccelProfile     -- Ex.1-Ex.5 / Ex.7: random acceleration in
///                                 [-a_max, a_max], velocity clipped to range
///   * StopAndGoProfile        -- traffic-jam pattern from the introduction

#include <memory>
#include <string>

#include "common/random.hpp"

namespace oic::sim {

/// Generator of the front vehicle's velocity sequence vf(0), vf(1), ...
/// Implementations must be deterministic given the Rng passed to reset().
class VelocityProfile {
 public:
  virtual ~VelocityProfile() = default;

  /// Restart the sequence; all randomness must come from `rng`.
  virtual void reset(Rng rng) = 0;

  /// Whether reseed() is implemented for this profile.
  virtual bool supports_reseed() const { return false; }

  /// Swap the random stream *without* resetting the deterministic state
  /// (clock, filters, active bursts/ramps).  The importance-splitting layer
  /// uses this to clone an episode mid-flight: replaying the parent's
  /// draws up to the branch step and reseeding there yields the child
  /// trajectory.  Only profiles that opt in (supports_reseed()) implement
  /// it; the default throws PreconditionError.
  virtual void reseed(Rng rng);

  /// Velocity at the current step, then advance the internal clock.
  virtual double next() = 0;

  /// Diagnostic name for experiment tables.
  virtual std::string name() const = 0;

  /// Deep copy (profiles are cheap value-like objects).
  virtual std::unique_ptr<VelocityProfile> clone() const = 0;

  /// Smallest velocity the profile can emit (used to bound w).
  virtual double v_min() const = 0;
  /// Largest velocity the profile can emit.
  virtual double v_max() const = 0;
};

/// Equation (8): vf(t) = ve + af * sin(pi/2 * dt * t) + w,  w ~ U[-noise, noise],
/// clipped to [lo, hi].
class SinusoidalProfile final : public VelocityProfile {
 public:
  SinusoidalProfile(double ve, double af, double dt, double noise, double lo, double hi);

  void reset(Rng rng) override;
  double next() override;
  std::string name() const override;
  std::unique_ptr<VelocityProfile> clone() const override;
  double v_min() const override { return lo_; }
  double v_max() const override { return hi_; }

  /// Noise-free value at step t (used by the model-based oracle).
  double nominal_at(std::size_t t) const;

 private:
  double ve_, af_, dt_, noise_, lo_, hi_;
  std::size_t t_ = 0;
  Rng rng_{0};
};

/// Ex.6: vf drawn uniformly from [lo, hi] at every step (no continuity).
class UniformRandomProfile final : public VelocityProfile {
 public:
  UniformRandomProfile(double lo, double hi);

  void reset(Rng rng) override;
  double next() override;
  std::string name() const override;
  std::unique_ptr<VelocityProfile> clone() const override;
  double v_min() const override { return lo_; }
  double v_max() const override { return hi_; }

 private:
  double lo_, hi_;
  Rng rng_{0};
};

/// Ex.1-Ex.5 / Ex.7: acceleration drawn uniformly from [-a_max, a_max] each
/// step; velocity integrates with period dt and clips to [lo, hi].
class BoundedAccelProfile final : public VelocityProfile {
 public:
  BoundedAccelProfile(double lo, double hi, double a_max, double dt);

  void reset(Rng rng) override;
  double next() override;
  std::string name() const override;
  std::unique_ptr<VelocityProfile> clone() const override;
  double v_min() const override { return lo_; }
  double v_max() const override { return hi_; }

 private:
  double lo_, hi_, a_max_, dt_;
  double v_ = 0.0;
  Rng rng_{0};
};

/// Traffic-jam stop-and-go: dwell at a low speed, ramp to a high speed,
/// dwell, ramp back, repeat; dwell lengths jittered by the rng.
class StopAndGoProfile final : public VelocityProfile {
 public:
  StopAndGoProfile(double v_low, double v_high, std::size_t dwell_steps,
                   std::size_t ramp_steps, double jitter);

  void reset(Rng rng) override;
  double next() override;
  std::string name() const override;
  std::unique_ptr<VelocityProfile> clone() const override;
  double v_min() const override { return v_low_; }
  double v_max() const override { return v_high_; }

 private:
  double v_low_, v_high_;
  std::size_t dwell_steps_, ramp_steps_;
  double jitter_;
  std::size_t t_ = 0;
  std::size_t phase_start_ = 0;
  int phase_ = 0;  // 0 low-dwell, 1 ramp-up, 2 high-dwell, 3 ramp-down
  std::size_t phase_len_ = 0;
  Rng rng_{0};
};

}  // namespace oic::sim
