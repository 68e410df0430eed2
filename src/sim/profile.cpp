#include "sim/profile.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace oic::sim {

void VelocityProfile::reseed(Rng) {
  throw PreconditionError("VelocityProfile::reseed: profile '" + name() +
                          "' does not support mid-episode reseeding");
}

// ---------------------------------------------------------------- Sinusoidal

SinusoidalProfile::SinusoidalProfile(double ve, double af, double dt, double noise,
                                     double lo, double hi)
    : ve_(ve), af_(af), dt_(dt), noise_(noise), lo_(lo), hi_(hi) {
  OIC_REQUIRE(lo <= hi, "SinusoidalProfile: empty velocity range");
  OIC_REQUIRE(noise >= 0.0, "SinusoidalProfile: noise must be non-negative");
  OIC_REQUIRE(dt > 0.0, "SinusoidalProfile: dt must be positive");
}

void SinusoidalProfile::reset(Rng rng) {
  rng_ = rng;
  t_ = 0;
}

double SinusoidalProfile::nominal_at(std::size_t t) const {
  return ve_ + af_ * std::sin(M_PI / 2.0 * dt_ * static_cast<double>(t));
}

double SinusoidalProfile::next() {
  const double w = noise_ > 0.0 ? rng_.uniform(-noise_, noise_) : 0.0;
  const double v = nominal_at(t_) + w;
  ++t_;
  return std::clamp(v, lo_, hi_);
}

std::string SinusoidalProfile::name() const {
  std::ostringstream os;
  os << "sinusoid(ve=" << ve_ << ",af=" << af_ << ",noise=" << noise_ << ")";
  return os.str();
}

std::unique_ptr<VelocityProfile> SinusoidalProfile::clone() const {
  return std::make_unique<SinusoidalProfile>(*this);
}

// ------------------------------------------------------------ UniformRandom

UniformRandomProfile::UniformRandomProfile(double lo, double hi) : lo_(lo), hi_(hi) {
  OIC_REQUIRE(lo <= hi, "UniformRandomProfile: empty velocity range");
}

void UniformRandomProfile::reset(Rng rng) { rng_ = rng; }

double UniformRandomProfile::next() { return rng_.uniform(lo_, hi_); }

std::string UniformRandomProfile::name() const {
  std::ostringstream os;
  os << "uniform-random[" << lo_ << "," << hi_ << "]";
  return os.str();
}

std::unique_ptr<VelocityProfile> UniformRandomProfile::clone() const {
  return std::make_unique<UniformRandomProfile>(*this);
}

// ------------------------------------------------------------- BoundedAccel

BoundedAccelProfile::BoundedAccelProfile(double lo, double hi, double a_max, double dt)
    : lo_(lo), hi_(hi), a_max_(a_max), dt_(dt) {
  OIC_REQUIRE(lo <= hi, "BoundedAccelProfile: empty velocity range");
  OIC_REQUIRE(a_max >= 0.0, "BoundedAccelProfile: a_max must be non-negative");
  OIC_REQUIRE(dt > 0.0, "BoundedAccelProfile: dt must be positive");
}

void BoundedAccelProfile::reset(Rng rng) {
  rng_ = rng;
  v_ = rng_.uniform(lo_, hi_);
}

double BoundedAccelProfile::next() {
  const double out = v_;
  const double a = rng_.uniform(-a_max_, a_max_);
  v_ = std::clamp(v_ + a * dt_, lo_, hi_);
  return out;
}

std::string BoundedAccelProfile::name() const {
  std::ostringstream os;
  os << "bounded-accel[" << lo_ << "," << hi_ << "](a<=" << a_max_ << ")";
  return os.str();
}

std::unique_ptr<VelocityProfile> BoundedAccelProfile::clone() const {
  return std::make_unique<BoundedAccelProfile>(*this);
}

// ---------------------------------------------------------------- StopAndGo

StopAndGoProfile::StopAndGoProfile(double v_low, double v_high, std::size_t dwell_steps,
                                   std::size_t ramp_steps, double jitter)
    : v_low_(v_low),
      v_high_(v_high),
      dwell_steps_(dwell_steps),
      ramp_steps_(ramp_steps),
      jitter_(jitter) {
  OIC_REQUIRE(v_low <= v_high, "StopAndGoProfile: v_low must not exceed v_high");
  OIC_REQUIRE(dwell_steps >= 1 && ramp_steps >= 1,
              "StopAndGoProfile: phase lengths must be positive");
  OIC_REQUIRE(jitter >= 0.0 && jitter < 1.0, "StopAndGoProfile: jitter in [0,1)");
}

void StopAndGoProfile::reset(Rng rng) {
  rng_ = rng;
  t_ = 0;
  phase_ = 0;
  phase_start_ = 0;
  const double j = jitter_ > 0.0 ? rng_.uniform(1.0 - jitter_, 1.0 + jitter_) : 1.0;
  phase_len_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(dwell_steps_) * j));
}

double StopAndGoProfile::next() {
  const std::size_t into = t_ - phase_start_;
  double v = v_low_;
  switch (phase_) {
    case 0:
      v = v_low_;
      break;
    case 1:
      v = v_low_ + (v_high_ - v_low_) * (static_cast<double>(into) + 1.0) /
                       static_cast<double>(phase_len_);
      break;
    case 2:
      v = v_high_;
      break;
    case 3:
      v = v_high_ - (v_high_ - v_low_) * (static_cast<double>(into) + 1.0) /
                        static_cast<double>(phase_len_);
      break;
    default:
      break;
  }
  ++t_;
  if (t_ - phase_start_ >= phase_len_) {
    phase_ = (phase_ + 1) % 4;
    phase_start_ = t_;
    const std::size_t base = (phase_ == 1 || phase_ == 3) ? ramp_steps_ : dwell_steps_;
    const double j = jitter_ > 0.0 ? rng_.uniform(1.0 - jitter_, 1.0 + jitter_) : 1.0;
    phase_len_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(base) * j));
  }
  return std::clamp(v, v_low_, v_high_);
}

std::string StopAndGoProfile::name() const {
  std::ostringstream os;
  os << "stop-and-go[" << v_low_ << "," << v_high_ << "]";
  return os.str();
}

std::unique_ptr<VelocityProfile> StopAndGoProfile::clone() const {
  return std::make_unique<StopAndGoProfile>(*this);
}

}  // namespace oic::sim
