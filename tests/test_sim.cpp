// Tests for the simulation substrate: velocity profiles, fuel model, traces.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "sim/fuel.hpp"
#include "sim/profile.hpp"
#include "sim/trace.hpp"

namespace {

using oic::Rng;
using oic::linalg::Vector;

TEST(SinusoidalProfile, NoiseFreeMatchesEquation8) {
  // vf(t) = ve + af sin(pi/2 * dt * t).
  oic::sim::SinusoidalProfile prof(40.0, 9.0, 0.1, 0.0, 30.0, 50.0);
  prof.reset(Rng(1));
  for (int t = 0; t < 50; ++t) {
    const double expect = 40.0 + 9.0 * std::sin(M_PI / 2.0 * 0.1 * t);
    EXPECT_NEAR(prof.next(), expect, 1e-12);
  }
}

TEST(SinusoidalProfile, NoiseBoundedAndClipped) {
  oic::sim::SinusoidalProfile prof(40.0, 9.0, 0.1, 1.0, 30.0, 50.0);
  prof.reset(Rng(7));
  for (int t = 0; t < 500; ++t) {
    const double v = prof.next();
    EXPECT_GE(v, 30.0);
    EXPECT_LE(v, 50.0);
    const double nominal = prof.nominal_at(static_cast<std::size_t>(t));
    EXPECT_LE(std::fabs(v - std::clamp(nominal, 30.0, 50.0)), 1.0 + 1e-12);
  }
}

TEST(SinusoidalProfile, DeterministicForSeed) {
  oic::sim::SinusoidalProfile a(40, 5, 0.1, 2.0, 30, 50);
  oic::sim::SinusoidalProfile b(40, 5, 0.1, 2.0, 30, 50);
  a.reset(Rng(99));
  b.reset(Rng(99));
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(UniformRandomProfile, CoversRange) {
  oic::sim::UniformRandomProfile prof(30, 50);
  prof.reset(Rng(3));
  double lo = 100, hi = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = prof.next();
    EXPECT_GE(v, 30.0);
    EXPECT_LE(v, 50.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 31.0);  // actually explores the range
  EXPECT_GT(hi, 49.0);
}

TEST(BoundedAccelProfile, StepToStepChangeBounded) {
  const double dt = 0.1, amax = 20.0;
  oic::sim::BoundedAccelProfile prof(30, 50, amax, dt);
  prof.reset(Rng(11));
  double prev = prof.next();
  for (int i = 0; i < 1000; ++i) {
    const double v = prof.next();
    EXPECT_LE(std::fabs(v - prev), amax * dt + 1e-12);
    EXPECT_GE(v, 30.0);
    EXPECT_LE(v, 50.0);
    prev = v;
  }
}

TEST(StopAndGoProfile, OscillatesBetweenLevels) {
  oic::sim::StopAndGoProfile prof(32, 48, 10, 5, 0.0);
  prof.reset(Rng(1));
  bool saw_low = false, saw_high = false;
  for (int i = 0; i < 200; ++i) {
    const double v = prof.next();
    EXPECT_GE(v, 32.0 - 1e-12);
    EXPECT_LE(v, 48.0 + 1e-12);
    if (v < 32.5) saw_low = true;
    if (v > 47.5) saw_high = true;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Profiles, CloneIsIndependent) {
  oic::sim::BoundedAccelProfile prof(30, 50, 20, 0.1);
  prof.reset(Rng(5));
  auto clone = prof.clone();
  clone->reset(Rng(5));
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(prof.next(), clone->next());
}

TEST(FuelModel, IdleAtZeroPower) {
  oic::sim::FuelModel fuel;
  // Standing still: zero speed => zero power => idle rate.
  EXPECT_DOUBLE_EQ(fuel.rate(0.0, 0.0), fuel.params().idle_rate);
  // Hard braking: overrun => idle rate.
  EXPECT_DOUBLE_EQ(fuel.rate(30.0, -5.0), fuel.params().idle_rate);
}

TEST(FuelModel, MonotoneInAcceleration) {
  oic::sim::FuelModel fuel;
  double prev = 0.0;
  for (double a = 0.0; a <= 3.0; a += 0.5) {
    const double r = fuel.rate(25.0, a);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(FuelModel, MonotoneInSpeedAtConstantAcceleration) {
  oic::sim::FuelModel fuel;
  EXPECT_LT(fuel.rate(10.0, 1.0), fuel.rate(30.0, 1.0));
}

TEST(FuelModel, PowerMatchesHandComputation) {
  oic::sim::FuelParams p;
  p.mass = 1000;
  p.drag_coeff = 0.0;
  p.rolling_coeff = 0.0;
  oic::sim::FuelModel fuel(p);
  // P = m v a = 1000 * 20 * 2 = 40 kW.
  EXPECT_NEAR(fuel.power_kw(20.0, 2.0), 40.0, 1e-9);
  EXPECT_NEAR(fuel.rate(20.0, 2.0), p.idle_rate + p.willans_slope * 40.0, 1e-9);
}

TEST(FuelModel, ConsumeScalesWithDt) {
  oic::sim::FuelModel fuel;
  const double r = fuel.rate(30.0, 1.0);
  EXPECT_NEAR(fuel.consume(30.0, 1.0, 0.1), 0.1 * r, 1e-12);
  EXPECT_THROW(fuel.consume(30.0, 1.0, -0.1), oic::PreconditionError);
}

TEST(FuelModel, RegenCreditsBrakingButNeverNegative) {
  oic::sim::FuelParams p;
  p.regen_fraction = 1.0;
  oic::sim::FuelModel fuel(p);
  EXPECT_GE(fuel.rate(30.0, -10.0), 0.0);
  EXPECT_LE(fuel.rate(30.0, -10.0), p.idle_rate);
}

TEST(Trace, AggregatesTotals) {
  oic::sim::Trace trace;
  for (int t = 0; t < 4; ++t) {
    oic::sim::TraceStep s;
    s.t = static_cast<std::size_t>(t);
    s.x = Vector{0.0, 0.0};
    s.u = Vector{t % 2 == 0 ? 2.0 : -1.0};
    s.z = t % 2;
    s.forced = (t == 3);
    s.fuel = 0.5;
    trace.add(s);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_DOUBLE_EQ(trace.total_fuel(), 2.0);
  EXPECT_DOUBLE_EQ(trace.total_energy(), 2.0 + 1.0 + 2.0 + 1.0);
  EXPECT_EQ(trace.skipped_steps(), 2u);
  EXPECT_EQ(trace.forced_steps(), 1u);
  EXPECT_EQ(trace.controller_steps(), 2u);
  EXPECT_DOUBLE_EQ(trace.skip_ratio(), 0.5);
}

TEST(Trace, EmptyTraceSafeDefaults) {
  oic::sim::Trace trace;
  EXPECT_DOUBLE_EQ(trace.skip_ratio(), 0.0);
  EXPECT_THROW(trace[0], oic::PreconditionError);
}

}  // namespace
