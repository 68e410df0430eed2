#pragma once
/// \file common.hpp
/// Shared plumbing of the benchmark runner: arguments, the result object
/// every workload fills, clocks, order statistics, and memory probes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory inside the checkout
  std::string serve_bin;  ///< the oic_serve binary (serve workload)
  bool quick = false;     ///< self-check sizing: everything small
};

/// What a run reports: the benchmark's result object plus diagnostics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why `failed` moved (stderr)
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Count `n` failed operations, with a reason for the log.
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    if (problems.size() < 32) problems.push_back(why);
  }
  /// A check over `n` operations: counts them as attempted, and as failed
  /// when `ok` is false.
  void check(bool ok, const std::string& what, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) fail(what, n);
  }
};

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median_of(const std::vector<double>& v) { return quantile(v, 0.5); }


/// Seconds one fixed calibration loop takes right now (scalar and vector
/// FP on a 64x64 panel, a dependent walk over a 4 MiB table, integer
/// hashing).  The loop is the benchmark's own code, so no change to the
/// program can move it; it measures how fast this host runs at the moment.
double calibration_s();

/// calibration_s() on a quiet host of the kind the benchmark was tuned on
/// (a 4-vCPU x86-64 VM with AVX2).  Rates and times are reported at this
/// reference speed: on a shared host the neighbours' load moves every wall
/// and CPU time by tens of percent within minutes, and the calibration
/// loop, timed right before and after each measured interval, moves with
/// it.
inline constexpr double kCalibrationRefS = 0.009;

/// How much slower than the reference the host ran over an interval
/// bracketed by two calibration timings (1 = reference speed).  Multiply
/// a measured rate by it, divide a measured time by it.
inline double host_slowness(double cal_before, double cal_after) {
  return 0.5 * (cal_before + cal_after) / kCalibrationRefS;
}

/// CPU seconds (user + system, all threads) consumed by this process.
double self_cpu_s();

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Peak resident set (VmHWM) of another live process, in MB; 0 if unknown.
double process_peak_rss_mb(int pid);

/// User + system CPU seconds consumed so far by another live process.
double process_cpu_s(int pid);

/// Remove a directory tree (best effort) and create it empty.
void fresh_dir(const std::string& path);

}  // namespace perfbench
