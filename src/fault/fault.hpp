#pragma once
/// \file fault.hpp
/// Networked-control fault injection: the adversary model for the
/// intermittent framework's deployment assumptions.
///
/// Algorithm 1's safety argument silently assumes the monitor *sees* x(t)
/// every period and that its forced input *reaches* the plant.  A networked
/// deployment breaks exactly those assumptions first, on three channels:
///
///   * the measurement stream the monitor and the skip policy observe
///     (Bernoulli packet dropout, bounded delivery delay with jitter,
///     optional spike corruption of delivered samples),
///   * the actuation channel (Bernoulli packet drop with either
///     hold-last-input or zero-input receiver semantics),
///   * the skip-policy compute itself (a timeout makes Omega unavailable
///     for the period; the monitor must fall back to a conservative
///     default decision).
///
/// A FaultSpec declares the fault model (parsed from the CLI string
/// grammar, e.g. "meas_drop:0.05,meas_delay:2,act_drop:0.02,hold"); a Link
/// realizes one episode's fault streams deterministically from a single
/// 64-bit stream seed.  Each channel draws from its own substream
/// (derive_stream(stream, channel)) with a FIXED number of variates per
/// step, so (a) the realization is a pure function of (spec, stream) --
/// the Monte-Carlo layer's worker-count and checkpoint/resume
/// bit-invariance contracts survive faults -- and (b) enabling or tuning
/// one channel never perturbs another channel's stream.
///
/// The layer depends only on linalg/common: core::IntermittentController
/// consumes its Measurement view (degraded mode), and the episode loops in
/// core/runner and eval compose the two.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "linalg/vector.hpp"

namespace oic::fault {

/// Receiver semantics when an actuation packet is lost.
enum class ActDropMode {
  kZero,  ///< actuator applies zero input (fail-silent receiver)
  kHold,  ///< actuator re-applies the last delivered input (hold register)
};

/// Declarative fault model.  Default-constructed = no faults (every
/// channel ideal); active() is false and every consumer takes the exact
/// historical code path, bit for bit.
struct FaultSpec {
  double meas_drop = 0.0;        ///< P(measurement packet lost), in [0, 1]
  std::size_t meas_delay = 0;    ///< base delivery delay in control periods
  std::size_t meas_jitter = 0;   ///< extra random delay, uniform in {0..jitter}
  double meas_spike = 0.0;       ///< P(delivered sample spike-corrupted)
  double spike_gain = 0.5;       ///< relative spike magnitude (multiplicative)
  double act_drop = 0.0;         ///< P(actuation packet lost), in [0, 1]
  ActDropMode act_mode = ActDropMode::kZero;  ///< receiver drop semantics
  double policy_drop = 0.0;      ///< P(skip-policy compute unavailable)

  /// Any channel faulted?  False for the default spec: consumers then run
  /// the fault-free path, bit-identical to a run without a link.
  bool active() const;

  /// Canonical spec string: non-default fields in fixed key order (the
  /// parse() grammar), "" when inactive.  Feeds campaign fingerprints and
  /// the JSON "faults" config field, so equal fault models always
  /// fingerprint equally regardless of how the user spelled them.
  std::string canonical() const;

  /// Parse the CLI grammar: a comma-separated list of `key:value` tokens
  /// (meas_drop, meas_delay, meas_jitter, meas_spike, spike_gain,
  /// act_drop, policy_drop) plus the bare tokens `hold` / `zero` selecting
  /// the actuation drop semantics.  "" and "off" parse to the inactive
  /// spec.  Probabilities must lie in [0, 1], delays in [0, 64], gains
  /// must be finite and non-negative; anything else (unknown keys,
  /// duplicate keys, malformed numbers) throws PreconditionError.
  static FaultSpec parse(const std::string& text);
};

/// What the monitor observes at one step: the freshest measurement that
/// has arrived over the (lossy, delayed) sensor link, if any.
struct Measurement {
  bool available = false;  ///< anything arrived yet?
  std::size_t age = 0;     ///< staleness in steps (0 = taken this period)
  linalg::Vector x;        ///< measured state (possibly spike-corrupted)
};

/// One episode's deterministic fault realization (see file comment).
/// Not thread-safe; per-worker engines own their Link and re-arm it per
/// episode via reset().
class Link {
 public:
  /// Inactive link: every channel ideal, no substreams armed.
  Link() = default;

  Link(const FaultSpec& spec, std::uint64_t stream);

  const FaultSpec& spec() const { return spec_; }
  bool active() const { return spec_.active(); }

  /// Re-arm every channel substream for a new episode and clear the
  /// delivery queue, hold register, and counters.
  void reset(std::uint64_t stream);

  /// The sensor samples x_true at step t and transmits it; returns the
  /// freshest measurement that has ARRIVED by step t (possibly this one,
  /// possibly an older delayed packet, possibly nothing).  Steps must be
  /// consumed in order starting at t = 0.
  const Measurement& sense_and_observe(std::size_t t, const linalg::Vector& x_true);

  /// Skip-policy compute availability at step t (false = timeout; the
  /// monitor must substitute its conservative default decision).
  bool policy_available(std::size_t t);

  /// Push the commanded input through the actuation channel; returns the
  /// input the plant actually receives (the command, zero, or the held
  /// last delivery, per the spec's drop semantics).
  const linalg::Vector& actuate(std::size_t t, const linalg::Vector& u_cmd);

  /// Channel accounting for RunResult / EpisodeResult.
  std::size_t meas_dropped() const { return meas_dropped_; }
  std::size_t act_dropped() const { return act_dropped_; }
  std::size_t policy_dropped() const { return policy_dropped_; }

 private:
  struct Pending {
    std::size_t taken_at = 0;
    std::size_t arrives_at = 0;
    linalg::Vector x;
    bool in_flight = false;
  };

  FaultSpec spec_;
  Rng meas_rng_;    ///< measurement dropout channel
  Rng delay_rng_;   ///< delivery jitter channel
  Rng spike_rng_;   ///< spike corruption channel
  Rng act_rng_;     ///< actuation dropout channel
  Rng policy_rng_;  ///< policy-compute availability channel

  std::vector<Pending> queue_;  ///< in-flight measurements (ring by slot)
  Measurement observed_;        ///< freshest arrived measurement
  bool have_best_ = false;
  std::size_t best_taken_at_ = 0;

  linalg::Vector u_applied_;    ///< actuation scratch / hold register
  bool held_valid_ = false;

  std::size_t meas_dropped_ = 0;
  std::size_t act_dropped_ = 0;
  std::size_t policy_dropped_ = 0;
};

/// A named fault model for CLIs and docs ("lossy", "bursty-sensor", ...).
struct FaultPreset {
  std::string id;
  std::string description;
  std::string spec;  ///< FaultSpec::parse input
};

/// The standard preset catalogue (registered with eval::ScenarioRegistry;
/// `--faults <id>` resolves here before falling back to the raw grammar).
const std::vector<FaultPreset>& standard_fault_presets();

}  // namespace oic::fault
