#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "common/textio.hpp"

namespace oic::fault {
namespace {

/// Channel indices for derive_stream(stream, channel): one fixed substream
/// per channel, so enabling or tuning one channel never perturbs another.
enum Channel : std::uint64_t {
  kMeasDropChannel = 0,
  kDelayChannel = 1,
  kSpikeChannel = 2,
  kActChannel = 3,
  kPolicyChannel = 4,
};

constexpr std::size_t kMaxDelay = 64;

/// A finite decimal value (textio's token rule: no hex, no blanks).
double parse_number(const std::string& key, const std::string& text) {
  double v = 0.0;
  OIC_REQUIRE(textio::parse_finite(text, v),
              "fault spec: '" + key + "' expects a number, got '" + text + "'");
  return v;
}

double parse_prob(const std::string& key, const std::string& text) {
  const double v = parse_number(key, text);
  OIC_REQUIRE(v >= 0.0 && v <= 1.0,
              "fault spec: '" + key + "' must lie in [0, 1], got '" + text + "'");
  return v;
}

double parse_gain(const std::string& key, const std::string& text) {
  const double v = parse_number(key, text);
  OIC_REQUIRE(v >= 0.0,
              "fault spec: '" + key + "' must be non-negative, got '" + text + "'");
  return v;
}

std::size_t parse_delay(const std::string& key, const std::string& text) {
  std::uint64_t v = 0;
  OIC_REQUIRE(textio::parse_u64(text, v), "fault spec: '" + key +
                  "' expects an integer in [0, 64], got '" + text + "'");
  OIC_REQUIRE(v <= kMaxDelay,
              "fault spec: '" + key + "' must be at most 64, got '" + text + "'");
  return static_cast<std::size_t>(v);
}

/// Shortest decimal that round-trips through strtod; keeps canonical spec
/// strings human-readable ("0.05", not "0.05000000000000000277...").
std::string format_double(double v) {
  char buf[64];
  for (const int prec : {6, 9, 12, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

bool FaultSpec::active() const {
  return meas_drop > 0.0 || meas_delay > 0 || meas_jitter > 0 || meas_spike > 0.0 ||
         act_drop > 0.0 || policy_drop > 0.0;
}

std::string FaultSpec::canonical() const {
  if (!active()) return "";
  std::string out;
  const auto add = [&out](const std::string& token) {
    if (!out.empty()) out += ",";
    out += token;
  };
  if (meas_drop > 0.0) add("meas_drop:" + format_double(meas_drop));
  if (meas_delay > 0) add("meas_delay:" + std::to_string(meas_delay));
  if (meas_jitter > 0) add("meas_jitter:" + std::to_string(meas_jitter));
  if (meas_spike > 0.0) {
    add("meas_spike:" + format_double(meas_spike));
    if (spike_gain != 0.5) add("spike_gain:" + format_double(spike_gain));
  }
  if (act_drop > 0.0) {
    add("act_drop:" + format_double(act_drop));
    if (act_mode == ActDropMode::kHold) add("hold");
  }
  if (policy_drop > 0.0) add("policy_drop:" + format_double(policy_drop));
  return out;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty() || text == "off") return spec;

  std::vector<std::string> seen;
  const auto once = [&seen](const std::string& key) {
    for (const auto& s : seen) {
      OIC_REQUIRE(s != key, "fault spec: duplicate key '" + key + "'");
    }
    seen.push_back(key);
  };

  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) {
      const std::size_t colon = token.find(':');
      if (colon == std::string::npos) {
        once(token);
        if (token == "hold") {
          spec.act_mode = ActDropMode::kHold;
        } else if (token == "zero") {
          spec.act_mode = ActDropMode::kZero;
        } else {
          OIC_REQUIRE(false, "fault spec: unknown token '" + token +
                                 "' (expected key:value, 'hold', or 'zero')");
        }
      } else {
        const std::string key = token.substr(0, colon);
        const std::string value = token.substr(colon + 1);
        once(key);
        if (key == "meas_drop") {
          spec.meas_drop = parse_prob(key, value);
        } else if (key == "meas_delay") {
          spec.meas_delay = parse_delay(key, value);
        } else if (key == "meas_jitter") {
          spec.meas_jitter = parse_delay(key, value);
        } else if (key == "meas_spike") {
          spec.meas_spike = parse_prob(key, value);
        } else if (key == "spike_gain") {
          spec.spike_gain = parse_gain(key, value);
        } else if (key == "act_drop") {
          spec.act_drop = parse_prob(key, value);
        } else if (key == "policy_drop") {
          spec.policy_drop = parse_prob(key, value);
        } else {
          OIC_REQUIRE(false, "fault spec: unknown key '" + key + "'");
        }
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  const auto saw = [&seen](const char* key) {
    for (const auto& s : seen) {
      if (s == key) return true;
    }
    return false;
  };
  OIC_REQUIRE(!(saw("hold") && saw("zero")),
              "fault spec: 'hold' and 'zero' are mutually exclusive");
  return spec;
}

Link::Link(const FaultSpec& spec, std::uint64_t stream) : spec_(spec) {
  reset(stream);
}

void Link::reset(std::uint64_t stream) {
  meas_rng_ = Rng(derive_stream(stream, kMeasDropChannel));
  delay_rng_ = Rng(derive_stream(stream, kDelayChannel));
  spike_rng_ = Rng(derive_stream(stream, kSpikeChannel));
  act_rng_ = Rng(derive_stream(stream, kActChannel));
  policy_rng_ = Rng(derive_stream(stream, kPolicyChannel));
  for (auto& slot : queue_) slot.in_flight = false;
  observed_ = Measurement{};
  have_best_ = false;
  best_taken_at_ = 0;
  held_valid_ = false;
  meas_dropped_ = 0;
  act_dropped_ = 0;
  policy_dropped_ = 0;
}

const Measurement& Link::sense_and_observe(std::size_t t, const linalg::Vector& x_true) {
  // Transmit this period's sample (each channel draws at a fixed point in
  // its own substream, so the realization is a pure function of the spec
  // and the stream seed).
  const bool dropped = spec_.meas_drop > 0.0 && meas_rng_.bernoulli(spec_.meas_drop);
  const std::size_t jitter =
      spec_.meas_jitter > 0
          ? static_cast<std::size_t>(
                delay_rng_.uniform_int(0, static_cast<int>(spec_.meas_jitter)))
          : 0;
  if (dropped) {
    ++meas_dropped_;
  } else {
    Pending* slot = nullptr;
    for (auto& s : queue_) {
      if (!s.in_flight) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      queue_.emplace_back();
      slot = &queue_.back();
    }
    slot->taken_at = t;
    slot->arrives_at = t + spec_.meas_delay + jitter;
    slot->x = x_true;
    slot->in_flight = true;
    if (spec_.meas_spike > 0.0 && spike_rng_.bernoulli(spec_.meas_spike)) {
      // Multiplicative per-component corruption: scale-free across plants
      // whose state magnitudes differ by orders of magnitude.
      for (std::size_t i = 0; i < slot->x.size(); ++i) {
        slot->x[i] *= 1.0 + spec_.spike_gain * spike_rng_.normal();
      }
    }
  }

  // Deliver everything that has arrived by t; the freshest sample (by
  // taken_at) wins, so a delayed packet never overwrites newer data.
  for (auto& s : queue_) {
    if (!s.in_flight || s.arrives_at > t) continue;
    if (!have_best_ || s.taken_at >= best_taken_at_) {
      have_best_ = true;
      best_taken_at_ = s.taken_at;
      observed_.x = s.x;
    }
    s.in_flight = false;
  }
  observed_.available = have_best_;
  observed_.age = have_best_ ? t - best_taken_at_ : 0;
  return observed_;
}

bool Link::policy_available(std::size_t t) {
  (void)t;
  if (spec_.policy_drop <= 0.0) return true;
  const bool dropped = policy_rng_.bernoulli(spec_.policy_drop);
  if (dropped) ++policy_dropped_;
  return !dropped;
}

const linalg::Vector& Link::actuate(std::size_t t, const linalg::Vector& u_cmd) {
  (void)t;
  const bool dropped = spec_.act_drop > 0.0 && act_rng_.bernoulli(spec_.act_drop);
  if (!dropped) {
    u_applied_ = u_cmd;
    held_valid_ = true;
    return u_applied_;
  }
  ++act_dropped_;
  if (spec_.act_mode == ActDropMode::kHold && held_valid_) {
    return u_applied_;  // hold register keeps the last delivered input
  }
  u_applied_ = linalg::Vector(u_cmd.size());
  held_valid_ = false;
  return u_applied_;
}

const std::vector<FaultPreset>& standard_fault_presets() {
  static const std::vector<FaultPreset> presets = {
      {"lossy",
       "wireless-grade sensing and actuation: 5% measurement drop, 2-step "
       "delivery delay, 2% actuation drop with hold-last-input",
       "meas_drop:0.05,meas_delay:2,act_drop:0.02,hold"},
      {"bursty-sensor",
       "congested sensor link: 15% measurement drop with up to 3 steps of "
       "delivery jitter",
       "meas_drop:0.15,meas_jitter:3"},
      {"noisy-sensor",
       "EMI-corrupted sensing: 10% of delivered samples spike-corrupted at "
       "30% relative magnitude",
       "meas_spike:0.1,spike_gain:0.3"},
      {"weak-actuator",
       "fail-silent actuation: 5% actuation drop with zero-input semantics",
       "act_drop:0.05,zero"},
      {"overloaded",
       "shared compute under load: skip policy unavailable 10% of periods, "
       "2% measurement drop",
       "meas_drop:0.02,policy_drop:0.1"},
  };
  return presets;
}

}  // namespace oic::fault
