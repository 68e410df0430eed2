#include "eval/policy_spec.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/textio.hpp"
#include "core/drl_policy.hpp"
#include "rl/serialize.hpp"

namespace oic::eval {

namespace {

/// Strict positive-count parse for policy-spec payloads: textio's u64
/// token rule (no sign, no trailing junk -- strtoul would wrap "-2" to a
/// huge depth), at most 9 digits, at least 1.
bool parse_policy_count(const std::string& payload, std::size_t& out) {
  std::uint64_t v = 0;
  if (payload.size() > 9 || !textio::parse_u64(payload, v) || v < 1) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

PolicySpec parse_policy_spec(const std::string& spec) {
  PolicySpec out;
  out.text = spec;
  OIC_REQUIRE(!spec.empty(), "policy spec must not be empty");
  OIC_REQUIRE(spec.find_first_of(" \t\r\n") == std::string::npos,
              "policy '" + spec + "': specs are single whitespace-free tokens");
  if (spec == "always-run") {
    out.kind = PolicySpec::Kind::kAlwaysRun;
    return out;
  }
  if (spec == "bang-bang") {
    out.kind = PolicySpec::Kind::kBangBang;
    return out;
  }
  const std::string periodic = "periodic-";
  if (spec.rfind(periodic, 0) == 0) {
    const std::string payload = spec.substr(periodic.size());
    if (!parse_policy_count(payload, out.count)) {
      throw PreconditionError("policy '" + spec +
                              "': period must be a positive integer (periodic-N)");
    }
    out.kind = PolicySpec::Kind::kPeriodic;
    return out;
  }
  const std::string burst = "burst:";
  if (spec.rfind(burst, 0) == 0) {
    if (!parse_policy_count(spec.substr(burst.size()), out.count)) {
      throw PreconditionError("policy '" + spec + "': burst depth must be >= 1");
    }
    out.kind = PolicySpec::Kind::kBurst;
    return out;
  }
  const std::string drl = "drl:";
  if (spec.rfind(drl, 0) == 0) {
    out.path = spec.substr(drl.size());
    if (out.path.empty()) {
      throw PreconditionError("policy '" + spec + "': missing agent file path");
    }
    out.kind = PolicySpec::Kind::kDrl;
    return out;
  }
  throw PreconditionError(
      "unknown policy '" + spec +
      "' (known: always-run, bang-bang, periodic-N, burst:<k>, drl:<path>)");
}

std::unique_ptr<core::SkipPolicy> make_policy(const std::string& spec) {
  const PolicySpec parsed = parse_policy_spec(spec);
  switch (parsed.kind) {
    case PolicySpec::Kind::kAlwaysRun:
      return std::make_unique<core::AlwaysRunPolicy>();
    case PolicySpec::Kind::kBangBang:
      return std::make_unique<core::BangBangPolicy>();
    case PolicySpec::Kind::kPeriodic:
      return std::make_unique<core::PeriodicPolicy>(parsed.count);
    case PolicySpec::Kind::kBurst:
      // Bang-bang decisions plus a certified k-burst request; the engines
      // wire the plant certificate's skip ladder into the framework
      // (IntermittentConfig::burst_depth), which amortizes the monitor
      // over each burst.  Depth is clamped to the plant's actual ladder.
      return std::make_unique<core::BurstSkipPolicy>(parsed.count);
    case PolicySpec::Kind::kDrl:
      break;
  }
  // "drl:<path>": a trained skipping agent serialized by oic_train.  Each
  // call loads its own copy -- per-worker policy sets stay independently
  // owned; the files are small (a few hundred KB of text).  Greedy
  // decisions are stateless, so the policy is trivially reset()-complete
  // (the parallel engine's bit-parity requirement).
  rl::AgentSnapshot snap = [&]() -> rl::AgentSnapshot {
    try {
      return rl::load_agent_file(parsed.path);
    } catch (const Error& e) {
      throw PreconditionError("policy '" + spec + "': " + std::string(e.what()));
    }
  }();
  const std::size_t state_dim = snap.net.sizes().front();
  // An empty scale is a documented format case ("no scaling"); a
  // non-empty one must match the network input.
  OIC_REQUIRE(snap.state_scale.empty() || snap.state_scale.size() == state_dim,
              "policy '" + spec + "': scale/network dimension mismatch");
  const std::size_t w_dim = state_dim / (snap.memory + 1);
  return core::DrlPolicy::from_network(
      std::make_shared<rl::Mlp>(std::move(snap.net)), snap.memory, w_dim,
      std::move(snap.state_scale), spec);
}

}  // namespace oic::eval
