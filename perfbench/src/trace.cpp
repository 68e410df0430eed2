#include "trace.hpp"

#include <cstdio>

namespace perfbench {

using oic::linalg::Vector;

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kUnit: return "unit";
    case Stage::kSetup: return "setup";
    case Stage::kPeriod: return "period";
    case Stage::kMpc: return "mpc";
    case Stage::kPolicy: return "policy";
    case Stage::kHook: return "hook";
    case Stage::kTail: return "tail";
  }
  return "?";
}

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

void Tracer::begin_unit(std::uint64_t unit, double t_call) {
  unit_ = unit;
  unit_open_ = true;
  unit_t0_ = t_call;
  last_marker_ = t_call;
  period_open_ = false;
  setup_recorded_ = false;
  cur_mpc_ = cur_policy_ = cur_hooks_ = 0.0;
  pending_.clear();
  unit_span_ = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({Stage::kUnit, unit_span_, unit, t_call, t_call});
}

void Tracer::stage(Stage s, double t0, double t1, bool drl) {
  if (!unit_open_) return;
  if (!period_open_) {
    period_open_ = true;
    period_t0_ = last_marker_;
    if (!setup_recorded_) {
      setup_recorded_ = true;
      stats_.unit_setup_us.push_back(period_t0_ - unit_t0_);
      spans_.push_back({Stage::kSetup, unit_span_, unit_, unit_t0_, period_t0_});
    }
  }
  if (t0 < period_t0_) ++stats_.nesting_violations;
  const double d = t1 - t0;
  switch (s) {
    case Stage::kMpc:
      cur_mpc_ += d;
      stats_.mpc_call_us.push_back(d);
      ++stats_.mpc_calls;
      break;
    case Stage::kPolicy:
      cur_policy_ += d;
      if (drl) {
        stats_.drl_call_us.push_back(d);
        ++stats_.drl_calls;
      }
      break;
    default:
      cur_hooks_ += d;
      break;
  }
  pending_.push_back({s, 0, unit_, t0, t1});
}

void Tracer::boundary(double t) {
  if (!unit_open_ || !period_open_) return;
  const double period = t - period_t0_;
  const double self = period - cur_mpc_ - cur_policy_ - cur_hooks_;
  // Stages are sequential calls inside the period: a negative self time
  // means two stages overlapped or one fell outside its period.
  if (self < -1e-3) ++stats_.nesting_violations;
  stats_.period_us.push_back(period);
  stats_.self_us.push_back(self);
  stats_.hooks_us.push_back(cur_hooks_);
  stats_.period_sum += period;
  stats_.self_sum += self;
  stats_.mpc_sum += cur_mpc_;
  stats_.policy_sum += cur_policy_;
  stats_.hooks_sum += cur_hooks_;
  ++stats_.periods;
  if (unit_drl_) ++stats_.drl_periods;

  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({Stage::kPeriod, unit_span_, unit_, period_t0_, t});
  for (Span sp : pending_) {
    sp.parent = idx;
    spans_.push_back(sp);
  }
  pending_.clear();
  cur_mpc_ = cur_policy_ = cur_hooks_ = 0.0;
  // Periods are contiguous: the next one starts where this one ended.
  period_t0_ = t;
}

void Tracer::end_unit(double t_return) {
  if (!unit_open_) return;
  // Stages after the last boundary (the final step's hooks) and the
  // result assembly form the unit's tail.
  const double tail_t0 = period_open_ ? period_t0_ : t_return;
  if (!setup_recorded_) stats_.unit_setup_us.push_back(t_return - unit_t0_);
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({Stage::kTail, unit_span_, unit_, tail_t0, t_return});
  for (Span sp : pending_) {
    sp.parent = idx;
    spans_.push_back(sp);
  }
  pending_.clear();
  spans_[unit_span_].t1 = t_return;
  unit_open_ = false;
  period_open_ = false;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "# stage parent unit t0_us t1_us\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s %u %llu %.3f %.3f\n", stage_name(s.stage), s.parent,
                 static_cast<unsigned long long>(s.unit), s.t0, s.t1);
  }
  std::fclose(f);
}

Vector TimedTubeMpc::control(const Vector& x) {
  ++calls_;
  const double t0 = tracer_->now_us();
  try {
    Vector u = oic::control::TubeMpc::control(x);
    tracer_->stage(Stage::kMpc, t0, tracer_->now_us());
    return u;
  } catch (...) {
    tracer_->stage(Stage::kMpc, t0, tracer_->now_us());
    throw;
  }
}

int TimedPolicy::decide(const Vector& x, const oic::core::WHistory& w) {
  ++calls_;
  const double t0 = tracer_->now_us();
  const int z = inner_->decide(x, w);
  tracer_->stage(Stage::kPolicy, t0, tracer_->now_us(), drl_);
  return z;
}

namespace {
std::atomic<std::uint64_t> g_clock_ids{1};
struct LaneCache {
  std::uint64_t owner = 0;
  void* lane = nullptr;
};
thread_local LaneCache t_lane;
}  // namespace

CaseClock::CaseClock() : id_(g_clock_ids.fetch_add(1)) {}

CaseClock::Lane& CaseClock::lane() {
  if (t_lane.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_.push_back(std::make_unique<Lane>());
    t_lane.owner = id_;
    t_lane.lane = lanes_.back().get();
  }
  return *static_cast<Lane*>(t_lane.lane);
}

void CaseClock::stamp() {
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  lane().stamps.emplace_back(epoch, Clock::now());
}

std::vector<double> CaseClock::durations_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& l : lanes_) {
    for (std::size_t i = 1; i < l->stamps.size(); ++i) {
      if (l->stamps[i].first != l->stamps[i - 1].first) continue;
      out.push_back(std::chrono::duration<double, std::milli>(l->stamps[i].second -
                                                              l->stamps[i - 1].second)
                        .count());
    }
  }
  return out;
}

ProxyPlant::ProxyPlant(const oic::eval::PlantCase& inner, Tracer* tracer,
                       CaseClock* clock)
    : inner_(inner), tracer_(tracer), clock_(clock) {
  if (tracer_) {
    auto timed = std::make_unique<TimedTubeMpc>(inner.rmpc(), tracer_);
    timed_ = timed.get();
    rmpc_ = std::move(timed);
  } else {
    rmpc_ = std::make_unique<oic::control::TubeMpc>(inner.rmpc());
  }
}

const oic::control::AffineLTI& ProxyPlant::system() const {
  mark();
  return inner_.system();
}

oic::control::TubeMpc& ProxyPlant::rmpc() {
  mark();
  return *rmpc_;
}

const oic::control::TubeMpc& ProxyPlant::rmpc() const {
  mark();
  return *rmpc_;
}

const oic::core::SafeSets& ProxyPlant::sets() const {
  mark();
  return inner_.sets();
}

Vector ProxyPlant::sample_x0(oic::Rng& rng) const {
  Vector x = inner_.sample_x0(rng);
  if (clock_) clock_->stamp();
  mark();
  return x;
}

void ProxyPlant::signal_to_w(double signal, Vector& w) const {
  if (!tracer_) {
    inner_.signal_to_w(signal, w);
    return;
  }
  const double t0 = tracer_->now_us();
  inner_.signal_to_w(signal, w);
  const double t1 = tracer_->now_us();
  tracer_->stage(Stage::kHook, t0, t1);
  tracer_->boundary(t1);
}

double ProxyPlant::cost_step(const Vector& x, const Vector& u, bool controller_ran) const {
  if (!tracer_) return inner_.cost_step(x, u, controller_ran);
  const double t0 = tracer_->now_us();
  const double c = inner_.cost_step(x, u, controller_ran);
  tracer_->stage(Stage::kHook, t0, tracer_->now_us());
  return c;
}

double ProxyPlant::energy_raw(const Vector& u) const {
  if (!tracer_) return inner_.energy_raw(u);
  const double t0 = tracer_->now_us();
  const double e = inner_.energy_raw(u);
  tracer_->stage(Stage::kHook, t0, tracer_->now_us());
  return e;
}

double ProxyPlant::train_cost_rate(const Vector& x, const Vector& u) const {
  if (!tracer_) return inner_.train_cost_rate(x, u);
  const double t0 = tracer_->now_us();
  const double c = inner_.train_cost_rate(x, u);
  tracer_->stage(Stage::kHook, t0, tracer_->now_us());
  return c;
}

oic::eval::ScenarioRegistry proxy_registry(
    const std::vector<std::string>& ids,
    const std::vector<const oic::eval::PlantCase*>& plants, CaseClock* clock) {
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  oic::eval::ScenarioRegistry reg;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    oic::eval::PlantInfo info = builtin.plant(ids[i]);
    const oic::eval::PlantCase* plant = plants[i];
    info.make_plant = [plant, clock](const oic::cert::Provider&) {
      return std::make_unique<ProxyPlant>(*plant, nullptr, clock);
    };
    reg.add(std::move(info));
  }
  for (const auto& preset : builtin.fault_presets()) reg.add_fault_preset(preset);
  return reg;
}

}  // namespace perfbench
