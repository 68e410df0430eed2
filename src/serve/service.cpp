#include "serve/service.hpp"

#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "core/drl_policy.hpp"
#include "eval/harness.hpp"
#include "rl/serialize.hpp"

namespace oic::serve {

namespace {

/// Exact bitwise parameter equality of two networks -- the agent
/// hot-reload guard (a rewritten file with identical parameters must not
/// count as a swap).
bool mlp_bit_equal(const rl::Mlp& a, const rl::Mlp& b) {
  if (a.sizes() != b.sizes()) return false;
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    const auto& wa = a.weight(l);
    const auto& wb = b.weight(l);
    if (std::memcmp(wa.data(), wb.data(), wa.rows() * wa.cols() * sizeof(double)) !=
        0) {
      return false;
    }
    const auto& ba = a.bias(l).data();
    const auto& bb = b.bias(l).data();
    if (std::memcmp(ba.data(), bb.data(), ba.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The agent loader of a DRL group, for open and reload alike: read the
/// agent file `spec` names and check that it fits plant `plant_id` -- its
/// plant tag, its scale width, and state_dim = nx (1 + memory).  Returns
/// the group's policy, or nullptr with the rejection reason in `error`.
std::unique_ptr<core::DrlPolicy> load_group_agent(const eval::PolicySpec& spec,
                                                  const std::string& plant_id,
                                                  std::size_t nx, std::string& error) {
  try {
    rl::AgentSnapshot snap = rl::load_agent_file(spec.path);
    const std::size_t state_dim = snap.net.sizes().front();
    if (!snap.plant.empty() && snap.plant != plant_id) {
      error = "agent was trained on plant '" + snap.plant + "', not '" + plant_id + "'";
      return nullptr;
    }
    if (!snap.state_scale.empty() && snap.state_scale.size() != state_dim) {
      error = "scale/network dimension mismatch";
      return nullptr;
    }
    const std::size_t w_dim = state_dim / (snap.memory + 1);
    if (w_dim != nx || state_dim != nx + snap.memory * w_dim) {
      error = "agent dimensions do not fit plant '" + plant_id + "'";
      return nullptr;
    }
    return core::DrlPolicy::from_network(std::make_shared<rl::Mlp>(std::move(snap.net)),
                                         snap.memory, w_dim,
                                         std::move(snap.state_scale), spec.text);
  } catch (const Error& e) {
    error = e.what();
    return nullptr;
  }
}

}  // namespace

struct Service::PlantEntry {
  cert::PlantModel model;
  cert::PlantCertificate cert;
};

struct Service::Group {
  std::string plant_id;
  eval::PolicySpec spec;
  PlantEntry* plant = nullptr;
  /// Omega of every session in the group (a DrlPolicy for drl groups);
  /// null for periodic groups, whose sessions own theirs.
  std::unique_ptr<core::SkipPolicy> policy;

  // Burst groups: deepest certifiable rung, min(spec.count, ladder size),
  // recomputed on certificate hot-swap (the ladder may change depth).
  std::size_t max_burst = 0;

  struct PendingDecide {
    std::uint64_t session = 0;
    Session* entry = nullptr;  ///< node-stable; a close purges the decide
    std::size_t out_index = 0;
    const Request* req = nullptr;
  };
  std::vector<PendingDecide> pending;

  // Phase-2 scratch, grown on demand and reused allocation-free.
  core::DecisionCore core;
  std::vector<core::DecisionRow> rows;
  std::vector<core::RowDecision> decisions;

  // Per-tick side-effect buffer: run_group may execute on a tick-pool
  // worker concurrently with other groups, so counter bumps and
  // XI-violation session closures are staged here and merged into the
  // shared state in deterministic group order after the join.
  ServiceCounters tick_counters;
  std::vector<std::uint64_t> tick_closed;
};

Service::Service(const eval::ScenarioRegistry& registry, ServiceConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (!config_.cert_dir.empty()) {
    store_ = std::make_unique<cert::Store>(config_.cert_dir);
    provider_ = store_->provider();
  }
  if (config_.workers != 1) {
    pool_ = std::make_unique<ThreadPool>(config_.workers);
  }
  if (config_.tick_workers != 1) {
    tick_pool_ = std::make_unique<ThreadPool>(config_.tick_workers);
  }
}

Service::~Service() = default;

Service::PlantEntry* Service::resolve_plant(const std::string& plant_id,
                                            std::string& error) {
  auto it = plants_.find(plant_id);
  if (it != plants_.end()) return it->second.get();
  try {
    auto entry = std::make_unique<PlantEntry>(
        PlantEntry{registry_.make_model(plant_id), cert::PlantCertificate{}});
    entry->cert = cert::resolve(entry->model, provider_);
    PlantEntry* raw = entry.get();
    plants_.emplace(plant_id, std::move(entry));
    return raw;
  } catch (const Error& e) {
    error = e.what();
    return nullptr;
  }
}

std::size_t Service::resolve_group(const std::string& plant_id,
                                   const std::string& policy, std::string& error) {
  const std::string key = plant_id + '\n' + policy;
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return it->second;

  eval::PolicySpec spec;
  try {
    spec = eval::parse_policy_spec(policy);
  } catch (const Error& e) {
    error = e.what();
    return kNoGroup;
  }
  PlantEntry* plant = resolve_plant(plant_id, error);
  if (plant == nullptr) return kNoGroup;

  auto group = std::make_unique<Group>();
  group->plant_id = plant_id;
  group->spec = spec;
  group->plant = plant;
  if (spec.kind == eval::PolicySpec::Kind::kBurst) {
    // Burst serving needs the certificate's k-step skip ladder -- the
    // same precondition the per-session IntermittentController enforces.
    if (plant->cert.ladder.empty()) {
      error = "policy '" + policy + "': plant '" + plant_id +
              "' has no certified skip ladder (burst mode needs one)";
      return kNoGroup;
    }
    group->max_burst = std::min(spec.count, plant->cert.ladder.size());
  }
  if (spec.kind == eval::PolicySpec::Kind::kDrl) {
    group->policy = load_group_agent(spec, plant_id, plant->model.sys.nx(), error);
    if (!group->policy) {
      error = "policy '" + policy + "': " + error;
      return kNoGroup;
    }
  } else if (spec.kind != eval::PolicySpec::Kind::kPeriodic) {
    group->policy = eval::make_policy(policy);
  }
  groups_.push_back(std::move(group));
  group_index_.emplace(key, groups_.size() - 1);
  return groups_.size() - 1;
}

void Service::reload(std::uint64_t& certs_swapped, std::uint64_t& agents_swapped) {
  if (store_) {
    for (auto& [id, entry] : plants_) {
      auto fresh = store_->load_if_fresh(entry->model);
      if (fresh && !cert::bit_equal(*fresh, entry->cert)) {
        entry->cert = std::move(*fresh);
        ++certs_swapped;
      }
    }
    // A swapped certificate may carry a shallower (or deeper) ladder:
    // re-clamp every burst group's rung ceiling so countdown starts never
    // index past the live ladder.  Running countdowns stay valid -- they
    // were certified against the rung that was live when they started.
    for (auto& group : groups_) {
      if (group->spec.kind != eval::PolicySpec::Kind::kBurst) continue;
      group->max_burst =
          std::min(group->spec.count, group->plant->cert.ladder.size());
    }
  }
  for (auto& group : groups_) {
    if (group->spec.kind != eval::PolicySpec::Kind::kDrl) continue;
    std::string error;
    std::unique_ptr<core::DrlPolicy> fresh = load_group_agent(
        group->spec, group->plant_id, group->plant->model.sys.nx(), error);
    // An unreadable, malformed or misfit rewrite keeps the loaded agent;
    // sessions keep running.
    if (!fresh) continue;
    const auto& live = static_cast<const core::DrlPolicy&>(*group->policy);
    const bool changed = fresh->memory() != live.memory() ||
                         fresh->state_scale().data() != live.state_scale().data() ||
                         !mlp_bit_equal(fresh->network(), live.network());
    if (!changed) continue;
    group->policy = std::move(fresh);
    ++agents_swapped;
  }
}

void Service::serve(const std::vector<Request>& in, std::vector<Response>& out) {
  out.assign(in.size(), Response{});
  ++tick_serial_;

  auto fail = [&](Response& res, std::string msg) {
    res.kind = Response::Kind::kError;
    res.error = std::move(msg);
    ++counters_.errors;
  };

  // Phase 1: session-table mutations and decide validation, request order.
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Request& r = in[i];
    Response& res = out[i];
    res.ref = r.ref;
    res.session = r.session;
    switch (r.kind) {
      case Request::Kind::kOpen: {
        if (sessions_.count(r.session) != 0) {
          fail(res, "session " + std::to_string(r.session) + " is already open");
          break;
        }
        if (sessions_.size() >= config_.max_sessions) {
          fail(res, "session table is full (" +
                        std::to_string(config_.max_sessions) + " sessions)");
          break;
        }
        std::string error;
        const std::size_t gidx = resolve_group(r.plant, r.policy, error);
        if (gidx == kNoGroup) {
          fail(res, std::move(error));
          break;
        }
        Session session;
        session.group = gidx;
        session.state = core::SessionState(eval::kEpisodeWMemory);
        if (groups_[gidx]->spec.kind == eval::PolicySpec::Kind::kPeriodic) {
          session.policy =
              std::make_unique<core::PeriodicPolicy>(groups_[gidx]->spec.count);
        }
        sessions_.emplace(r.session, std::move(session));
        res.kind = Response::Kind::kOpened;
        break;
      }
      case Request::Kind::kClose: {
        auto it = sessions_.find(r.session);
        if (it == sessions_.end()) {
          fail(res, "unknown session " + std::to_string(r.session));
          break;
        }
        // A decide queued earlier in this batch must not run against the
        // erased session (or against a fresh one reopened under the same id
        // later in the batch): fail it and drop it from its group.
        Group& group = *groups_[it->second.group];
        for (auto pit = group.pending.begin(); pit != group.pending.end(); ++pit) {
          if (pit->session == r.session) {
            fail(out[pit->out_index],
                 "session " + std::to_string(r.session) +
                     " was closed later in the same batch before its decision ran");
            group.pending.erase(pit);
            break;  // phase-1 dup check guarantees at most one pending entry
          }
        }
        sessions_.erase(it);
        res.kind = Response::Kind::kClosed;
        break;
      }
      case Request::Kind::kReload: {
        ++counters_.reloads;
        std::uint64_t certs = 0, agents = 0;
        reload(certs, agents);
        counters_.cert_swaps += certs;
        counters_.agent_swaps += agents;
        res.kind = Response::Kind::kReloaded;
        res.certs = certs;
        res.agents = agents;
        break;
      }
      case Request::Kind::kDecide: {
        auto it = sessions_.find(r.session);
        if (it == sessions_.end()) {
          fail(res, "unknown session " + std::to_string(r.session));
          break;
        }
        Session& session = it->second;
        Group& group = *groups_[session.group];
        const control::AffineLTI& sys = group.plant->model.sys;
        if (r.x.size() != sys.nx()) {
          fail(res, "state dimension mismatch (expected " +
                        std::to_string(sys.nx()) + ", got " +
                        std::to_string(r.x.size()) + ")");
          break;
        }
        if (session.last_decide_tick == tick_serial_) {
          fail(res, "session " + std::to_string(r.session) +
                        " already has a pending decision in this batch");
          break;
        }
        if (!session.seeded) {
          if (r.has_u) {
            fail(res, "first decide of a session must not carry u");
            break;
          }
          session.seeded = true;
          session.x_prev = r.x;
        } else {
          if (!r.has_u) {
            fail(res, "decide must carry the previously actuated input u");
            break;
          }
          if (r.u.size() != sys.nu()) {
            fail(res, "input dimension mismatch (expected " +
                          std::to_string(sys.nu()) + ", got " +
                          std::to_string(r.u.size()) + ")");
            break;
          }
          session.state.record_transition(sys, session.x_prev, r.u, r.x);
          session.x_prev = r.x;
        }
        session.last_decide_tick = tick_serial_;
        if (session.state.take_burst_skip()) {
          // Inside a certified burst: the decide bypasses the group batch
          // entirely (no XI precondition check, no policy).
          res.kind = Response::Kind::kDecision;
          res.z = 0;
          res.forced = false;
          ++counters_.decisions;
          ++counters_.skipped;
          ++counters_.burst_skips;
          break;
        }
        group.pending.push_back({r.session, &session, i, &r});
        break;
      }
    }
  }

  // Phase 2: one fused batch per group.  Groups are data-disjoint (own
  // SoA workspaces, disjoint response slots, disjoint session sets), so
  // independent groups shard across the tick pool; each group's side
  // effects are buffered and merged below in group creation order, which
  // makes the whole pass bit-identical for any tick worker count.
  active_.clear();
  for (auto& group : groups_) {
    if (!group->pending.empty()) active_.push_back(group.get());
  }
  try {
    if (tick_pool_ && active_.size() > 1) {
      for (Group* group : active_) {
        // The intra-group membership pool is a single shared ThreadPool
        // whose wait_idle() is global; concurrent run_groups must not race
        // on it, so sharded groups chunk their membership pass inline.
        tick_pool_->submit([this, group, &out] { run_group(*group, out, false); });
      }
      tick_pool_->wait_idle();
    } else {
      for (Group* group : active_) run_group(*group, out, true);
    }
  } catch (...) {
    // A group that threw (OOM, ...) leaves the tick unanswered -- the
    // Server fails the whole batch.  Pending rows point into `in`, so
    // they must never survive into the next tick.
    for (Group* group : active_) {
      group->pending.clear();
      group->tick_closed.clear();
      group->tick_counters = ServiceCounters{};
    }
    throw;
  }
  for (Group* group : active_) {
    const ServiceCounters& tc = group->tick_counters;
    counters_.decisions += tc.decisions;
    counters_.skipped += tc.skipped;
    counters_.forced += tc.forced;
    counters_.errors += tc.errors;
    counters_.invariant_errors += tc.invariant_errors;
    group->tick_counters = ServiceCounters{};
    for (std::uint64_t sid : group->tick_closed) sessions_.erase(sid);
    group->tick_closed.clear();
    group->pending.clear();
  }
}

void Service::run_group(Group& group, std::vector<Response>& out, bool allow_pool) {
  const std::size_t n = group.pending.size();
  group.rows.resize(n);
  group.decisions.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Group::PendingDecide& p = group.pending[r];
    Session& session = *p.entry;
    group.rows[r] = {&p.req->x, &session.state,
                     session.policy ? session.policy.get() : group.policy.get()};
  }
  const cert::PlantCertificate& cert = group.plant->cert;
  const core::MonitorSpec spec{cert.sets, cert.ladder, group.max_burst, /*strict=*/true};
  group.core.decide(spec, group.rows.data(), n, /*policy_ok=*/true,
                    group.decisions.data(), allow_pool ? pool_.get() : nullptr);

  for (std::size_t r = 0; r < n; ++r) {
    const Group::PendingDecide& p = group.pending[r];
    const core::RowDecision& d = group.decisions[r];
    Response& res = out[p.out_index];
    if (d.verdict == core::Verdict::kLeftXi) {
      // Algorithm 1 line 2 precondition: a state outside XI means the
      // certificate's model assumptions were violated; where the
      // per-session framework aborts, the service closes the session.
      res.kind = Response::Kind::kError;
      res.error = "session " + std::to_string(p.session) +
                  ": state left the robust invariant set XI (Algorithm 1 "
                  "precondition); session closed";
      ++group.tick_counters.errors;
      ++group.tick_counters.invariant_errors;
      group.tick_closed.push_back(p.session);
      continue;
    }
    res.kind = Response::Kind::kDecision;
    res.z = d.z;
    res.forced = d.verdict == core::Verdict::kForced;
    ++group.tick_counters.decisions;
    if (res.z == 0) ++group.tick_counters.skipped;
    if (res.forced) ++group.tick_counters.forced;
  }
}

}  // namespace oic::serve
