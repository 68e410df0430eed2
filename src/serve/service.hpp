#pragma once
/// \file service.hpp
/// The multi-session monitor core: a session table keyed by
/// (plant, certificate, policy) whose per-tick decision pass is batched.
///
/// Each serve() call is one tick.  Phase 1 walks the request batch in
/// order: opens/closes mutate the session table, reloads re-resolve
/// certificates and agents through the cert::Store hash guards (sessions
/// keep their state across a swap), and decides are validated, record
/// their transition on the session's core::SessionState and queued on
/// their session's group.  A burst:<k> session inside its certified skip
/// countdown is answered from that state in phase 1 -- no membership row,
/// no group batch.  Phase 2 runs each group's pending decides through one
/// core::DecisionCore pass: the same routine IntermittentController::decide
/// runs with k = 1, here with k = the group's rows -- XI / X' membership
/// through linalg::batch_max_violation (chunked over the service pool for
/// large groups), one policy consult over the inside-X' rows (a DRL
/// group's is one Mlp::forward_batch_into pass), and the burst arming.
/// The decision stream is therefore the per-session one by construction;
/// ServeGolden.* in tests/test_serve.cpp pins it.  With tick_workers > 1
/// the independent group batches of one tick run concurrently (see
/// ServiceConfig::tick_workers for why the result stays bit-identical).
///
/// The service itself is single-caller (the Server's tick thread); it is
/// not internally thread-safe.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cert/store.hpp"
#include "common/parallel.hpp"
#include "core/decision.hpp"
#include "eval/policy_spec.hpp"
#include "eval/registry.hpp"
#include "serve/api.hpp"

namespace oic::serve {

/// Service configuration.
struct ServiceConfig {
  /// Certificate cache directory (cert::Store).  Empty = synthesize every
  /// plant's artifacts fresh at first open; set, plants resolve through
  /// the store and `reload` requests pick up hash-fresh rewrites.
  std::string cert_dir;
  std::size_t workers = 0;  ///< membership-check pool width; 0 = hardware
  /// Tick-shard pool width: independent (plant, cert, policy) group
  /// batches of one tick run concurrently, one worker job per group.
  /// Groups are data-disjoint (each owns its SoA workspace, its pending
  /// rows land in disjoint response slots, and a session belongs to
  /// exactly one group), and per-group side effects (counters, sessions
  /// closed for leaving XI) are buffered and merged in group creation
  /// order after the join -- so the decision stream is bit-identical for
  /// any worker count.  1 = serve groups serially; 0 = hardware.
  std::size_t tick_workers = 1;
  std::size_t max_sessions = 1u << 20;
};

/// Cumulative service statistics.
struct ServiceCounters {
  std::uint64_t decisions = 0;        ///< decision responses issued
  std::uint64_t skipped = 0;          ///< decisions with z = 0
  std::uint64_t burst_skips = 0;      ///< skips answered from a burst countdown
  std::uint64_t forced = 0;           ///< monitor overrides (x outside X')
  std::uint64_t errors = 0;           ///< error responses issued
  std::uint64_t invariant_errors = 0; ///< sessions closed for leaving XI
  std::uint64_t reloads = 0;          ///< reload requests handled
  std::uint64_t cert_swaps = 0;       ///< certificates hot-swapped
  std::uint64_t agent_swaps = 0;      ///< agents hot-swapped
};

/// The batched multi-session monitor (see file comment).
class Service {
 public:
  /// The registry must outlive the service.
  Service(const eval::ScenarioRegistry& registry, ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// One tick: answer every request, responses 1:1 in request order.
  /// Never throws on malformed requests -- each becomes an error response.
  void serve(const std::vector<Request>& in, std::vector<Response>& out);

  const ServiceCounters& counters() const { return counters_; }
  std::size_t open_sessions() const { return sessions_.size(); }

 private:
  struct PlantEntry;
  struct Group;

  /// One live control session: the per-session monitor state (disturbance
  /// history with w_memory = the episode constant kEpisodeWMemory, burst
  /// countdown) and, for periodic policies only, the session's own policy.
  struct Session {
    std::size_t group = 0;           ///< index into groups_
    bool seeded = false;             ///< first decide arrived
    linalg::Vector x_prev;           ///< state of the previous decision
    core::SessionState state;        ///< history and burst countdown
    std::unique_ptr<core::SkipPolicy> policy;  ///< periodic state only
    /// Tick serial of this session's last accepted decide; the
    /// decide-at-most-once-per-batch guard in O(1) (the pending-list scan
    /// it replaces was quadratic in the tick's decide count).
    std::uint64_t last_decide_tick = 0;
  };

  /// Sentinel group index for a failed resolve (error holds the reason).
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  PlantEntry* resolve_plant(const std::string& plant_id, std::string& error);
  std::size_t resolve_group(const std::string& plant_id, const std::string& policy,
                            std::string& error);
  /// Hot-reload pass: hash-fresh certificate rewrites and changed agent
  /// files swap in; sessions keep their state; invalid files keep the old
  /// artifact.  Never throws.
  void reload(std::uint64_t& certs_swapped, std::uint64_t& agents_swapped);
  /// Run one group's fused batch.  Side effects land in the group's
  /// per-tick outcome buffer (counters, sessions to close), never in the
  /// shared table -- callable concurrently for distinct groups.
  /// `allow_pool` gates the intra-group membership chunking over pool_
  /// (safe only when this is the sole run_group in flight).
  void run_group(Group& group, std::vector<Response>& out, bool allow_pool);

  const eval::ScenarioRegistry& registry_;
  ServiceConfig config_;
  std::unique_ptr<cert::Store> store_;
  cert::Provider provider_;
  std::unique_ptr<ThreadPool> pool_;       ///< intra-group membership chunks
  std::unique_ptr<ThreadPool> tick_pool_;  ///< inter-group tick shards
  ServiceCounters counters_;
  std::uint64_t tick_serial_ = 0;  ///< serve() calls; decide-dup stamps

  /// Plant cache: one model + certificate per plant id, shared across
  /// groups (node-stable addresses; groups hold PlantEntry*).
  std::unordered_map<std::string, std::unique_ptr<PlantEntry>> plants_;
  /// Groups keyed (plant id, policy text), creation order.
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<Group*> active_;  ///< groups with pending decides this tick
  std::unordered_map<std::string, std::size_t> group_index_;
  std::unordered_map<std::uint64_t, Session> sessions_;
};

}  // namespace oic::serve
