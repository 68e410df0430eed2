#pragma once
/// \file loadgen.hpp
/// The serve layer's client of record: a multi-threaded load generator
/// replaying mc::ScenarioFamily traffic against a Server.
///
/// Each loadgen client owns a contiguous partition of the session space,
/// drives every session like a real plant-side deployment would -- open,
/// then one decide per control period carrying the previously actuated
/// input and the measured state, close at the end -- and actuates the
/// server's decisions through its own copy of the plant's tube RMPC.
/// Within a control period the client keeps a bounded window of chunks in
/// flight (submitting the next chunk the moment one completes) and
/// correlates each response to its session by `ref` (never by arrival
/// order), so one slow chunk cannot convoy the submission of the rest and
/// a late chunk's round trip stays a decision latency rather than a tick
/// barrier.  Latency is sampled per chunk round trip, split into submit
/// and wait components.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/registry.hpp"
#include "serve/server.hpp"

namespace oic::serve {

/// Load-generator configuration.
struct LoadgenConfig {
  std::vector<std::string> plants;   ///< registry ids; empty = all
  std::string family = "mixed";      ///< mc::ScenarioFamily id
  /// Policy spec(s) sessions open with: a single spec, or a
  /// comma-separated list assigned round-robin by global session index
  /// (e.g. "bang-bang,burst:4" alternates monitor-only and burst
  /// sessions -- the mixed-fleet shape the serve layer batches per
  /// (plant, policy) group).
  std::string policy = "bang-bang";
  /// Transport between the clients and the server: "inproc" submits
  /// straight into the server's envelope inbox; "socket" stands up a
  /// loopback SocketListener and connects one SocketClient per client
  /// thread, so measured latency includes the real wire (serialization,
  /// TCP, parse).
  std::string transport = "inproc";
  /// How clients actuate a z=1 decision: "rmpc" runs the plant's tube
  /// RMPC (warm-started; the realistic deployment cost), "gain" applies
  /// the same controller's ancillary gain u = K x (one small gemv).  The
  /// gain mode exists for capacity measurement: on a machine where the
  /// clients and the server share cores, per-client LP solves otherwise
  /// dominate the wall clock and the serving loop under test idles.
  std::string actuation = "rmpc";
  std::size_t sessions = 10000;      ///< concurrent sessions
  std::size_t steps = 10;            ///< control periods per session
  std::size_t clients = 4;           ///< client threads
  /// Largest request batch submitted per round trip (0 = whole partition).
  /// Submitting each client's full partition as ONE envelope per control
  /// period convoys the server: the tick thread serializes a handful of
  /// giant batches, and the last client's round trip stacks up behind the
  /// other partitions (~7x p50 at 10k sessions).  Bounded chunks interleave
  /// fairly in the inbox, so each fused pass stays near
  /// clients * max_batch decisions and the measured latency is a decision
  /// latency, not a whole-tick barrier.
  std::size_t max_batch = 512;
  /// Chunks each client keeps in flight within a control period (0 = all
  /// of them).  A window of 1 is lock-step; larger windows overlap chunk
  /// serving with response actuation at the price of queueing delay in
  /// the measured round trip -- with an unbounded window the last chunk's
  /// latency degenerates into the whole period's wall time.
  std::size_t pipeline_window = 2;
  std::uint64_t seed = 20200406;
  std::string cert_dir;              ///< client-side plant builds (cert::Store)
  std::string emit_path;             ///< capture submitted request batches
};

/// Latency distribution of one control period's decide round trips,
/// aggregated across every client (chunked submissions give each client
/// several samples per tick).  Each sample is one chunk's full round
/// trip, split into its submit->enqueue component (serialize + hand the
/// batch to the transport; for a socket that is the wire write) and its
/// enqueue->response component (inbox queueing + the fused tick + the
/// response path), so transport cost reads directly against tick cost
/// across stdio vs socket runs.
struct TickLatency {
  std::size_t tick = 0;     ///< control period index
  std::size_t samples = 0;  ///< round trips measured
  double p50_ms = 0.0;      ///< full round trip (submit + wait)
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double submit_p50_ms = 0.0;  ///< submit->enqueue component
  double submit_p99_ms = 0.0;
  double wait_p50_ms = 0.0;    ///< enqueue->response component
  double wait_p99_ms = 0.0;
};

/// Aggregated load-generation outcome.
struct LoadgenResult {
  std::size_t sessions = 0;
  std::size_t steps = 0;
  std::uint64_t decisions = 0;
  std::uint64_t skipped = 0;
  std::uint64_t forced = 0;
  std::uint64_t errors = 0;
  double wall_s = 0.0;
  /// Decision-latency percentiles over every decide round trip
  /// (submit -> await).  Open/close round trips are session setup and
  /// teardown, not decision latency, and are excluded -- the serve-layer
  /// contract is about how long a plant waits for a decision.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Component percentiles of the same samples (see TickLatency).
  double submit_p50_ms = 0.0;
  double submit_p99_ms = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  /// Sessions opened with a burst:<k> spec (certified-skip countdowns).
  std::size_t burst_sessions = 0;
  /// Per-control-period decide-latency histogram (ticks with no decide
  /// round trips -- all sessions dead -- are omitted).
  std::vector<TickLatency> tick_latency;
  double decisions_per_s = 0.0;
  /// Sessions the measured rate sustains at one decision per control
  /// period and one period per second -- numerically the decision rate;
  /// reported separately so capacity reads directly off the bench table.
  double sessions_per_s = 0.0;
};

/// Drive `server` with cfg.sessions concurrent sessions (see file
/// comment).  cfg.transport == "socket" wraps the server in a loopback
/// SocketListener for the run.  Throws PreconditionError on unknown
/// plant/family/transport ids.
LoadgenResult run_loadgen(Server& server, const eval::ScenarioRegistry& registry,
                          const LoadgenConfig& cfg);

/// Same traffic against an EXTERNAL `oic-serve --listen` process at
/// `host`:`port` (always the socket transport; cfg.transport is ignored).
LoadgenResult run_loadgen_connect(const eval::ScenarioRegistry& registry,
                                  const LoadgenConfig& cfg,
                                  const std::string& host, std::uint16_t port);

}  // namespace oic::serve
