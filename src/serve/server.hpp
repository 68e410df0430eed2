#pragma once
/// \file server.hpp
/// The long-running monitor server: one tick thread servicing an MPSC
/// request inbox, answering each connection through its own SPSC response
/// channel.
///
/// Clients connect(), submit() request batches, and await() the matching
/// responses (1:1, request order).  The tick thread drains *everything*
/// pending in one pass and hands it to Service::serve as one concatenated
/// batch, so decision requests from many connections share each tick's
/// fused SoA monitor/policy pass.  shutdown() closes the inbox, joins the
/// tick thread, and closes every live response channel (await() then
/// throws instead of hanging).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/queue.hpp"
#include "serve/service.hpp"

namespace oic::serve {

class Server;

/// One client's SPSC response stream.  Create via Server::connect().
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Enqueue a request batch (thread-safe; many connections may submit
  /// concurrently).  Throws PreconditionError after server shutdown.
  void submit(std::vector<Request> batch);

  /// Block until `n` responses arrived and return them in service order.
  /// Throws NumericalError when the server shuts down first.
  std::vector<Response> await(std::size_t n);

 private:
  friend class Server;
  explicit Connection(Server* server) : server_(server) {}

  Server* server_;
  Channel<Response> responses_;
};

/// The monitor server (see file comment).
class Server {
 public:
  Server(const eval::ScenarioRegistry& registry, ServiceConfig config);
  ~Server();  ///< implies shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::shared_ptr<Connection> connect();

  /// Stop accepting work, join the tick thread, release every blocked
  /// await().  Idempotent.
  void shutdown();

  /// Service statistics.  The tick thread owns them while running; read
  /// them after shutdown() (or between submissions you know are drained).
  const ServiceCounters& counters() const { return service_.counters(); }
  std::size_t open_sessions() const { return service_.open_sessions(); }

  /// Ticks executed (each tick = one fused Service::serve pass).  Counted
  /// before the tick's responses are delivered, so once await() returns
  /// the answers, ticks() already includes the tick that produced them.
  std::uint64_t ticks() const { return ticks_.load(); }

 private:
  friend class Connection;
  struct Envelope {
    std::shared_ptr<Connection> conn;
    std::vector<Request> batch;
  };

  void run();

  Service service_;
  Channel<Envelope> inbox_;
  std::mutex connections_mu_;
  std::vector<std::weak_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> down_{false};
  std::thread worker_;
};

}  // namespace oic::serve
