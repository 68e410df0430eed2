#pragma once
/// \file socket.hpp
/// TCP front end for the monitor server: a loopback listener that speaks
/// the exact `oic-serve v1` line grammar of api.hpp over sockets.
///
/// Framing on the wire is identical to the stdio mode -- each request
/// batch document is answered by one response batch document, in
/// submission order per connection -- so a capture replayed over stdio
/// and a live socket run produce byte-identical response streams.  Every
/// accepted connection gets a reader thread (parses request batches,
/// submits each as one Server envelope) and a writer thread (awaits each
/// batch's responses in submission order and writes them back), so a
/// client may pipeline many batches without waiting; responses then
/// correlate by `ref`.
///
/// A malformed request document poisons only its own connection: the
/// reader stops, every batch already submitted is still answered, and the
/// socket is closed.  The server and the other connections keep running
/// (unlike the stdio front end, where a malformed stream is fatal --
/// there the stream IS the one client).
///
/// The listener binds 127.0.0.1 only: the wire protocol is plain text
/// with no authentication, so exposure stays host-local by construction.

#include <cstdint>
#include <memory>

namespace oic::serve {

class Server;

/// Thread-per-connection acceptor feeding a Server's envelope inbox.
class SocketListener {
 public:
  /// Bind 127.0.0.1:`port` (0 = ephemeral; see port()) and start
  /// accepting.  Throws PreconditionError when the bind fails.  The
  /// server must outlive the listener.
  SocketListener(Server& server, std::uint16_t port);
  ~SocketListener();  ///< implies stop()

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// The bound port (the actual one when constructed with port 0).
  std::uint16_t port() const;

  /// Stop accepting, shut down every live connection socket, and join
  /// all reader/writer threads.  Idempotent.  Does NOT shut down the
  /// Server itself.
  void stop();

  /// Connections accepted over the listener's lifetime.
  std::uint64_t connections_accepted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace oic::serve
