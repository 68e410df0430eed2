#include "serve/socket.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/server.hpp"

namespace oic::serve {

namespace {

/// Read-side streambuf over a socket fd, so the strict api.hpp parsers
/// run unchanged against the wire.
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 private:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int fd_;
  char buf_[1 << 16];
};

/// Write-side streambuf over a socket fd.  send(MSG_NOSIGNAL) instead of
/// write(): a peer that vanished mid-response must surface as a stream
/// error on this connection's writer, not a process-wide SIGPIPE.
class FdOutBuf final : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof(buf_)); }

 private:
  bool flush_buffer() {
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      ssize_t n;
      do {
        n = ::send(fd_, p, left, MSG_NOSIGNAL);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(buf_, buf_ + sizeof(buf_));
    return true;
  }

  int_type overflow(int_type ch) override {
    if (!flush_buffer()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_buffer() ? 0 : -1; }

  int fd_;
  char buf_[1 << 16];
};

void set_nodelay(int fd) {
  // The protocol is small request documents answered promptly; Nagle
  // coalescing would serialize round trips behind delayed ACKs.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketListener
// ---------------------------------------------------------------------------

struct SocketListener::Impl {
  Server& server;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> accepted{0};
  std::thread acceptor;
  std::mutex mu;                       // guards conns + handlers
  std::vector<int> conns;              // live connection fds (for stop())
  std::vector<std::thread> handlers;   // one reader thread per connection

  explicit Impl(Server& s) : server(s) {}

  void handle(int fd);
  void accept_loop();
  void stop();
};

void SocketListener::Impl::handle(int fd) {
  set_nodelay(fd);
  FdInBuf in_buf(fd);
  FdOutBuf out_buf(fd);
  std::istream is(&in_buf);
  std::ostream os(&out_buf);

  std::shared_ptr<Connection> conn;
  try {
    conn = server.connect();
  } catch (const Error&) {
    close_fd(fd);  // server already shut down
    return;
  }

  // The writer answers batches strictly in submission order: the reader
  // hands it each submitted batch's size over this channel, and per-batch
  // framing on the wire therefore matches the stdio front end byte for
  // byte.
  Channel<std::size_t> batch_sizes;
  std::thread writer([&] {
    std::vector<std::size_t> n(0);
    try {
      while (batch_sizes.pop_n(1, n)) {
        const std::vector<Response> responses = conn->await(n.front());
        n.clear();
        write_response_batch(responses, os);
        if (!os.flush()) return;  // peer went away
      }
    } catch (const Error&) {
      // Server shut down with batches in flight; drop the connection.
    }
  });

  std::vector<Request> batch;
  try {
    RequestReader reader(is);
    while (reader.read(batch)) {
      const std::size_t n = batch.size();
      conn->submit(std::move(batch));
      batch.clear();
      batch_sizes.push(n);
    }
  } catch (const Error&) {
    // Malformed document or submit-after-shutdown: poison only this
    // connection.  Everything already submitted still gets answered.
  }
  batch_sizes.close();
  writer.join();
  ::shutdown(fd, SHUT_RDWR);
  close_fd(fd);
}

void SocketListener::Impl::accept_loop() {
  while (!stopping.load()) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stopping.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    accepted.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (stopping.load()) {
      close_fd(fd);
      break;
    }
    conns.push_back(fd);
    handlers.emplace_back([this, fd] { handle(fd); });
  }
}

void SocketListener::Impl::stop() {
  if (stopping.exchange(true)) return;
  if (acceptor.joinable()) acceptor.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    // Readers blocked in ::read see EOF and wind their connection down.
    for (int fd : conns) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : handlers) t.join();
  handlers.clear();
  conns.clear();
  close_fd(listen_fd);
  listen_fd = -1;
}

SocketListener::SocketListener(Server& server, std::uint16_t port)
    : impl_(std::make_unique<Impl>(server)) {
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  OIC_REQUIRE(impl_->listen_fd >= 0, "oic-serve: cannot create listen socket");
  int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(impl_->listen_fd, 64) != 0) {
    close_fd(impl_->listen_fd);
    throw PreconditionError("oic-serve: cannot bind 127.0.0.1:" +
                            std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->port = ntohs(addr.sin_port);
  impl_->acceptor = std::thread([this] { impl_->accept_loop(); });
}

SocketListener::~SocketListener() { stop(); }

std::uint16_t SocketListener::port() const { return impl_->port; }

void SocketListener::stop() { impl_->stop(); }

std::uint64_t SocketListener::connections_accepted() const {
  return impl_->accepted.load();
}

}  // namespace oic::serve
