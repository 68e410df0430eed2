// Tests for the serve layer's socket transport (src/serve/socket.hpp):
// the loopback SocketListener must answer byte-for-byte what the
// in-process Service answers for the same request stream, and a
// connection feeding the server garbage must die alone -- the listener,
// the tick thread, and every other connection keep serving.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/registry.hpp"
#include "serve/api.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace {

using oic::serve::Request;
using oic::serve::Response;

/// A TCP socket connected to 127.0.0.1:`port`, or -1.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read-side streambuf over a socket fd, so the api.hpp reader parses
/// straight off the wire.
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 private:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int fd_;
  char buf_[1 << 12];
};

/// Lock-step client of the socket transport: submit() writes one request
/// document, await(n) reads response documents until n responses arrived.
class LoopbackClient {
 public:
  explicit LoopbackClient(std::uint16_t port)
      : fd_(connect_loopback(port)), in_buf_(fd_), in_(&in_buf_), reader_(in_) {
    if (fd_ < 0) throw oic::PreconditionError("cannot connect to the listener");
  }
  ~LoopbackClient() { ::close(fd_); }

  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  void submit(const std::vector<Request>& batch) {
    std::ostringstream doc;
    oic::serve::write_request_batch(batch, doc);
    const std::string bytes = doc.str();
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw oic::NumericalError("connection lost while submitting");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::vector<Response> await(std::size_t n) {
    std::vector<Response> out, doc;
    while (out.size() < n) {
      if (!reader_.read(doc)) {
        throw oic::NumericalError("connection closed before responding");
      }
      out.insert(out.end(), doc.begin(), doc.end());
    }
    return out;
  }

 private:
  int fd_;
  FdInBuf in_buf_;
  std::istream in_;
  oic::serve::ResponseReader reader_;
};

Request open_req(std::uint64_t ref, std::uint64_t sid, std::string plant,
                 std::string policy) {
  Request r;
  r.kind = Request::Kind::kOpen;
  r.ref = ref;
  r.session = sid;
  r.plant = std::move(plant);
  r.policy = std::move(policy);
  return r;
}

Request decide_req(std::uint64_t ref, std::uint64_t sid,
                   const std::vector<double>& x) {
  Request r;
  r.kind = Request::Kind::kDecide;
  r.ref = ref;
  r.session = sid;
  r.x.data() = x;
  return r;
}

Request decide_req(std::uint64_t ref, std::uint64_t sid,
                   const std::vector<double>& u, const std::vector<double>& x) {
  Request r = decide_req(ref, sid, x);
  r.has_u = true;
  r.u.data() = u;
  return r;
}

Request close_req(std::uint64_t ref, std::uint64_t sid) {
  Request r;
  r.kind = Request::Kind::kClose;
  r.ref = ref;
  r.session = sid;
  return r;
}

/// A deterministic multi-batch session script spanning three
/// (plant, policy) groups including a burst group, with a deliberate
/// error row (unknown session) so the error path crosses the wire too.
std::vector<std::vector<Request>> script() {
  const std::vector<double> x0(2, 0.0);
  const std::vector<double> u0(1, 0.0);
  std::vector<std::vector<Request>> batches;
  batches.push_back({open_req(1, 10, "toy2d", "bang-bang"),
                     open_req(2, 11, "toy2d", "periodic-2"),
                     open_req(3, 12, "toy2d", "burst:2")});
  batches.push_back({decide_req(4, 10, x0), decide_req(5, 11, x0),
                     decide_req(6, 12, x0), decide_req(7, 99, x0)});
  batches.push_back({decide_req(8, 12, u0, x0), decide_req(9, 10, u0, x0),
                     decide_req(10, 11, u0, x0)});
  batches.push_back({close_req(11, 10), close_req(12, 11), close_req(13, 12)});
  return batches;
}

TEST(ServeSocket, SocketAnswersMatchInProcessByteForByte) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::vector<std::vector<Request>> batches = script();

  // Reference: the same script straight through a Service (the stdio
  // front end's serving path), serialized with the shared writer.
  std::ostringstream ref;
  {
    oic::serve::ServiceConfig cfg;
    cfg.workers = 1;
    oic::serve::Service svc(reg, cfg);
    std::vector<Response> out;
    for (const std::vector<Request>& batch : batches) {
      svc.serve(batch, out);
      oic::serve::write_response_batch(out, ref);
    }
  }
  ASSERT_FALSE(ref.str().empty());

  // The same script across a real loopback socket, lock-step.
  std::ostringstream wire;
  {
    oic::serve::ServiceConfig cfg;
    cfg.workers = 1;
    oic::serve::Server server(reg, cfg);
    oic::serve::SocketListener listener(server, 0);
    LoopbackClient client(listener.port());
    for (const std::vector<Request>& batch : batches) {
      client.submit(batch);
      const std::vector<Response> out = client.await(batch.size());
      oic::serve::write_response_batch(out, wire);
    }
  }
  EXPECT_EQ(ref.str(), wire.str());
}

TEST(ServeSocket, MalformedConnectionDiesAloneServerSurvives) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Server server(reg, cfg);
  oic::serve::SocketListener listener(server, 0);

  // A raw client that speaks garbage after the magic line.  The server
  // must poison only this connection: the fd is shut down (recv sees EOF)
  // and nothing crashes.
  {
    const int fd = connect_loopback(listener.port());
    ASSERT_GE(fd, 0);
    const char garbage[] = "oic-serve v1\nrequests 2\nbogus verb here\n";
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(garbage) - 1));
    ::shutdown(fd, SHUT_WR);
    char sink[256];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    ::close(fd);
  }

  // A well-formed connection opened after the poisoning round-trips fine.
  LoopbackClient client(listener.port());
  const std::vector<Request> batch{open_req(1, 5, "toy2d", "bang-bang"),
                                   decide_req(2, 5, {0.0, 0.0})};
  client.submit(batch);
  const std::vector<Response> out = client.await(batch.size());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, Response::Kind::kOpened) << out[0].error;
  EXPECT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;
  EXPECT_EQ(listener.connections_accepted(), 2u);
}

}  // namespace
