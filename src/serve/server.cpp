#include "serve/server.hpp"

#include <utility>

#include "common/error.hpp"

namespace oic::serve {

void Connection::submit(std::vector<Request> batch) {
  OIC_REQUIRE(!server_->down_.load(), "oic-serve: server is shut down");
  server_->inbox_.push(Server::Envelope{shared_from_this(), std::move(batch)});
}

std::vector<Response> Connection::await(std::size_t n) {
  std::vector<Response> out;
  out.reserve(n);
  if (!responses_.pop_n(n, out)) {
    throw NumericalError("oic-serve: server shut down before responding");
  }
  return out;
}

Server::Server(const eval::ScenarioRegistry& registry, ServiceConfig config)
    : service_(registry, std::move(config)) {
  worker_ = std::thread([this] { run(); });
}

Server::~Server() { shutdown(); }

std::shared_ptr<Connection> Server::connect() {
  auto conn = std::shared_ptr<Connection>(new Connection(this));
  std::lock_guard<std::mutex> lock(connections_mu_);
  // Checked under connections_mu_: shutdown() closes the response channels
  // of every registered connection while holding this lock, so a connection
  // registered here is guaranteed to be seen by shutdown() (or the server
  // is already down and we refuse).
  OIC_REQUIRE(!down_.load(), "oic-serve: server is shut down");
  connections_.push_back(conn);
  return conn;
}

void Server::shutdown() {
  bool expected = false;
  if (!down_.compare_exchange_strong(expected, true)) return;
  inbox_.close();
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto& weak : connections_) {
    if (auto conn = weak.lock()) conn->responses_.close();
  }
}

void Server::run() {
  std::vector<Envelope> envelopes;
  std::vector<Request> all;
  std::vector<Response> responses;
  // Bounded condition-variable wait: the tick thread sleeps while the
  // inbox is empty (no core burned polling) but wakes at a bounded
  // cadence, so shutdown and any future idle housekeeping are never more
  // than one period away even if a notification is missed.
  constexpr std::chrono::milliseconds kIdleWait{50};
  for (;;) {
    const DrainStatus status = inbox_.drain_for(envelopes, kIdleWait);
    if (status == DrainStatus::kClosed) break;
    if (status == DrainStatus::kTimeout) continue;
    all.clear();
    for (const Envelope& env : envelopes) {
      all.insert(all.end(), env.batch.begin(), env.batch.end());
    }
    // serve() answers malformed requests individually; this is the backstop
    // for anything unexpected -- fail the whole tick's requests rather than
    // letting an exception escape the tick thread (std::terminate) and
    // wedging every waiting client.
    auto fail_tick = [&](const char* what) {
      responses.assign(all.size(), Response{});
      for (std::size_t i = 0; i < all.size(); ++i) {
        responses[i].kind = Response::Kind::kError;
        responses[i].ref = all[i].ref;
        responses[i].session = all[i].session;
        responses[i].error = what;
      }
    };
    try {
      service_.serve(all, responses);
    } catch (const std::exception& e) {
      fail_tick(e.what());
    } catch (...) {
      fail_tick("oic-serve: unknown error while serving tick");
    }
    // Count the tick before any response is delivered: a client that holds
    // its answers must already see the tick that produced them.
    ticks_.fetch_add(1);
    std::size_t cursor = 0;
    for (Envelope& env : envelopes) {
      std::vector<Response> slice(responses.begin() + static_cast<long>(cursor),
                                  responses.begin() +
                                      static_cast<long>(cursor + env.batch.size()));
      cursor += env.batch.size();
      env.conn->responses_.push_all(std::move(slice));
    }
    envelopes.clear();
  }
}

}  // namespace oic::serve
