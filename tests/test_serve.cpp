// Tests for the monitor service stack (src/serve): the `oic-serve v1`
// wire grammar, the multi-session Service, the threaded Server, and the
// goldens that pin the served decision stream (the batch runs the
// per-session monitor's own decision routine, core::DecisionCore), among
// them the request capture the CI serve smoke replays
// (tests/golden/serve_smoke.reqs).
//
// The parser corpus follows the PR-5 parser-fuzz discipline
// (tests/test_parser_fuzz.cpp): the request stream crosses a trust
// boundary (oic_serve --in reads arbitrary files / stdin), so truncation,
// non-finite numbers, oversized counts and dimensions, unknown verbs, and
// trailing junk must all reject with a clean oic::Error -- never crash,
// hang, or allocate unboundedly.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cert/store.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "control/tube_mpc.hpp"
#include "core/drl_policy.hpp"
#include "eval/plant.hpp"
#include "eval/registry.hpp"
#include "mc/family.hpp"
#include "rl/serialize.hpp"
#include "serve/api.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using oic::Rng;
using oic::serve::Request;
using oic::serve::Response;

#ifndef OIC_GOLDEN_DIR
#error "OIC_GOLDEN_DIR must point at the committed corpus (set by CMakeLists.txt)"
#endif

// ---------------------------------------------------------------- helpers

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

Request reload_req(std::uint64_t ref) {
  Request r;
  r.kind = Request::Kind::kReload;
  r.ref = ref;
  return r;
}

/// A valid request document covering every verb and both decide shapes,
/// with doubles chosen to stress the shortest-round-trip (to_chars)
/// encoding.
std::string request_doc() {
  std::vector<Request> batch;
  batch.push_back(open_req(1, 7, "toy2d", "bang-bang"));
  batch.push_back(decide_req(2, 7, {0.1, -1.0 / 3.0}));
  batch.push_back(decide_req(3, 7, {-2.5e-13}, {1e-300, 4.9406564584124654e-324}));
  batch.push_back(close_req(4, 7));
  batch.push_back(reload_req(5));
  std::stringstream ss;
  oic::serve::write_request_batch(batch, ss);
  return ss.str();
}

std::string response_doc() {
  std::vector<Response> batch(5);
  batch[0].kind = Response::Kind::kOpened;
  batch[0].ref = 1;
  batch[0].session = 7;
  batch[1].kind = Response::Kind::kDecision;
  batch[1].ref = 2;
  batch[1].session = 7;
  batch[1].z = 0;
  batch[1].forced = false;
  batch[2].kind = Response::Kind::kClosed;
  batch[2].ref = 4;
  batch[2].session = 7;
  batch[3].kind = Response::Kind::kReloaded;
  batch[3].ref = 5;
  batch[3].certs = 2;
  batch[3].agents = 1;
  batch[4].kind = Response::Kind::kError;
  batch[4].ref = 6;
  batch[4].error = "unknown session 9 (several words, echoed verbatim)";
  std::stringstream ss;
  oic::serve::write_response_batch(batch, ss);
  return ss.str();
}

void expect_request_rejects(const std::string& text, const std::string& why) {
  std::stringstream ss(text);
  std::vector<Request> out;
  EXPECT_THROW(oic::serve::read_request_batch(ss, out), oic::Error) << why;
}

void expect_response_rejects(const std::string& text, const std::string& why) {
  std::stringstream ss(text);
  std::vector<Response> out;
  EXPECT_THROW(oic::serve::read_response_batch(ss, out), oic::Error) << why;
}

/// Write a deterministic toy2d skipping agent (memory 2, so state_dim =
/// nx + 2*nx = 6) and return its path.  `seed` varies the weights so
/// hot-reload tests can produce a genuinely different network.
std::string write_toy2d_agent(const std::string& name, unsigned seed) {
  Rng rng(seed);
  oic::linalg::Vector scale(6);
  for (std::size_t i = 0; i < 6; ++i) scale[i] = 0.5 + 0.1 * static_cast<double>(i);
  oic::rl::AgentSnapshot snap{"toy2d", 2, std::move(scale),
                              oic::rl::Mlp({6, 8, 2}, rng)};
  const std::string path = ::testing::TempDir() + name;
  oic::rl::save_agent_file(snap, path);
  return path;
}

// ---------------------------------------------------------- wire grammar

TEST(ServeApi, RequestRoundTripIsExact) {
  const std::string doc = request_doc();
  std::stringstream ss(doc);
  std::vector<Request> got;
  ASSERT_TRUE(oic::serve::read_request_batch(ss, got));
  ASSERT_EQ(got.size(), 5u);

  EXPECT_EQ(got[0].kind, Request::Kind::kOpen);
  EXPECT_EQ(got[0].ref, 1u);
  EXPECT_EQ(got[0].session, 7u);
  EXPECT_EQ(got[0].plant, "toy2d");
  EXPECT_EQ(got[0].policy, "bang-bang");

  EXPECT_EQ(got[1].kind, Request::Kind::kDecide);
  EXPECT_FALSE(got[1].has_u);
  ASSERT_EQ(got[1].x.size(), 2u);
  // Shortest-round-trip to_chars recovers doubles exactly, including
  // subnormals.
  EXPECT_EQ(got[1].x[0], 0.1);
  EXPECT_EQ(got[1].x[1], -1.0 / 3.0);

  EXPECT_EQ(got[2].kind, Request::Kind::kDecide);
  ASSERT_TRUE(got[2].has_u);
  ASSERT_EQ(got[2].u.size(), 1u);
  EXPECT_EQ(got[2].u[0], -2.5e-13);
  ASSERT_EQ(got[2].x.size(), 2u);
  EXPECT_EQ(got[2].x[0], 1e-300);
  EXPECT_EQ(got[2].x[1], 4.9406564584124654e-324);

  EXPECT_EQ(got[3].kind, Request::Kind::kClose);
  EXPECT_EQ(got[3].session, 7u);
  EXPECT_EQ(got[4].kind, Request::Kind::kReload);
  EXPECT_EQ(got[4].ref, 5u);

  // Nothing further in the stream: the next read is a clean EOF.
  std::vector<Request> more;
  EXPECT_FALSE(oic::serve::read_request_batch(ss, more));
}

TEST(ServeApi, ResponseRoundTripIsExact) {
  std::stringstream ss(response_doc());
  std::vector<Response> got;
  ASSERT_TRUE(oic::serve::read_response_batch(ss, got));
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].kind, Response::Kind::kOpened);
  EXPECT_EQ(got[1].kind, Response::Kind::kDecision);
  EXPECT_EQ(got[1].z, 0);
  EXPECT_FALSE(got[1].forced);
  EXPECT_EQ(got[2].kind, Response::Kind::kClosed);
  EXPECT_EQ(got[3].kind, Response::Kind::kReloaded);
  EXPECT_EQ(got[3].certs, 2u);
  EXPECT_EQ(got[3].agents, 1u);
  EXPECT_EQ(got[4].kind, Response::Kind::kError);
  EXPECT_EQ(got[4].error, "unknown session 9 (several words, echoed verbatim)");
}

TEST(ServeApi, ErrorNewlinesAreSanitized) {
  // A diagnostic with embedded newlines must not forge extra response
  // lines (the grammar is line-framed).
  std::vector<Response> batch(1);
  batch[0].kind = Response::Kind::kError;
  batch[0].ref = 9;
  batch[0].error = "line one\nclosed 1 session 2\rline three";
  std::stringstream ss;
  oic::serve::write_response_batch(batch, ss);
  std::vector<Response> got;
  ASSERT_TRUE(oic::serve::read_response_batch(ss, got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].error, "line one closed 1 session 2 line three");
}

TEST(ServeApi, FullRangeRefsAndSessionsRoundTrip) {
  // ref and sid are any u64: 20-digit ids must survive write + read.
  const std::uint64_t big = 10000000000000000000ull;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::vector<Request> reqs{close_req(big, max), close_req(max, big), reload_req(max),
                            decide_req(max, max, {0.5})};
  std::stringstream rs;
  oic::serve::write_request_batch(reqs, rs);
  std::vector<Request> got;
  ASSERT_TRUE(oic::serve::read_request_batch(rs, got));
  ASSERT_EQ(got.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(got[i].ref, reqs[i].ref);
    EXPECT_EQ(got[i].session, reqs[i].session);
  }
  std::vector<Response> resps(2);
  resps[0].kind = Response::Kind::kClosed;
  resps[0].ref = big;
  resps[0].session = max;
  resps[1].kind = Response::Kind::kDecision;
  resps[1].ref = max;
  resps[1].session = big;
  std::stringstream ps;
  oic::serve::write_response_batch(resps, ps);
  std::vector<Response> back;
  ASSERT_TRUE(oic::serve::read_response_batch(ps, back));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].ref, big);
  EXPECT_EQ(back[0].session, max);
  EXPECT_EQ(back[1].ref, max);
  EXPECT_EQ(back[1].session, big);
}

TEST(ServeApi, CleanEofIsFalseNotError) {
  for (const char* text : {"", "\n", "\n\n\n"}) {
    std::stringstream ss(text);
    std::vector<Request> reqs;
    EXPECT_FALSE(oic::serve::read_request_batch(ss, reqs)) << '"' << text << '"';
    std::stringstream ss2(text);
    std::vector<Response> resps;
    EXPECT_FALSE(oic::serve::read_response_batch(ss2, resps));
  }
}

TEST(ServeApi, BackToBackBatchesStream) {
  // Batches separated by blank lines stream one document at a time --
  // the oic_serve lock-step loop relies on this.
  std::stringstream ss(request_doc() + "\n" + request_doc());
  std::vector<Request> out;
  ASSERT_TRUE(oic::serve::read_request_batch(ss, out));
  EXPECT_EQ(out.size(), 5u);
  ASSERT_TRUE(oic::serve::read_request_batch(ss, out));
  EXPECT_EQ(out.size(), 5u);
  EXPECT_FALSE(oic::serve::read_request_batch(ss, out));
}

TEST(ServeApiFuzz, EveryTruncationRejects) {
  // Any cut that loses part of the end sentinel (or anything before it)
  // must reject; cut 0 is a clean EOF and returns false instead.
  const std::string doc = request_doc();
  const std::size_t sentinel_end = doc.rfind("end") + 3;
  for (std::size_t cut = 1; cut < sentinel_end; ++cut) {
    expect_request_rejects(doc.substr(0, cut),
                           "request cut at " + std::to_string(cut));
  }
  const std::string resp = response_doc();
  const std::size_t resp_end = resp.rfind("end") + 3;
  for (std::size_t cut = 1; cut < resp_end; ++cut) {
    expect_response_rejects(resp.substr(0, cut),
                            "response cut at " + std::to_string(cut));
  }
}

TEST(ServeApiFuzz, HeaderMutationsReject) {
  expect_request_rejects("oic-serve v2\nrequests 0\nend\n", "future version");
  expect_request_rejects("oic-cert v1\nrequests 0\nend\n", "wrong magic");
  expect_request_rejects("garbage\n", "non-magic first line");
  expect_request_rejects("oic-serve v1\n", "missing count line");
  expect_request_rejects("oic-serve v1\nresponses 0\nend\n",
                         "wrong direction keyword");
  expect_request_rejects("oic-serve v1\nrequests\nend\n", "missing count");
  expect_request_rejects("oic-serve v1\nrequests -1\nend\n", "negative count");
  expect_request_rejects("oic-serve v1\nrequests x\nend\n", "non-numeric count");
  expect_request_rejects("oic-serve v1\nrequests 3.5\nend\n", "fractional count");
  expect_request_rejects("oic-serve v1\nrequests 0 junk\nend\n",
                         "trailing token after count");
  // The caps must reject before any allocation happens (allocation bombs).
  expect_request_rejects("oic-serve v1\nrequests 1048577\nend\n",
                         "count over the 1<<20 cap");
  expect_request_rejects("oic-serve v1\nrequests 99999999999999999999\nend\n",
                         "count overflowing u64");
}

TEST(ServeApiFuzz, RequestLineMutationsReject) {
  const std::string head = "oic-serve v1\nrequests 1\n";
  expect_request_rejects(head + "\nend\n", "blank request line");
  expect_request_rejects(head + "ping 1\nend\n", "unknown verb");
  expect_request_rejects(head + "open 1 session 2 plant toy2d\nend\n",
                         "open missing policy");
  expect_request_rejects(head + "open 1 sess 2 plant toy2d policy bang-bang\nend\n",
                         "misspelled keyword");
  expect_request_rejects(
      head + "open 1 session 2 plant toy2d policy bang-bang junk\nend\n",
      "trailing token on open");
  expect_request_rejects(head + "open -1 session 2 plant a policy b\nend\n",
                         "negative ref");
  expect_request_rejects(head + "close 1 session 2 3\nend\n",
                         "trailing token on close");
  expect_request_rejects(head + "reload 1 2\nend\n", "trailing token on reload");
  expect_request_rejects(head + "decide 1 session 2\nend\n",
                         "decide without a state vector");
  expect_request_rejects(head + "decide 1 session 2 y 1 0.5\nend\n",
                         "decide with an unknown tag");
  const std::string doc = request_doc();
  expect_request_rejects(doc.substr(0, doc.size() - 4) + "fin\n",
                         "wrong end sentinel");
}

TEST(ServeApiFuzz, VectorMutationsReject) {
  const std::string head = "oic-serve v1\nrequests 1\n";
  expect_request_rejects(head + "decide 1 session 2 x 0\nend\n", "zero dimension");
  expect_request_rejects(head + "decide 1 session 2 x 65 0.0\nend\n",
                         "dimension over the cap of 64");
  expect_request_rejects(
      head + "decide 1 session 2 x 18446744073709551616 0.0\nend\n",
      "dimension overflowing u64");
  expect_request_rejects(head + "decide 1 session 2 x 3 0.5 0.5\nend\n",
                         "fewer values than the declared dimension");
  expect_request_rejects(head + "decide 1 session 2 x 1 0.5 0.5\nend\n",
                         "more values than the declared dimension");
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "-1e999", "zero"}) {
    expect_request_rejects(
        head + "decide 1 session 2 x 2 0.5 " + std::string(bad) + "\nend\n",
        std::string("non-finite state entry '") + bad + "'");
    expect_request_rejects(head + "decide 1 session 2 u 1 " + std::string(bad) +
                               " x 1 0.0\nend\n",
                           std::string("non-finite input entry '") + bad + "'");
  }
}

TEST(ServeApiFuzz, ResponseMutationsReject) {
  const std::string head = "oic-serve v1\nresponses 1\n";
  expect_response_rejects(head + "decision 1 session 2 z 2 forced 0\nend\n",
                          "z outside {0,1}");
  expect_response_rejects(head + "decision 1 session 2 z 0 forced 7\nend\n",
                          "forced outside {0,1}");
  expect_response_rejects(head + "decision 1 session 2 z 0\nend\n",
                          "decision missing forced");
  expect_response_rejects(head + "reloaded 1 certs 2\nend\n",
                          "reloaded missing agents");
  expect_response_rejects(head + "opened 1 session 2 junk\nend\n",
                          "trailing token on opened");
  expect_response_rejects(head + "pong 1\nend\n", "unknown response verb");
  expect_response_rejects("oic-serve v1\nrequests 0\nend\n",
                          "request header on the response reader");
}

TEST(ServeApi, WriterEnforcesTheGrammar) {
  // Writers reject what readers would reject, so a bad batch fails at
  // save time instead of corrupting the line grammar.
  std::stringstream ss;
  std::vector<Request> bad_policy{open_req(1, 2, "toy2d", "bang bang")};
  EXPECT_THROW(oic::serve::write_request_batch(bad_policy, ss), oic::Error);
  std::vector<Request> empty_plant{open_req(1, 2, "", "bang-bang")};
  EXPECT_THROW(oic::serve::write_request_batch(empty_plant, ss), oic::Error);
  std::vector<Request> empty_x{decide_req(1, 2, {})};
  EXPECT_THROW(oic::serve::write_request_batch(empty_x, ss), oic::Error);
  std::vector<Request> huge_x{decide_req(1, 2, std::vector<double>(65, 0.0))};
  EXPECT_THROW(oic::serve::write_request_batch(huge_x, ss), oic::Error);
}

// A pathological streambuf that surfaces one byte per underflow and never
// reports readahead (in_avail() == 0), forcing the stateful readers down
// their slow refill path on every byte -- lines split across arbitrarily
// many refills, exactly what a trickling socket produces.
class DripBuf final : public std::streambuf {
 public:
  explicit DripBuf(std::string data) : data_(std::move(data)) {}

 private:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    ch_ = data_[pos_++];
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }
  std::string data_;
  std::size_t pos_ = 0;
  char ch_ = 0;
};

TEST(ServeApi, StatefulReadersMatchOneShotAcrossChunkedArrival) {
  // RequestReader/ResponseReader block-buffer the stream themselves; they
  // must parse identically to the one-shot istream functions whether bytes
  // arrive in one block (stringbuf) or one at a time (DripBuf), across
  // several back-to-back batches, ending in false at clean EOF.
  const std::string reqs = request_doc() + request_doc() + request_doc();
  const auto parse_requests = [](std::streambuf* sb) {
    std::istream is(sb);
    oic::serve::RequestReader reader(is);
    std::ostringstream os;
    std::vector<Request> batch;
    std::size_t batches = 0;
    while (reader.read(batch)) {
      oic::serve::write_request_batch(batch, os);
      ++batches;
    }
    EXPECT_EQ(batches, 3u);
    return os.str();
  };
  std::stringbuf block_rq(reqs);
  DripBuf drip_rq(reqs);
  EXPECT_EQ(parse_requests(&block_rq), reqs);
  EXPECT_EQ(parse_requests(&drip_rq), reqs);

  const std::string resps = response_doc() + response_doc();
  const auto parse_responses = [](std::streambuf* sb) {
    std::istream is(sb);
    oic::serve::ResponseReader reader(is);
    std::ostringstream os;
    std::vector<Response> batch;
    while (reader.read(batch)) oic::serve::write_response_batch(batch, os);
    return os.str();
  };
  std::stringbuf block_rs(resps);
  DripBuf drip_rs(resps);
  EXPECT_EQ(parse_responses(&block_rs), resps);
  EXPECT_EQ(parse_responses(&drip_rs), resps);

  // Strictness carries over: a truncated document throws, it never
  // silently returns false.
  const std::string cut = reqs.substr(0, reqs.size() / 2);
  DripBuf drip_cut(cut);
  std::istream is(&drip_cut);
  oic::serve::RequestReader reader(is);
  std::vector<Request> batch;
  ASSERT_TRUE(reader.read(batch));
  EXPECT_THROW(
      {
        while (reader.read(batch)) {
        }
      },
      oic::Error);
}

// -------------------------------------------------------------- service

TEST(ServeService, SessionLifecycleAndValidation) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const auto model = reg.make_model("toy2d");
  const std::size_t nx = model.sys.nx();
  const std::size_t nu = model.sys.nu();
  const std::vector<double> x0(nx, 0.0);
  const std::vector<double> u0(nu, 0.0);

  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);

  // Open + first decide (state only) in one batch, request order.
  std::vector<Request> batch;
  batch.push_back(open_req(1, 10, "toy2d", "bang-bang"));
  batch.push_back(decide_req(2, 10, x0));
  std::vector<Response> out;
  svc.serve(batch, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, Response::Kind::kOpened);
  ASSERT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;
  EXPECT_EQ(out[1].ref, 2u);
  EXPECT_EQ(svc.open_sessions(), 1u);

  // Validation corpus: every row is (requests, why) answered with kError.
  struct Case {
    Request req;
    const char* why;
  };
  std::vector<Case> cases;
  cases.push_back({open_req(3, 10, "toy2d", "bang-bang"), "duplicate open"});
  cases.push_back({open_req(4, 11, "nonesuch", "bang-bang"), "unknown plant"});
  cases.push_back({open_req(5, 11, "toy2d", "periodic-0"), "malformed policy"});
  cases.push_back({open_req(6, 11, "toy2d", "burst:0"), "malformed burst"});
  cases.push_back({decide_req(7, 99, x0), "unknown session"});
  cases.push_back({decide_req(8, 10, x0), "subsequent decide without u"});
  cases.push_back(
      {decide_req(9, 10, u0, std::vector<double>(nx + 1, 0.0)), "wrong x dim"});
  cases.push_back(
      {decide_req(10, 10, std::vector<double>(nu + 1, 0.0), x0), "wrong u dim"});
  cases.push_back({close_req(11, 99), "close of an unknown session"});
  for (const Case& c : cases) {
    svc.serve({c.req}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, Response::Kind::kError) << c.why;
    EXPECT_EQ(out[0].ref, c.req.ref) << c.why;
    EXPECT_FALSE(out[0].error.empty()) << c.why;
  }
  // None of the failed requests disturbed the session table.
  EXPECT_EQ(svc.open_sessions(), 1u);

  // A session may decide at most once per batch (one tick = one period).
  batch.clear();
  batch.push_back(decide_req(12, 10, u0, x0));
  batch.push_back(decide_req(13, 10, u0, x0));
  svc.serve(batch, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, Response::Kind::kDecision) << out[0].error;
  EXPECT_EQ(out[1].kind, Response::Kind::kError);

  // First decide of a session must not carry u (there is no previous
  // actuation to reconstruct a disturbance from).
  svc.serve({open_req(14, 20, "toy2d", "always-run"), decide_req(15, 20, u0, x0)},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kOpened);
  EXPECT_EQ(out[1].kind, Response::Kind::kError);

  // Close ends the session; decides after it are unknown-session errors.
  svc.serve({close_req(16, 10)}, out);
  EXPECT_EQ(out[0].kind, Response::Kind::kClosed);
  svc.serve({decide_req(17, 10, u0, x0)}, out);
  EXPECT_EQ(out[0].kind, Response::Kind::kError);

  // Reload with no cert store and no DRL groups swaps nothing.
  svc.serve({reload_req(18)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kReloaded);
  EXPECT_EQ(out[0].certs, 0u);
  EXPECT_EQ(out[0].agents, 0u);

  const auto& c = svc.counters();
  EXPECT_GE(c.decisions, 2u);
  EXPECT_GE(c.errors, cases.size());
  EXPECT_EQ(c.reloads, 1u);
  EXPECT_EQ(c.invariant_errors, 0u);
}

TEST(ServeService, StateOutsideXiClosesTheSession) {
  // Algorithm 1's precondition: where the per-session controller throws
  // on a state outside XI, the service answers an error and closes the
  // session.  (0.5, 2.96) lies outside toy2d's XI; (0, 2.96) inside XI
  // but outside X' is forced.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;
  svc.serve({open_req(1, 1, "toy2d", "bang-bang"), open_req(2, 2, "toy2d", "bang-bang"),
             decide_req(3, 1, {0.5, 2.96}), decide_req(4, 2, {0.0, 2.96})},
            out);
  ASSERT_EQ(out[2].kind, Response::Kind::kError);
  EXPECT_NE(out[2].error.find("left the robust invariant set XI"), std::string::npos);
  ASSERT_EQ(out[3].kind, Response::Kind::kDecision) << out[3].error;
  EXPECT_TRUE(out[3].forced);
  EXPECT_EQ(svc.counters().invariant_errors, 1u);
  EXPECT_EQ(svc.open_sessions(), 1u);
  svc.serve({decide_req(5, 1, {0.0}, {0.0, 0.0})}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kError);
  EXPECT_NE(out[0].error.find("unknown session"), std::string::npos);
}

TEST(ServeService, DecideThenCloseInOneBatchFailsTheDecide) {
  // Regression: a decide queued in phase 1 used to survive a close of the
  // same session later in the batch, so phase 2 looked up the erased
  // session (std::out_of_range escaping serve(), killing the tick thread).
  // The close must instead fail the stale pending decide.  Exercised for
  // every policy kind that touches the session table in phase 2.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::string agent = write_toy2d_agent("close_race.agent", 41);
  const std::vector<std::string> policies{"bang-bang", "periodic-2",
                                          "drl:" + agent};
  for (const std::string& policy : policies) {
    oic::serve::ServiceConfig cfg;
    cfg.workers = 1;
    oic::serve::Service svc(reg, cfg);
    std::vector<Response> out;
    svc.serve({open_req(1, 3, "toy2d", policy), decide_req(2, 3, {0.0, 0.0}),
               close_req(3, 3)},
              out);
    ASSERT_EQ(out.size(), 3u) << policy;
    EXPECT_EQ(out[0].kind, Response::Kind::kOpened) << policy << out[0].error;
    ASSERT_EQ(out[1].kind, Response::Kind::kError) << policy;
    EXPECT_NE(out[1].error.find("closed later in the same batch"),
              std::string::npos)
        << policy << ": " << out[1].error;
    EXPECT_EQ(out[2].kind, Response::Kind::kClosed) << policy;
    EXPECT_EQ(svc.open_sessions(), 0u) << policy;
  }
}

TEST(ServeService, CloseReopenInOneBatchStartsFresh) {
  // Regression companion: close + reopen of the same id in one batch must
  // not leak the pre-close pending decide into the fresh session.  The
  // stale decide fails at the close; the reopened session is unseeded, so
  // its first decide (state only) succeeds.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;
  svc.serve({open_req(1, 8, "toy2d", "bang-bang"), decide_req(2, 8, {0.0, 0.0})},
            out);
  ASSERT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;

  svc.serve({decide_req(3, 8, {0.0}, {0.0, 0.0}), close_req(4, 8),
             open_req(5, 8, "toy2d", "bang-bang"), decide_req(6, 8, {0.0, 0.0})},
            out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, Response::Kind::kError);
  EXPECT_EQ(out[1].kind, Response::Kind::kClosed);
  EXPECT_EQ(out[2].kind, Response::Kind::kOpened) << out[2].error;
  EXPECT_EQ(out[3].kind, Response::Kind::kDecision) << out[3].error;
  EXPECT_EQ(svc.open_sessions(), 1u);
}

TEST(ServeService, SessionTableCapIsEnforced) {
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_sessions = 1;
  oic::serve::Service svc(oic::eval::ScenarioRegistry::builtin(), cfg);
  std::vector<Response> out;
  svc.serve({open_req(1, 1, "toy2d", "bang-bang"),
             open_req(2, 2, "toy2d", "bang-bang")},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kOpened);
  EXPECT_EQ(out[1].kind, Response::Kind::kError);
  EXPECT_NE(out[1].error.find("full"), std::string::npos);
}

TEST(ServeService, DrlOpenValidatesTheAgent) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;

  // Missing file.
  svc.serve({open_req(1, 1, "toy2d", "drl:" + ::testing::TempDir() + "nope.agent")},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kError);

  // Plant-tag mismatch: a toy2d-shaped agent labelled for another plant.
  Rng rng(3);
  oic::rl::AgentSnapshot wrong{"acc", 2, oic::linalg::Vector(),
                               oic::rl::Mlp({6, 8, 2}, rng)};
  const std::string wrong_path = ::testing::TempDir() + "wrong_plant.agent";
  oic::rl::save_agent_file(wrong, wrong_path);
  svc.serve({open_req(2, 1, "toy2d", "drl:" + wrong_path)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kError);
  EXPECT_NE(out[0].error.find("trained on plant"), std::string::npos);

  // Dimension mismatch: state_dim does not decompose over toy2d's nx.
  oic::rl::AgentSnapshot misfit{"toy2d", 2, oic::linalg::Vector(),
                                oic::rl::Mlp({9, 8, 2}, rng)};
  const std::string misfit_path = ::testing::TempDir() + "misfit.agent";
  oic::rl::save_agent_file(misfit, misfit_path);
  svc.serve({open_req(3, 1, "toy2d", "drl:" + misfit_path)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kError);
  EXPECT_NE(out[0].error.find("do not fit"), std::string::npos);

  // A well-formed agent opens and decides.
  const std::string good = write_toy2d_agent("good.agent", 17);
  svc.serve({open_req(4, 1, "toy2d", "drl:" + good),
             decide_req(5, 1, std::vector<double>(2, 0.0))},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kOpened) << out[0].error;
  EXPECT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;
}

TEST(ServeService, AgentHotReloadSwapsWithoutDroppingSessions) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::string path = write_toy2d_agent("hot.agent", 21);
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;
  svc.serve({open_req(1, 5, "toy2d", "drl:" + path),
             decide_req(2, 5, std::vector<double>(2, 0.0))},
            out);
  ASSERT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;

  // Rewriting the file with identical parameters must NOT count as a swap
  // (the bit-equality guard).
  write_toy2d_agent("hot.agent", 21);
  svc.serve({reload_req(3)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kReloaded);
  EXPECT_EQ(out[0].agents, 0u);

  // Different weights swap in; the open session keeps its state.
  write_toy2d_agent("hot.agent", 22);
  svc.serve({reload_req(4)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kReloaded);
  EXPECT_EQ(out[0].agents, 1u);
  EXPECT_EQ(svc.open_sessions(), 1u);
  svc.serve({decide_req(5, 5, std::vector<double>(1, 0.0),
                        std::vector<double>(2, 0.0))},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kDecision) << out[0].error;

  // A corrupt rewrite keeps the old agent serving.
  {
    std::ofstream os(path);
    os << "oic-agent v1\ngarbage\n";
  }
  svc.serve({reload_req(6)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kReloaded);
  EXPECT_EQ(out[0].agents, 0u);
  svc.serve({decide_req(7, 5, std::vector<double>(1, 0.0),
                        std::vector<double>(2, 0.0))},
            out);
  EXPECT_EQ(out[0].kind, Response::Kind::kDecision) << out[0].error;
}

// ---------------------------------------------------------------- goldens

/// Write a fixed-seed skipping agent for `plant_id` (memory 1, the plant's
/// own state normalization) and return its path.
std::string write_plant_agent(const std::string& plant_id,
                              const oic::control::AffineLTI& sys) {
  oic::Fnv1a seed;
  seed.str(plant_id);
  Rng rng(seed.value());
  const std::size_t state_dim = oic::core::drl_state_dim(sys.nx(), sys.nx(), 1);
  oic::rl::AgentSnapshot snap{plant_id, 1, oic::core::drl_state_scale(sys, 1),
                              oic::rl::Mlp({state_dim, 16, 2}, rng)};
  const std::string path = ::testing::TempDir() + "golden_" + plant_id + ".agent";
  oic::rl::save_agent_file(snap, path);
  return path;
}

/// What one golden drive produced: the FNV-1a pins plus tallies that keep
/// the pins from being vacuous.
struct ServeGoldenRun {
  std::uint64_t responses = 0;  ///< every response: kind, z, forced
  std::uint64_t states = 0;     ///< every successor state x_{t+1}
  std::size_t drl_skips = 0;       ///< drl sessions: policy chose z = 0
  std::size_t drl_runs = 0;        ///< drl sessions: z = 1 inside X'
  std::size_t max_group_rows = 0;  ///< largest (plant, policy) row count of a tick
  oic::serve::ServiceCounters counters;
};

/// Drive a Service with one session per entry of `fleet` ((plant, policy)
/// pairs, interleaved in one decide batch per control period) for `steps`
/// periods.  Each session samples its x0 and a mixed-family disturbance
/// from its own stream and actuates z = 1 through its own copy of the
/// plant's tube MPC.  With a `capture` stream, every batch served is also
/// written to it as one `oic-serve v1` request document.
ServeGoldenRun drive_serve_golden(
    const std::vector<std::pair<std::string, std::string>>& fleet, std::size_t steps,
    oic::serve::ServiceConfig cfg, std::ostream* capture = nullptr) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  cfg.cert_dir = ::testing::TempDir() + "serve_golden_certs";
  oic::cert::Store store(cfg.cert_dir);
  std::unordered_map<std::string, std::unique_ptr<oic::eval::PlantCase>> plants;
  struct Client {
    oic::eval::PlantCase* plant = nullptr;
    bool drl = false;
    std::unique_ptr<oic::control::TubeMpc> mpc;
    std::unique_ptr<oic::sim::VelocityProfile> profile;
    oic::linalg::Vector x, u, w, xnext;
    bool alive = true;
  };
  std::vector<Client> clients(fleet.size());
  std::vector<Request> batch;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& pid = fleet[i].first;
    auto& plant = plants[pid];
    if (!plant) plant = reg.make_plant(pid, store.provider());
    Client& c = clients[i];
    c.plant = plant.get();
    c.drl = fleet[i].second.rfind("drl:", 0) == 0;
    c.mpc = std::make_unique<oic::control::TubeMpc>(plant->rmpc());
    Rng rng(oic::derive_stream(0x90f1de11, i));
    Rng x0_rng = rng.split();
    c.x = plant->sample_x0(x0_rng);
    const oic::eval::Scenario scenario =
        oic::mc::family_by_id(reg.plant(pid).signal_band, "mixed").sample(rng);
    c.profile = scenario.profile->clone();
    c.profile->reset(rng.split());
    c.w = oic::linalg::Vector(plant->system().nw());
    batch.push_back(open_req(i + 1, i + 1, pid, fleet[i].second));
  }

  ServeGoldenRun run;
  oic::Fnv1a responses, states;
  const auto hash_response = [&](const Response& r) {
    responses.u64(static_cast<std::uint64_t>(r.kind));
    responses.u64(static_cast<std::uint64_t>(r.z));
    responses.u64(r.forced ? 1 : 0);
  };
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;
  if (capture) oic::serve::write_request_batch(batch, *capture);
  svc.serve(batch, out);
  for (const Response& r : out) {
    EXPECT_EQ(r.kind, Response::Kind::kOpened) << r.error;
    hash_response(r);
  }
  for (std::size_t t = 0; t < steps; ++t) {
    batch.clear();
    std::vector<std::size_t> index;
    std::unordered_map<std::string, std::size_t> group_rows;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (!c.alive) continue;
      batch.push_back(t == 0 ? decide_req(i + 1, i + 1, c.x.data())
                             : decide_req(i + 1, i + 1, c.u.data(), c.x.data()));
      index.push_back(i);
      const std::size_t rows = ++group_rows[fleet[i].first + '\n' + fleet[i].second];
      run.max_group_rows = std::max(run.max_group_rows, rows);
    }
    if (batch.empty()) break;
    if (capture) oic::serve::write_request_batch(batch, *capture);
    svc.serve(batch, out);
    for (std::size_t k = 0; k < out.size(); ++k) {
      Client& c = clients[index[k]];
      hash_response(out[k]);
      if (out[k].kind != Response::Kind::kDecision) {
        c.alive = false;
        continue;
      }
      if (c.drl && out[k].z == 0) ++run.drl_skips;
      if (c.drl && out[k].z == 1 && !out[k].forced) ++run.drl_runs;
      c.u = out[k].z == 1 ? c.mpc->control(c.x) : c.plant->u_skip();
      c.plant->signal_to_w(c.profile->next(), c.w);
      c.plant->system().step_into(c.x, c.u, c.w, c.xnext);
      c.x = c.xnext;
      states.u64(index[k]);
      for (std::size_t j = 0; j < c.x.size(); ++j) states.f64(c.x[j]);
    }
  }
  run.responses = responses.value();
  run.states = states.value();
  run.counters = svc.counters();
  return run;
}

// Serve golden: interleaved sessions on every production plant x
// {bang-bang, periodic-5, burst:4, always-run, drl:<fixed-seed agent>},
// one decide batch per control period, every response (kind, z, forced)
// and every successor state hashed with FNV-1a over exact bit patterns.
// The constants were captured before the serve batch and the per-session
// monitor shared one decision routine; on an intentional stream change,
// rerun and copy the reported values in.
constexpr std::uint64_t kServeResponsesHash = 0x39f132ebb7ec63c5ull;
constexpr std::uint64_t kServeStatesHash = 0xcc7c1cdb53d85f4dull;

TEST(ServeGolden, InterleavedFleetReplaysThePinnedStream) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::vector<std::string> ids = reg.production_plant_ids();
  ASSERT_NE(std::find(ids.begin(), ids.end(), "toy2d"), ids.end());
  std::vector<std::pair<std::string, std::string>> fleet;
  std::vector<std::string> agents;
  for (const std::string& pid : ids) {
    agents.push_back("drl:" + write_plant_agent(pid, reg.make_model(pid).sys));
  }
  // Two sessions per (plant, policy), plants interleaved within the batch.
  const std::string kinds[] = {"bang-bang", "periodic-5", "burst:4", "always-run",
                               "drl"};
  for (std::size_t rep = 0; rep < 2; ++rep) {
    for (const std::string& kind : kinds) {
      for (std::size_t k = 0; k < ids.size(); ++k) {
        fleet.emplace_back(ids[k], kind == "drl" ? agents[k] : kind);
      }
    }
  }
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  const ServeGoldenRun run = drive_serve_golden(fleet, 40, cfg);
  // Every branch the decision routine has must be in the stream.
  EXPECT_GT(run.counters.skipped, 0u);
  EXPECT_GT(run.counters.forced, 0u);
  EXPECT_GT(run.counters.burst_skips, 0u);
  EXPECT_GT(run.drl_skips, 0u);
  EXPECT_GT(run.drl_runs, 0u);
  EXPECT_EQ(run.responses, kServeResponsesHash)
      << "serve response hash 0x" << std::hex << run.responses;
  EXPECT_EQ(run.states, kServeStatesHash)
      << "serve successor-state hash 0x" << std::hex << run.states;
}

// The pooled membership pass: a group with >= 256 pending rows splits its
// XI / X' checks over the service pool (workers > 1).  Replayed inline
// (workers = 1) and pooled (workers = 4), the stream must be the same and
// equal the pinned constants.
constexpr std::uint64_t kChunkedResponsesHash = 0xcac2665f8ae03284ull;
constexpr std::uint64_t kChunkedStatesHash = 0x4299547b4b37a443ull;

TEST(ServeGolden, PooledMembershipChunksMatchTheInlinePass) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::string agent =
      "drl:" + write_plant_agent("toy2d", reg.make_model("toy2d").sys);
  std::vector<std::pair<std::string, std::string>> fleet;
  for (std::size_t i = 0; i < 600; ++i) {
    fleet.emplace_back("toy2d", i % 2 == 0 ? agent : std::string("bang-bang"));
  }
  oic::serve::ServiceConfig inline_cfg;
  inline_cfg.workers = 1;
  oic::serve::ServiceConfig pooled_cfg;
  pooled_cfg.workers = 4;
  const ServeGoldenRun inline_run = drive_serve_golden(fleet, 6, inline_cfg);
  const ServeGoldenRun pooled_run = drive_serve_golden(fleet, 6, pooled_cfg);
  EXPECT_GE(inline_run.max_group_rows, 256u);
  EXPECT_GT(inline_run.drl_skips, 0u);
  EXPECT_GT(inline_run.drl_runs, 0u);
  EXPECT_EQ(inline_run.responses, pooled_run.responses);
  EXPECT_EQ(inline_run.states, pooled_run.states);
  EXPECT_EQ(inline_run.responses, kChunkedResponsesHash)
      << "chunked response hash 0x" << std::hex << inline_run.responses;
  EXPECT_EQ(inline_run.states, kChunkedStatesHash)
      << "chunked successor-state hash 0x" << std::hex << inline_run.states;
}

// The serve smoke capture: toy2d x {bang-bang, burst:3, periodic-2},
// eight sessions each, twelve lock-step periods, every batch the fleet
// driver serves written as one request document.  scripts/ci.sh
// --serve-only replays the committed copy through oic_serve over stdio and
// a loopback socket; ServeParity replays it across tick-worker counts.  On
// an intentional stream change, rerun with OIC_GOLDEN_REGEN=1 in the
// environment, inspect the diff, commit.
constexpr std::size_t kSmokeSessionsPerPolicy = 8;
constexpr std::size_t kSmokeSteps = 12;

std::string smoke_fixture_path() {
  return std::string(OIC_GOLDEN_DIR) + "/serve_smoke.reqs";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// What a request capture holds: its (plant, policy) groups, burst
/// sessions and decide requests.
struct CaptureShape {
  std::set<std::pair<std::string, std::string>> groups;
  std::size_t burst_sessions = 0;
  std::size_t decides = 0;
};

CaptureShape capture_shape(const std::string& capture) {
  CaptureShape shape;
  std::istringstream is(capture);
  oic::serve::RequestReader reader(is);
  std::vector<Request> batch;
  while (reader.read(batch)) {
    for (const Request& r : batch) {
      if (r.kind == Request::Kind::kDecide) ++shape.decides;
      if (r.kind != Request::Kind::kOpen) continue;
      shape.groups.emplace(r.plant, r.policy);
      if (r.policy.rfind("burst:", 0) == 0) ++shape.burst_sessions;
    }
  }
  return shape;
}

TEST(ServeGolden, SmokeCaptureMatchesFixture) {
  std::vector<std::pair<std::string, std::string>> fleet;
  for (std::size_t rep = 0; rep < kSmokeSessionsPerPolicy; ++rep) {
    for (const char* policy : {"bang-bang", "burst:3", "periodic-2"}) {
      fleet.emplace_back("toy2d", policy);
    }
  }
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  std::ostringstream capture;
  const ServeGoldenRun run = drive_serve_golden(fleet, kSmokeSteps, cfg, &capture);
  EXPECT_EQ(run.counters.errors, 0u);
  EXPECT_EQ(run.counters.decisions, fleet.size() * kSmokeSteps);
  EXPECT_GT(run.counters.burst_skips, 0u);
  const std::string rendered = capture.str();
  const CaptureShape shape = capture_shape(rendered);
  EXPECT_GE(shape.groups.size(), 3u);
  EXPECT_GT(shape.burst_sessions, 0u);
  EXPECT_EQ(shape.decides, fleet.size() * kSmokeSteps);

  const std::string path = smoke_fixture_path();
  if (std::getenv("OIC_GOLDEN_REGEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << rendered;
    return;
  }
  const std::string committed = read_file(path);
  ASSERT_FALSE(committed.empty())
      << "missing fixture " << path << " (regenerate with OIC_GOLDEN_REGEN=1 and commit)";
  EXPECT_TRUE(committed == rendered)
      << path << " differs from the fleet driver's capture (" << committed.size()
      << " vs " << rendered.size() << " bytes)";
}

// ------------------------------------------------------------ bit parity

TEST(ServeParity, TickOutputByteIdenticalAcrossTickWorkerCounts) {
  // The sharded parallel tick must be invisible in the output: replaying
  // the committed smoke capture through services with 1, 2, and 4 tick
  // workers yields byte-identical response streams.  The capture spans
  // three (plant, cert, policy) groups, so the 2- and 4-worker runs
  // really do serve groups concurrently.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  const std::string reqs = read_file(smoke_fixture_path());
  const CaptureShape shape = capture_shape(reqs);
  ASSERT_GE(shape.groups.size(), 3u);
  const auto replay = [&](std::size_t tick_workers) {
    oic::serve::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.tick_workers = tick_workers;
    oic::serve::Service svc(reg, cfg);
    std::istringstream in(reqs);
    oic::serve::RequestReader reader(in);
    std::ostringstream os;
    std::vector<Request> batch;
    std::vector<Response> out;
    while (reader.read(batch)) {
      svc.serve(batch, out);
      oic::serve::write_response_batch(out, os);
    }
    EXPECT_EQ(svc.counters().decisions, shape.decides);
    EXPECT_EQ(svc.counters().errors, 0u);
    return os.str();
  };
  const std::string w1 = replay(1);
  ASSERT_FALSE(w1.empty());
  EXPECT_EQ(w1, replay(2));
  EXPECT_EQ(w1, replay(4));
}

// --------------------------------------------------------------- server

TEST(ServeQueue, PopNLeavesQueueAndOutIntactWhenClosedShort) {
  // pop_n used to move a partial prefix into `out` before noticing the
  // channel closed short of n, silently losing those items to an await()
  // that throws.  On failure it must now leave both the queue and `out`
  // untouched so the remainder is still drainable.
  oic::serve::Channel<int> ch;
  ch.push(1);
  ch.push(2);
  ch.close();
  std::vector<int> out;
  EXPECT_FALSE(ch.pop_n(3, out));
  EXPECT_TRUE(out.empty());
  std::vector<int> rest;
  ASSERT_EQ(ch.drain_for(rest, std::chrono::milliseconds(0)),
            oic::serve::DrainStatus::kItems);
  EXPECT_EQ(rest, (std::vector<int>{1, 2}));
  // Exactly-n still delivers, appending to existing contents.
  oic::serve::Channel<int> ch2;
  ch2.push(7);
  ch2.close();
  std::vector<int> out2{5};
  EXPECT_TRUE(ch2.pop_n(1, out2));
  EXPECT_EQ(out2, (std::vector<int>{5, 7}));
}

TEST(ServeQueue, DrainForDeliversTimesOutAndDrainsClosed) {
  // The tick thread idles on drain_for instead of spinning: nothing
  // pending -> kTimeout at the cadence bound; pending items win over both
  // the deadline and closure; a closed channel drains fully before
  // reporting kClosed.
  using oic::serve::DrainStatus;
  oic::serve::Channel<int> ch;
  std::vector<int> out{9};
  EXPECT_EQ(ch.drain_for(out, std::chrono::milliseconds(1)),
            DrainStatus::kTimeout);
  EXPECT_TRUE(out.empty());  // drain_for clears `out` first
  ch.push(1);
  EXPECT_EQ(ch.drain_for(out, std::chrono::milliseconds(0)),
            DrainStatus::kItems);
  EXPECT_EQ(out, (std::vector<int>{1}));
  ch.push(2);
  ch.close();
  EXPECT_EQ(ch.drain_for(out, std::chrono::milliseconds(0)),
            DrainStatus::kItems);
  EXPECT_EQ(out, (std::vector<int>{2}));
  EXPECT_EQ(ch.drain_for(out, std::chrono::milliseconds(0)),
            DrainStatus::kClosed);
}

TEST(ServeService, BurstCountdownAnswersSkipsWithoutMembershipRows) {
  // A burst:<k> session deep inside the certified ladder starts a burst on
  // its first skip; the following decides are answered from the per-session
  // countdown (burst_skips) without a group batch row.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Service svc(reg, cfg);
  std::vector<Response> out;
  const std::vector<double> x0(2, 0.0);
  const std::vector<double> u0(1, 0.0);
  svc.serve({open_req(1, 1, "toy2d", "burst:4"), decide_req(2, 1, x0)}, out);
  ASSERT_EQ(out[0].kind, Response::Kind::kOpened) << out[0].error;
  ASSERT_EQ(out[1].kind, Response::Kind::kDecision) << out[1].error;
  EXPECT_EQ(out[1].z, 0);  // the origin sits deep inside every rung
  const std::uint64_t before = svc.counters().burst_skips;
  for (std::uint64_t ref = 3; ref < 6; ++ref) {
    svc.serve({decide_req(ref, 1, u0, x0)}, out);
    ASSERT_EQ(out[0].kind, Response::Kind::kDecision) << out[0].error;
    EXPECT_EQ(out[0].z, 0);
  }
  EXPECT_GT(svc.counters().burst_skips, before);
  EXPECT_EQ(svc.counters().forced, 0u);
}

TEST(ServeServer, ResponsesCorrelateByRefAcrossInterleavedBatches) {
  // Several batches in flight across three (plant, policy) groups, refs
  // deliberately non-monotone, every response correlated by ref alone
  // (never by its position in the stream).
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Server server(reg, cfg);
  auto conn = server.connect();
  const std::vector<double> x0(2, 0.0);

  // Two batches in flight at once (one tick may fuse them: opens run in
  // phase 1 ahead of decides, so the decides still land).  Closes go out
  // after the decides drained -- a close fused into the same tick as a
  // pending decide fails that decide by design.
  conn->submit({open_req(301, 1, "toy2d", "bang-bang"),
                open_req(102, 2, "toy2d", "periodic-2"),
                open_req(203, 3, "toy2d", "burst:2")});
  conn->submit({decide_req(907, 2, x0), decide_req(505, 1, x0),
                decide_req(708, 3, x0)});

  std::unordered_map<std::uint64_t, Response> by_ref;
  for (Response& r : conn->await(6)) by_ref[r.ref] = std::move(r);
  conn->submit({close_req(44, 3), close_req(66, 1), close_req(55, 2)});
  for (Response& r : conn->await(3)) by_ref[r.ref] = std::move(r);
  ASSERT_EQ(by_ref.size(), 9u);
  EXPECT_EQ(by_ref.at(301).kind, Response::Kind::kOpened);
  EXPECT_EQ(by_ref.at(301).session, 1u);
  EXPECT_EQ(by_ref.at(102).session, 2u);
  EXPECT_EQ(by_ref.at(203).kind, Response::Kind::kOpened);
  ASSERT_EQ(by_ref.at(505).kind, Response::Kind::kDecision)
      << by_ref.at(505).error;
  EXPECT_EQ(by_ref.at(505).session, 1u);
  ASSERT_EQ(by_ref.at(907).kind, Response::Kind::kDecision)
      << by_ref.at(907).error;
  EXPECT_EQ(by_ref.at(907).session, 2u);
  EXPECT_EQ(by_ref.at(708).session, 3u);
  EXPECT_EQ(by_ref.at(44).kind, Response::Kind::kClosed);
  EXPECT_EQ(by_ref.at(66).kind, Response::Kind::kClosed);
  EXPECT_EQ(by_ref.at(55).kind, Response::Kind::kClosed);
  EXPECT_EQ(server.open_sessions(), 0u);
}

TEST(ServeServer, TickThreadSurvivesDecideCloseBatch) {
  // Server-level regression for the decide+close crash: pre-fix this batch
  // threw std::out_of_range past Server::run's Error-only backstop and
  // std::terminate'd the process.  The server must answer and keep ticking.
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Server server(reg, cfg);
  auto conn = server.connect();
  std::vector<Request> batch{open_req(1, 50, "toy2d", "periodic-2"),
                             decide_req(2, 50, {0.0, 0.0}), close_req(3, 50)};
  conn->submit(batch);
  const std::vector<Response> res = conn->await(batch.size());
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].kind, Response::Kind::kOpened) << res[0].error;
  EXPECT_EQ(res[1].kind, Response::Kind::kError);
  EXPECT_EQ(res[2].kind, Response::Kind::kClosed);
  // Still alive: a follow-up batch round-trips.
  std::vector<Request> again{open_req(4, 51, "toy2d", "bang-bang"),
                             decide_req(5, 51, {0.0, 0.0})};
  conn->submit(again);
  const std::vector<Response> res2 = conn->await(again.size());
  ASSERT_EQ(res2.size(), 2u);
  EXPECT_EQ(res2[1].kind, Response::Kind::kDecision) << res2[1].error;
}

TEST(ServeServer, ConnectionsShareOneTickThread) {
  const auto& reg = oic::eval::ScenarioRegistry::builtin();
  oic::serve::ServiceConfig cfg;
  cfg.workers = 1;
  oic::serve::Server server(reg, cfg);
  auto a = server.connect();
  auto b = server.connect();

  std::vector<Request> batch_a{open_req(1, 100, "toy2d", "bang-bang"),
                               decide_req(2, 100, {0.0, 0.0})};
  std::vector<Request> batch_b{open_req(1, 200, "toy2d", "periodic-2"),
                               decide_req(2, 200, {0.0, 0.0})};
  a->submit(batch_a);
  b->submit(batch_b);
  const std::vector<Response> ra = a->await(batch_a.size());
  const std::vector<Response> rb = b->await(batch_b.size());
  ASSERT_EQ(ra.size(), 2u);
  ASSERT_EQ(rb.size(), 2u);
  // Responses route back to the submitting connection, 1:1 in order.
  EXPECT_EQ(ra[0].kind, Response::Kind::kOpened);
  EXPECT_EQ(ra[0].session, 100u);
  EXPECT_EQ(ra[1].kind, Response::Kind::kDecision) << ra[1].error;
  EXPECT_EQ(rb[0].kind, Response::Kind::kOpened);
  EXPECT_EQ(rb[0].session, 200u);
  EXPECT_EQ(rb[1].kind, Response::Kind::kDecision) << rb[1].error;
  EXPECT_GE(server.ticks(), 1u);
  EXPECT_EQ(server.open_sessions(), 2u);

  server.shutdown();
  EXPECT_THROW(a->submit(batch_a), oic::Error);
  EXPECT_THROW(b->await(1), oic::Error);
  // Idempotent: a second shutdown (and the destructor) is a no-op.
  server.shutdown();
}

}  // namespace
