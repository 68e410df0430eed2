#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "control/tube_mpc.hpp"
#include "eval/harness.hpp"
#include "eval/policy_spec.hpp"
#include "mc/family.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace oic::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One loadgen-driven session's plant-side state.
struct ClientSession {
  std::uint64_t sid = 0;
  std::size_t plant_index = 0;
  std::unique_ptr<sim::VelocityProfile> profile;
  linalg::Vector x;
  linalg::Vector u;
  linalg::Vector w;
  linalg::Vector xnext;
  bool alive = true;
  bool first = true;
};

/// Shared capture stream for --emit (clients interleave whole batches; the
/// format is self-framed, so the capture replays through oic_serve).
struct EmitSink {
  std::ofstream os;
  std::mutex mu;

  void write(const std::vector<Request>& batch) {
    std::lock_guard<std::mutex> lock(mu);
    write_request_batch(batch, os);
  }
};

/// One control period's chunk round-trip samples (parallel arrays).
struct TickSamples {
  std::vector<double> total;   ///< submit + wait, the headline latency
  std::vector<double> submit;  ///< submit->enqueue component
  std::vector<double> wait;    ///< enqueue->response component
};

struct ClientStats {
  std::uint64_t decisions = 0;
  std::uint64_t skipped = 0;
  std::uint64_t forced = 0;
  std::uint64_t errors = 0;
  std::vector<TickSamples> tick_ms;  ///< decide samples per period
};

double percentile(const std::vector<double>& sorted, std::size_t pct) {
  const std::size_t idx = (sorted.size() * pct) / 100;
  return sorted[idx >= sorted.size() ? sorted.size() - 1 : idx];
}

/// Transport seam for a loadgen client: hand one batch to the server,
/// consume response batches as they arrive.  Responses are correlated by
/// `ref` downstream, never by arrival order.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void submit(std::vector<Request> batch) = 0;
  virtual bool await_any(std::vector<Response>& out) = 0;
};

class InprocEndpoint final : public Endpoint {
 public:
  explicit InprocEndpoint(std::shared_ptr<Connection> conn)
      : conn_(std::move(conn)) {}
  void submit(std::vector<Request> batch) override {
    conn_->submit(std::move(batch));
  }
  bool await_any(std::vector<Response>& out) override {
    return conn_->await_any(out);
  }

 private:
  std::shared_ptr<Connection> conn_;
};

class SocketEndpoint final : public Endpoint {
 public:
  SocketEndpoint(const std::string& host, std::uint16_t port)
      : client_(host, port) {}
  void submit(std::vector<Request> batch) override { client_.submit(batch); }
  bool await_any(std::vector<Response>& out) override {
    return client_.await_any(out);
  }

 private:
  SocketClient client_;
};

}  // namespace

namespace {

/// The transport-agnostic client fleet: `make_endpoint` is invoked once
/// per client thread.
LoadgenResult run_clients(const eval::ScenarioRegistry& registry,
                          const LoadgenConfig& cfg,
                          const std::function<std::unique_ptr<Endpoint>()>&
                              make_endpoint) {
  OIC_REQUIRE(cfg.sessions >= 1, "run_loadgen: need at least one session");
  OIC_REQUIRE(cfg.steps >= 1, "run_loadgen: need at least one step");
  const std::size_t clients = std::max<std::size_t>(1, cfg.clients);

  // Policy specs round-robin by global session index; parse each up front
  // so a typo fails the run with one diagnostic instead of `sessions`
  // open errors.
  std::vector<std::string> specs;
  std::vector<bool> spec_burst;
  {
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = cfg.policy.find(',', pos);
      const std::string spec = cfg.policy.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      OIC_REQUIRE(!spec.empty(),
                  "run_loadgen: empty policy spec in '" + cfg.policy + "'");
      spec_burst.push_back(eval::parse_policy_spec(spec).kind ==
                           eval::PolicySpec::Kind::kBurst);
      specs.push_back(spec);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const bool gain_actuation = cfg.actuation == "gain";
  OIC_REQUIRE(gain_actuation || cfg.actuation == "rmpc",
              "run_loadgen: unknown actuation '" + cfg.actuation +
                  "' (known: rmpc, gain)");

  const std::vector<std::string> plant_ids =
      cfg.plants.empty() ? registry.production_plant_ids() : cfg.plants;
  OIC_REQUIRE(!plant_ids.empty(), "run_loadgen: registry is empty");

  std::unique_ptr<cert::Store> store;
  cert::Provider provider;
  if (!cfg.cert_dir.empty()) {
    store = std::make_unique<cert::Store>(cfg.cert_dir);
    provider = store->provider();
  }

  // The plant-side fleet: one shared plant build per id (clients read the
  // const surface and copy the RMPC), one family per id.
  std::vector<std::unique_ptr<eval::PlantCase>> plants;
  std::vector<mc::ScenarioFamily> families;
  for (const auto& pid : plant_ids) {
    const eval::PlantInfo& info = registry.plant(pid);
    plants.push_back(info.make_plant(provider));
    families.push_back(mc::family_by_id(info.signal_band, cfg.family));
  }

  std::unique_ptr<EmitSink> emit;
  if (!cfg.emit_path.empty()) {
    emit = std::make_unique<EmitSink>();
    emit->os.open(cfg.emit_path);
    OIC_REQUIRE(emit->os.good(),
                "run_loadgen: cannot open emit file '" + cfg.emit_path + "'");
  }

  std::vector<ClientStats> stats(clients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();

  for (std::size_t c = 0; c < clients; ++c) {
    // Contiguous session partition per client; sid is the global index + 1
    // so a captured stream replays through a fresh server.
    const std::size_t base = cfg.sessions / clients, rem = cfg.sessions % clients;
    const std::size_t begin = c * base + std::min(c, rem);
    const std::size_t end = begin + base + (c < rem ? 1 : 0);
    threads.emplace_back([&, c, begin, end] {
      ClientStats& st = stats[c];
      std::vector<ClientSession> sessions;
      try {
        const std::unique_ptr<Endpoint> endpoint = make_endpoint();

        std::vector<control::TubeMpc> mpcs;
        for (const auto& plant : plants) mpcs.emplace_back(plant->rmpc());

        for (std::size_t i = begin; i < end; ++i) {
          ClientSession s;
          s.sid = i + 1;
          s.plant_index = i % plants.size();
          const eval::PlantCase& plant = *plants[s.plant_index];
          Rng rng(derive_stream(cfg.seed, i));
          Rng x0_rng = rng.split();
          s.x = plant.sample_x0(x0_rng);
          eval::Scenario scenario = families[s.plant_index].sample(rng);
          s.profile = scenario.profile->clone();
          s.profile->reset(rng.split());
          s.w = linalg::Vector(plant.system().nw());
          sessions.push_back(std::move(s));
        }

        st.tick_ms.resize(cfg.steps);

        // Ref -> (batch row, chunk) correlation scratch: the partition's
        // sids are contiguous [begin+1, end], so the maps are flat arrays.
        const std::uint64_t first_sid = begin + 1;
        std::vector<std::uint32_t> row_of(end - begin, 0);
        std::vector<std::uint32_t> chunk_of(end - begin, 0);

        // Windowed pipelining: keep at most cfg.pipeline_window chunks of
        // cfg.max_batch requests in flight, submitting the next chunk the
        // moment one completes and consuming responses as they arrive,
        // correlated to their batch row by `ref` (never arrival order).
        // Unbounded pipelining would maximize overlap but makes a late
        // chunk's round trip span the whole control period -- every chunk
        // ahead of it has to be served AND actuated first -- so the window
        // is what keeps the measured latency a decision latency instead of
        // a tick barrier.  on_response sees (row index into `batch`,
        // response).
        auto pipelined = [&](std::vector<Request> batch, TickSamples* samples,
                             auto&& on_response) {
          const std::size_t total = batch.size();
          if (total == 0) return;
          const std::size_t chunk = cfg.max_batch == 0 ? total : cfg.max_batch;
          const std::size_t window =
              cfg.pipeline_window == 0 ? total : cfg.pipeline_window;
          for (std::size_t row = 0; row < total; ++row) {
            row_of[batch[row].ref - first_sid] = static_cast<std::uint32_t>(row);
          }
          struct ChunkState {
            double submit_ms = 0.0;
            Clock::time_point enqueued{};
            std::size_t remaining = 0;
          };
          std::vector<ChunkState> chunks;
          chunks.reserve((total + chunk - 1) / chunk);
          std::size_t off = 0;         // next unsubmitted row
          std::size_t in_flight = 0;   // submitted chunks not fully answered
          auto submit_next = [&] {
            const std::size_t m = std::min(chunk, total - off);
            const auto first = batch.begin() + static_cast<std::ptrdiff_t>(off);
            for (std::size_t k = 0; k < m; ++k) {
              chunk_of[(first + static_cast<std::ptrdiff_t>(k))->ref - first_sid] =
                  static_cast<std::uint32_t>(chunks.size());
            }
            std::vector<Request> sub;
            sub.reserve(m);
            std::move(first, first + static_cast<std::ptrdiff_t>(m),
                      std::back_inserter(sub));
            if (emit) emit->write(sub);
            const auto t0 = Clock::now();
            endpoint->submit(std::move(sub));
            ChunkState cs;
            cs.submit_ms = ms_since(t0);
            cs.enqueued = Clock::now();
            cs.remaining = m;
            chunks.push_back(cs);
            off += m;
            ++in_flight;
          };
          while (off < total && in_flight < window) submit_next();
          std::size_t outstanding = total;
          std::vector<Response> res;
          while (outstanding > 0) {
            if (!endpoint->await_any(res)) {
              throw NumericalError(
                  "run_loadgen: stream closed with " +
                  std::to_string(outstanding) + " responses outstanding");
            }
            for (const Response& r : res) {
              if (r.ref < first_sid || r.ref - first_sid >= row_of.size()) {
                ++st.errors;  // echoed ref we never submitted
                continue;
              }
              const std::size_t slot = r.ref - first_sid;
              on_response(row_of[slot], r);
              ChunkState& cs = chunks[chunk_of[slot]];
              if (--cs.remaining == 0) {
                if (samples) {
                  const double wait_ms = ms_since(cs.enqueued);
                  samples->submit.push_back(cs.submit_ms);
                  samples->wait.push_back(wait_ms);
                  samples->total.push_back(cs.submit_ms + wait_ms);
                }
                --in_flight;
                // Refill the window before draining the rest: the server
                // should never sit idle waiting for the next chunk.
                if (off < total) submit_next();
              }
              --outstanding;
            }
          }
        };

        // Open every session.
        std::vector<Request> batch;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
          const ClientSession& s = sessions[i];
          Request r;
          r.kind = Request::Kind::kOpen;
          r.ref = s.sid;
          r.session = s.sid;
          r.plant = plants[s.plant_index]->name();
          r.policy = specs[(begin + i) % specs.size()];
          batch.push_back(std::move(r));
        }
        pipelined(std::move(batch), nullptr,
                  [&](std::size_t i, const Response& r) {
          if (r.kind != Response::Kind::kOpened) {
            ++st.errors;
            sessions[i].alive = false;
          }
        });

        // One decide per session per control period.
        for (std::size_t t = 0; t < cfg.steps; ++t) {
          batch.clear();
          std::vector<std::size_t> index;  // batch row -> session
          for (std::size_t i = 0; i < sessions.size(); ++i) {
            ClientSession& s = sessions[i];
            if (!s.alive) continue;
            Request r;
            r.kind = Request::Kind::kDecide;
            r.ref = s.sid;
            r.session = s.sid;
            if (!s.first) {
              r.has_u = true;
              r.u = s.u;
            }
            r.x = s.x;
            batch.push_back(std::move(r));
            index.push_back(i);
          }
          if (batch.empty()) break;
          pipelined(std::move(batch), &st.tick_ms[t],
                    [&](std::size_t k, const Response& res) {
            ClientSession& s = sessions[index[k]];
            const eval::PlantCase& plant = *plants[s.plant_index];
            if (res.kind != Response::Kind::kDecision) {
              ++st.errors;
              s.alive = false;
              return;
            }
            ++st.decisions;
            if (res.z == 0) ++st.skipped;
            if (res.forced) ++st.forced;
            if (res.z == 1) {
              if (gain_actuation) {
                // u = K x with the controller's own ancillary gain.
                const linalg::Matrix& k = mpcs[s.plant_index].local_gain();
                if (s.u.size() != k.rows()) s.u = linalg::Vector(k.rows());
                for (std::size_t r = 0; r < k.rows(); ++r) {
                  const double* row = k.row_data(r);
                  double acc = 0.0;
                  for (std::size_t j = 0; j < k.cols(); ++j) acc += row[j] * s.x[j];
                  s.u[r] = acc;
                }
              } else {
                try {
                  s.u = mpcs[s.plant_index].control(s.x);
                } catch (const NumericalError&) {
                  ++st.errors;
                  s.alive = false;
                  return;
                }
              }
            } else {
              s.u = plant.u_skip();
            }
            plant.signal_to_w(s.profile->next(), s.w);
            plant.system().step_into(s.x, s.u, s.w, s.xnext);
            s.x = s.xnext;
            s.first = false;
          });
        }

        // Close what survived.
        batch.clear();
        for (const auto& s : sessions) {
          if (!s.alive) continue;
          Request r;
          r.kind = Request::Kind::kClose;
          r.ref = s.sid;
          r.session = s.sid;
          batch.push_back(std::move(r));
        }
        pipelined(std::move(batch), nullptr,
                  [&](std::size_t, const Response& r) {
          if (r.kind != Response::Kind::kClosed) ++st.errors;
        });
      } catch (const Error&) {
        // The transport collapsed under this client (connect refused,
        // server shut down mid-run): every session still alive never got
        // its responses.
        if (sessions.empty()) {
          st.errors += end - begin;
        } else {
          for (const auto& s : sessions) {
            if (s.alive) ++st.errors;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadgenResult out;
  out.sessions = cfg.sessions;
  out.steps = cfg.steps;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t i = 0; i < cfg.sessions; ++i) {
    if (spec_burst[i % specs.size()]) ++out.burst_sessions;
  }
  for (const ClientStats& st : stats) {
    out.decisions += st.decisions;
    out.skipped += st.skipped;
    out.forced += st.forced;
    out.errors += st.errors;
  }
  std::vector<double> latency, submit_all, wait_all;  // headline samples
  for (std::size_t t = 0; t < cfg.steps; ++t) {
    std::vector<double> tick, submit, wait;
    for (const ClientStats& st : stats) {
      if (t >= st.tick_ms.size()) continue;
      const TickSamples& ts = st.tick_ms[t];
      tick.insert(tick.end(), ts.total.begin(), ts.total.end());
      submit.insert(submit.end(), ts.submit.begin(), ts.submit.end());
      wait.insert(wait.end(), ts.wait.begin(), ts.wait.end());
    }
    if (tick.empty()) continue;  // every session already dead
    latency.insert(latency.end(), tick.begin(), tick.end());
    submit_all.insert(submit_all.end(), submit.begin(), submit.end());
    wait_all.insert(wait_all.end(), wait.begin(), wait.end());
    std::sort(tick.begin(), tick.end());
    std::sort(submit.begin(), submit.end());
    std::sort(wait.begin(), wait.end());
    TickLatency tl;
    tl.tick = t;
    tl.samples = tick.size();
    tl.p50_ms = percentile(tick, 50);
    tl.p99_ms = percentile(tick, 99);
    tl.max_ms = tick.back();
    tl.submit_p50_ms = percentile(submit, 50);
    tl.submit_p99_ms = percentile(submit, 99);
    tl.wait_p50_ms = percentile(wait, 50);
    tl.wait_p99_ms = percentile(wait, 99);
    out.tick_latency.push_back(tl);
  }
  if (!latency.empty()) {
    std::sort(latency.begin(), latency.end());
    std::sort(submit_all.begin(), submit_all.end());
    std::sort(wait_all.begin(), wait_all.end());
    out.p50_ms = percentile(latency, 50);
    out.p99_ms = percentile(latency, 99);
    out.submit_p50_ms = percentile(submit_all, 50);
    out.submit_p99_ms = percentile(submit_all, 99);
    out.wait_p50_ms = percentile(wait_all, 50);
    out.wait_p99_ms = percentile(wait_all, 99);
  }
  if (out.wall_s > 0.0) {
    out.decisions_per_s = static_cast<double>(out.decisions) / out.wall_s;
    out.sessions_per_s = out.decisions_per_s;
  }
  return out;
}

}  // namespace

LoadgenResult run_loadgen(Server& server, const eval::ScenarioRegistry& registry,
                          const LoadgenConfig& cfg) {
  if (cfg.transport == "inproc") {
    return run_clients(registry, cfg, [&server]() -> std::unique_ptr<Endpoint> {
      return std::make_unique<InprocEndpoint>(server.connect());
    });
  }
  OIC_REQUIRE(cfg.transport == "socket",
              "run_loadgen: unknown transport '" + cfg.transport +
                  "' (known: inproc, socket)");
  // Loopback listener wrapping the caller's server: every client speaks
  // real TCP, so measured latency includes serialization and the wire.
  SocketListener listener(server, 0);
  const std::uint16_t port = listener.port();
  LoadgenResult out =
      run_clients(registry, cfg, [port]() -> std::unique_ptr<Endpoint> {
        return std::make_unique<SocketEndpoint>("127.0.0.1", port);
      });
  listener.stop();
  return out;
}

LoadgenResult run_loadgen_connect(const eval::ScenarioRegistry& registry,
                                  const LoadgenConfig& cfg,
                                  const std::string& host, std::uint16_t port) {
  return run_clients(registry, cfg, [&host, port]() -> std::unique_ptr<Endpoint> {
    return std::make_unique<SocketEndpoint>(host, port);
  });
}

}  // namespace oic::serve
