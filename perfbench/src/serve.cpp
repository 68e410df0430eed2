/// \file serve.cpp
/// `serve`: an open-loop socket load against the shipped `oic_serve
/// --listen`.
///
/// 10k sessions over the production plants, mixing monitor-only
/// (bang-bang), burst:32 and the plant's DRL agent, each send one decide
/// per 0.1 s control period -- 100k decides/s nominal, phases spread evenly
/// over the period.  Two generator threads, one connection each, send
/// every decide at its due time whether or not the server kept up (a
/// session whose previous answer is still outstanding sends the moment it
/// arrives: the plant cannot act before it knows z), and each decide is
/// timed from its due time.  Generator plants actuate z = 1 with the warm
/// tube MPC (a few microseconds per solve): the cheaper gain u = K x drives
/// sessions into corners of XI from which, for quad-alt, the tube MPC
/// itself cannot keep every successor inside XI.
///
/// Checks: no error responses, every scheduled decide answered, and the
/// per-session skipped/forced totals equal an in-process serve::Service
/// replay of the captured request stream (sessions are timing-independent).
/// Traced runs also find the highest sustainable rate on a 5 % rate ladder
/// and time the replay's parse / tick / write phases.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "eval/registry.hpp"
#include "fleet.hpp"
#include "mc/family.hpp"
#include "serve/api.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using oic::linalg::Vector;

constexpr double kPeriodS = 0.1;        ///< every registry plant's control period
constexpr double kLimitMs = 10.0;       ///< decide latency limit (period / 10)
constexpr std::size_t kLanes = 2;       ///< generator threads = connections
/// Generator send cadence: every tick, each lane sends one document with
/// every decide that fell due since the last tick (a plant-side gateway
/// batching its sessions' messages).  Decides are still timed from their
/// own due times, so the cadence adds up to one tick of latency.
constexpr double kTickS = 0.001;
constexpr std::size_t kNominalSessions = 10000;
constexpr double kLadderStep = 1.05;    ///< rate ladder ratio (< 1.1)
constexpr int kLadderLo = -14, kLadderHi = 40;  ///< 50k .. 704k decides/s
constexpr double kCaptureS = 2.0;       ///< replayed prefix of the nominal phase
constexpr int kReplays = 5;             ///< replays timed for the service time

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

std::size_t ladder_sessions(int k) {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(kNominalSessions) * std::pow(kLadderStep, k)));
}

/// Generator-side model of one plant.
struct PlantSim {
  const oic::eval::PlantCase* plant = nullptr;
  oic::linalg::Matrix k;       ///< the tube controller's local gain
  Vector u_lo, u_hi;           ///< U bounding box
  oic::linalg::Matrix xp_a;    ///< X' faces
  Vector xp_b_robust;          ///< b_i - h_{EW}(a_i) for each X' face
  std::unique_ptr<oic::mc::ScenarioFamily> family;
  std::string drl_spec;
};

PlantSim make_plant_sim(const oic::eval::PlantCase& plant, const std::string& id,
                        const std::string& agent_path) {
  PlantSim ps;
  ps.plant = &plant;
  ps.k = plant.rmpc().local_gain();
  const auto box = plant.system().u_set().bounding_box();
  if (!box) throw std::runtime_error("serve: unbounded input set for " + id);
  ps.u_lo = box->first;
  ps.u_hi = box->second;
  const auto& xp = plant.sets().x_prime;
  ps.xp_a = xp.a();
  ps.xp_b_robust = xp.b();
  const auto ew = plant.system().disturbance_in_state_space();
  for (std::size_t i = 0; i < xp.num_constraints(); ++i) {
    const auto s = ew.support(xp.normal(i));
    if (!s.bounded || !s.feasible) throw std::runtime_error("serve: bad E W for " + id);
    ps.xp_b_robust[i] -= s.value;
  }
  ps.family = std::make_unique<oic::mc::ScenarioFamily>(oic::mc::family_by_id(
      oic::eval::ScenarioRegistry::builtin().plant(id).signal_band, "mixed"));
  ps.drl_spec = "drl:" + agent_path;
  return ps;
}

struct Session {
  std::uint64_t sid = 0;
  std::uint32_t plant = 0;
  std::string policy;
  Vector x, u, w, xn;
  std::unique_ptr<oic::sim::VelocityProfile> profile;
  bool first = true;
  bool in_flight = false;
  bool deferred = false;
  bool captured = false;   ///< the in-flight decide is in the replay capture
  bool cap_open = true;    ///< every decide so far was captured
  double due = 0.0;        ///< due time of the in-flight decide
  double deferred_due = 0.0;
  double sent = 0.0, written = 0.0;
  std::uint64_t cap_decisions = 0, cap_skipped = 0, cap_forced = 0;
};

/// Per-phase measurements of one lane (merged across lanes).
struct PhaseStats {
  double measure_from = 0.0;
  std::vector<double> lat_ms, submit_ms, wait_ms, lag_ms;
  std::uint64_t scheduled = 0, answered = 0, late = 0, errors = 0, z1 = 0;
  /// Decides never sent: due while the session still waited on a deferred
  /// one (its answers ran more than a period late).
  std::uint64_t dropped = 0;
  std::uint64_t kappa_calls = 0;  ///< generator tube-MPC solves
  std::uint64_t backlog_mid = 0, backlog_end = 0;
  double last_answer = 0.0;  ///< time of the last measured answer
  /// Server CPU microseconds per decision in each 1-s window of the
  /// measured interval, at the reference host speed.
  std::vector<double> server_cpu_us;

  void merge(const PhaseStats& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    submit_ms.insert(submit_ms.end(), o.submit_ms.begin(), o.submit_ms.end());
    wait_ms.insert(wait_ms.end(), o.wait_ms.begin(), o.wait_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    scheduled += o.scheduled;
    answered += o.answered;
    late += o.late;
    errors += o.errors;
    dropped += o.dropped;
    kappa_calls += o.kappa_calls;
    z1 += o.z1;
    backlog_mid += o.backlog_mid;
    backlog_end += o.backlog_end;
    last_answer = std::max(last_answer, o.last_answer);
  }
  double late_share() const {
    return scheduled ? static_cast<double>(scheduled - answered + late) /
                           static_cast<double>(scheduled)
                     : 1.0;  // dropped decides are never answered
  }
};

/// One generator thread with its own connection and session partition.
class Lane {
 public:
  Lane(const std::vector<PlantSim>& sims, std::uint16_t port) : sims_(sims) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("serve: cannot connect to the server");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    for (const auto& ps : sims_) mpcs_.emplace_back(ps.plant->rmpc());
  }
  ~Lane() {
    if (fd_ >= 0) ::close(fd_);
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Add session `index` (global), generated from the run seed.
  void add_session(std::size_t index, std::uint64_t seed) {
    auto s = std::make_unique<Session>();
    s->sid = index + 1;
    s->plant = static_cast<std::uint32_t>(index % sims_.size());
    const PlantSim& ps = sims_[s->plant];
    const std::size_t kind = (index / sims_.size()) % 3;
    s->policy = kind == 0 ? "bang-bang" : kind == 1 ? "burst:32" : ps.drl_spec;
    oic::Rng rng(oic::derive_stream(seed, index));
    oic::Rng x0_rng = rng.split();
    s->x = ps.plant->sample_x0(x0_rng);
    const oic::eval::Scenario scenario = ps.family->sample(rng);
    s->profile = scenario.profile->clone();
    s->profile->reset(rng.split());
    s->w = Vector(ps.plant->system().nw());
    index_.push_back(index);
    sessions_.push_back(std::move(s));
  }

  /// Open sessions [from, end) of this lane, in documents of `chunk`.
  void open_sessions(std::size_t from, std::uint64_t& errors) {
    constexpr std::size_t chunk = 2000;
    for (std::size_t b = from; b < sessions_.size(); b += chunk) {
      std::vector<oic::serve::Request> batch;
      for (std::size_t i = b; i < std::min(sessions_.size(), b + chunk); ++i) {
        oic::serve::Request r;
        r.kind = oic::serve::Request::Kind::kOpen;
        r.ref = r.session = sessions_[i]->sid;
        r.plant = sims_[sessions_[i]->plant].plant->name();
        r.policy = sessions_[i]->policy;
        batch.push_back(std::move(r));
      }
      send_doc(batch);
      std::size_t got = 0;
      while (got < batch.size()) {
        pollfd p{fd_, POLLIN, 0};
        if (::poll(&p, 1, 30000) <= 0) throw std::runtime_error("serve: open timed out");
        receive([&](const char* line) {
          if (std::strncmp(line, "opened ", 7) == 0) {
            ++got;
          } else if (std::strncmp(line, "error ", 6) == 0) {
            ++got;
            ++errors;
          }
        });
      }
    }
  }

  /// Drive sessions with global index < `active` from `t_start` until
  /// `t_end` (absolute now_s() times), measuring decides due at or after
  /// `measure_from`.  Capture documents while `capture_until` > due.
  void run_phase(std::size_t active, double t_start, double measure_from, double t_end,
                 double capture_until, PhaseStats& st);

  std::vector<std::string>& captured() { return captured_; }
  /// Decisions received over the lane's lifetime (read by the sampler).
  std::uint64_t decisions() const { return decisions_.load(std::memory_order_relaxed); }
  const std::vector<std::unique_ptr<Session>>& sessions() const { return sessions_; }
  std::size_t size() const { return sessions_.size(); }

 private:
  /// Send one request document.  The replay capture gets the same
  /// document, or only its captured rows when `capture` is given.
  void send_doc(const std::vector<oic::serve::Request>& batch,
                const std::vector<oic::serve::Request>* capture = nullptr) {
    std::ostringstream os;
    oic::serve::write_request_batch(batch, os);
    const std::string doc = os.str();
    if (capture == nullptr && capture_opens_) captured_.push_back(doc);
    if (capture != nullptr && !capture->empty()) {
      std::ostringstream cs;
      oic::serve::write_request_batch(*capture, cs);
      captured_.push_back(cs.str());
    }
    std::size_t off = 0;
    while (off < doc.size()) {
      const ssize_t n = ::send(fd_, doc.data() + off, doc.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("serve: send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available and hand every complete line to `on_line`.
  template <class F>
  void receive(F&& on_line) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("serve: server closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error("serve: recv failed");
      }
      rx_.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = rx_.find('\n', start);
        if (nl == std::string::npos) break;
        rx_[nl] = '\0';
        on_line(rx_.c_str() + start);
        start = nl + 1;
      }
      rx_.erase(0, start);
    }
  }

  /// Apply the server's decision: the skip input on z = 0.  On z = 1 the
  /// controller's gain u = K x saturated into U when the successor is
  /// inside X' for every disturbance (where a skip is certified next), else
  /// the warm tube MPC (one instance per plant per lane).  The gain alone
  /// drives sessions into corners of XI that the paper's loop never visits.
  void actuate(Session& s, int z) {
    const PlantSim& ps = sims_[s.plant];
    const auto& sys = ps.plant->system();
    if (z == 0) {
      s.u = ps.plant->u_skip();
    } else {
      if (s.u.size() != ps.k.rows()) s.u = Vector(ps.k.rows());
      for (std::size_t r = 0; r < ps.k.rows(); ++r) {
        const double* row = ps.k.row_data(r);
        double acc = 0.0;
        for (std::size_t j = 0; j < ps.k.cols(); ++j) acc += row[j] * s.x[j];
        s.u[r] = std::min(ps.u_hi[r], std::max(ps.u_lo[r], acc));
      }
      const Vector nominal = sys.step_nominal(s.x, s.u);
      bool robust = true;
      for (std::size_t i = 0; i < ps.xp_a.rows() && robust; ++i) {
        const double* a = ps.xp_a.row_data(i);
        double v = 0.0;
        for (std::size_t j = 0; j < ps.xp_a.cols(); ++j) v += a[j] * nominal[j];
        robust = v <= ps.xp_b_robust[i] - 1e-7;
      }
      if (!robust) {
        ++kappa_calls_;
        s.u = mpcs_[s.plant].control(s.x);
      }
    }
    ps.plant->signal_to_w(s.profile->next(), s.w);
    sys.step_into(s.x, s.u, s.w, s.xn);
    s.x = s.xn;
    s.first = false;
  }

  oic::serve::Request decide_request(const Session& s) const {
    oic::serve::Request r;
    r.kind = oic::serve::Request::Kind::kDecide;
    r.ref = r.session = s.sid;
    if (!s.first) {
      r.has_u = true;
      r.u = s.u;
    }
    r.x = s.x;
    return r;
  }

  const std::vector<PlantSim>& sims_;
  int fd_ = -1;
  std::string rx_;
  std::vector<oic::control::TubeMpc> mpcs_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::size_t> index_;  ///< global session index per local slot
  std::vector<std::string> captured_;
  bool capture_opens_ = true;  ///< opens before the first phase are replayed
  std::uint64_t kappa_calls_ = 0;
  std::atomic<std::uint64_t> decisions_{0};
};

void Lane::run_phase(std::size_t active, double t_start, double measure_from,
                     double t_end, double capture_until, PhaseStats& st) {
  st.measure_from = measure_from;
  const std::uint64_t kappa0 = kappa_calls_;
  // Phase offsets: a low-discrepancy sequence, so any prefix of sessions
  // (the ladder's active set) spreads evenly over the period.
  using Due = std::pair<double, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> heap;
  for (std::size_t l = 0; l < sessions_.size(); ++l) {
    if (index_[l] >= active) continue;
    const double phase =
        std::fmod(static_cast<double>(index_[l]) * 0.6180339887498949, 1.0) * kPeriodS;
    heap.push({t_start + phase, l});
  }
  std::unordered_map<std::uint64_t, std::size_t> by_sid;
  for (std::size_t l = 0; l < sessions_.size(); ++l) by_sid[sessions_[l]->sid] = l;

  std::vector<std::size_t> ready;  // deferred decides released by an answer
  std::vector<oic::serve::Request> batch, cap_batch;
  std::vector<std::size_t> batch_slots;
  capture_opens_ = false;
  std::uint64_t outstanding = 0;   // measured decides scheduled, not answered
  std::size_t in_flight = 0;       // decides sent, not answered
  double next_send = t_start;
  bool mid_sampled = false;
  const double mid = measure_from + 0.4 * (t_end - measure_from);

  const auto schedule_send = [&](std::size_t l, double due, double now) {
    Session& s = *sessions_[l];
    s.in_flight = true;
    ++in_flight;
    s.due = due;
    s.sent = now;
    // A session's captured decides must form a prefix of its stream.
    s.captured = s.cap_open && due < capture_until;
    s.cap_open = s.captured;
    batch.push_back(decide_request(s));
    if (s.captured) cap_batch.push_back(batch.back());
    batch_slots.push_back(l);
  };

  for (;;) {
    const double now = now_s();
    const bool tick = now >= next_send;
    while (next_send <= now) next_send += kTickS;
    // 1. On a send tick, everything due by now: send, or defer behind an
    // open answer.
    while (tick && !heap.empty() && heap.top().first <= now) {
      const auto [due, l] = heap.top();
      heap.pop();
      if (due >= t_end) continue;
      if (due >= measure_from) {
        ++st.scheduled;
        ++outstanding;
      }
      Session& s = *sessions_[l];
      if (s.in_flight || s.deferred) {
        // Behind an open answer: sent the moment it arrives.  A session
        // already holding a deferred decide drops this one (counted late).
        if (!s.deferred) {
          s.deferred = true;
          s.deferred_due = due;
        } else if (due >= measure_from) {
          --outstanding;
          ++st.dropped;
        }
      } else {
        schedule_send(l, due, now);
      }
      if (due + kPeriodS < t_end) heap.push({due + kPeriodS, l});
    }
    if (tick) {
      for (const std::size_t l : ready) {
        Session& s = *sessions_[l];
        s.deferred = false;
        schedule_send(l, s.deferred_due, now);
      }
      ready.clear();
    }
    if (!batch.empty()) {
      send_doc(batch, &cap_batch);
      const double written = now_s();
      for (const std::size_t l : batch_slots) sessions_[l]->written = written;
      batch.clear();
      cap_batch.clear();
      batch_slots.clear();
    }
    if (!mid_sampled && now >= mid) {
      st.backlog_mid = outstanding;
      mid_sampled = true;
    }

    if (now >= t_end && (in_flight == 0 || now >= t_end + 3.0)) break;

    // 2. Wait for answers until the next send tick.
    const double wait_s = std::max(0.0, next_send - now_s());
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{0, static_cast<long>(wait_s * 1e9)};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
    receive([&](const char* line) {
      const bool decision = std::strncmp(line, "decision ", 9) == 0;
      const bool error = std::strncmp(line, "error ", 6) == 0;
      if (!decision && !error) return;
      char* end = nullptr;
      const std::uint64_t ref = std::strtoull(line + (decision ? 9 : 6), &end, 10);
      const auto it = by_sid.find(ref);
      if (it == by_sid.end()) {
        ++st.errors;
        return;
      }
      Session& s = *sessions_[it->second];
      if (!s.in_flight) {
        ++st.errors;
        return;
      }
      s.in_flight = false;
      --in_flight;
      const double t = now_s();
      const bool measured = s.due >= measure_from && s.due < t_end;
      if (error) {
        ++st.errors;
        if (measured) {
          --outstanding;
          ++st.answered;
          ++st.late;
        }
        s.deferred = false;  // the session is gone server-side
        return;
      }
      decisions_.fetch_add(1, std::memory_order_relaxed);
      // "decision <ref> session <sid> z <z> forced <f>"
      const char* zp = std::strstr(end, " z ");
      const char* fp = std::strstr(end, " forced ");
      const int z = zp ? zp[3] - '0' : 1;
      const bool forced = fp && fp[8] == '1';
      if (s.captured) {
        ++s.cap_decisions;
        if (z == 0) ++s.cap_skipped;
        if (forced) ++s.cap_forced;
      }
      if (measured) {
        --outstanding;
        ++st.answered;
        const double lat = 1e3 * (t - s.due);
        st.lat_ms.push_back(lat);
        st.submit_ms.push_back(1e3 * (s.written - s.due));
        st.wait_ms.push_back(1e3 * (t - s.written));
        st.lag_ms.push_back(1e3 * (s.sent - s.due));
        if (lat > kLimitMs) ++st.late;
        st.last_answer = t;
        if (z == 1) ++st.z1;
      }
      actuate(s, z);
      if (s.deferred) ready.push_back(it->second);
    });
  }
  st.backlog_end = outstanding;
  st.kappa_calls = kappa_calls_ - kappa0;
  for (auto& s : sessions_) s->deferred = false;
}

/// Run fn(k) for k in [0, n) on n threads while the calling thread runs
/// `main`; rethrow the first failure after every thread has joined.
template <class F, class M>
void on_threads(std::size_t n, F&& fn, M&& main) {
  std::vector<std::exception_ptr> errors(n + 1);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < n; ++k) {
    threads.emplace_back([&, k] {
      try {
        fn(k);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  try {
    main();
  } catch (...) {
    errors[n] = std::current_exception();
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

template <class F>
void on_threads(std::size_t n, F&& fn) {
  on_threads(n, std::forward<F>(fn), [] {});
}

/// The oic_serve child process.
struct ServerProc {
  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string json_path;

  void start(const std::string& bin, const std::string& dir, const std::string& cert_dir) {
    const std::string port_file = dir + "/serve.port";
    json_path = dir + "/serve.json";
    std::filesystem::remove(port_file);
    std::vector<std::string> argv_s = {bin, "--listen", "0", "--port-file", port_file,
                                       "--cert-dir", cert_dir, "--json", json_path};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const std::string log = dir + "/serve.log";
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("serve: cannot start " + bin);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      std::ifstream pf(port_file);
      unsigned p = 0;
      if (pf >> p && p > 0) {
        port = static_cast<std::uint16_t>(p);
        return;
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        throw std::runtime_error("serve: server exited during start-up (see serve.log)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop();
    throw std::runtime_error("serve: server did not publish its port");
  }

  /// SIGTERM, then wait (SIGKILL after 30 s).  Returns the exit status.
  int stop() {
    if (pid <= 0) return -1;
    kill(pid, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (waitpid(pid, &status, WNOHANG) != pid) {
      if (Clock::now() > deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ServerProc() { stop(); }
};

/// Integer field `"key": N` of the server's exit JSON (0 when absent).
double json_number(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

/// Everything one set-up produces: fleet, server, lanes with open sessions.
struct Rig {
  Fleet fleet;
  std::vector<PlantSim> sims;
  ServerProc server;
  std::vector<std::unique_ptr<Lane>> lanes;
  std::size_t sessions = 0;
  std::uint64_t open_errors = 0;

  void add_sessions(std::size_t total, std::uint64_t seed) {
    std::vector<std::size_t> from;
    for (auto& l : lanes) from.push_back(l->size());
    for (std::size_t i = sessions; i < total; ++i) lanes[i % lanes.size()]->add_session(i, seed);
    std::vector<std::uint64_t> errs(lanes.size(), 0);
    on_threads(lanes.size(), [&](std::size_t k) { lanes[k]->open_sessions(from[k], errs[k]); });
    for (auto e : errs) open_errors += e;
    sessions = total;
  }
};

std::unique_ptr<Rig> set_up(const Args& args, const std::string& dir) {
  auto rig = std::make_unique<Rig>();
  rig->fleet = make_fleet(dir, /*with_agents=*/true);
  for (std::size_t i = 0; i < rig->fleet.ids.size(); ++i) {
    rig->sims.push_back(make_plant_sim(*rig->fleet.plants[i], rig->fleet.ids[i],
                                       rig->fleet.agent_paths[i]));
  }
  rig->server.start(args.serve_bin, dir, rig->fleet.cert_dir);
  for (std::size_t k = 0; k < kLanes; ++k) {
    rig->lanes.push_back(std::make_unique<Lane>(rig->sims, rig->server.port));
  }
  rig->add_sessions(args.quick ? kNominalSessions / 10 : kNominalSessions, args.seed);
  return rig;
}

PhaseStats run_phase(Rig& rig, std::size_t active, double warm_s, double measure_s,
                     double capture_s) {
  const double t0 = now_s() + 0.01;
  const double measure_from = t0 + warm_s;
  const double t_end = measure_from + measure_s;
  std::vector<PhaseStats> per(rig.lanes.size());
  // The calling thread samples the server's CPU time, the decisions
  // answered and the host speed once a second through the measured window.
  std::vector<double> cpu_us;
  const auto sampler = [&] {
    const auto decisions = [&] {
      std::uint64_t n = 0;
      for (const auto& lane : rig.lanes) n += lane->decisions();
      return n;
    };
    const auto sleep_until = [](double t) {
      const double dt = t - now_s();
      if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
    };
    sleep_until(measure_from);
    double cal = calibration_s();
    double cpu = process_cpu_s(rig.server.pid);
    std::uint64_t n = decisions();
    for (double w = measure_from + 1.0; w <= t_end + 1e-9; w += 1.0) {
      sleep_until(w);
      const double cpu_next = process_cpu_s(rig.server.pid);
      const std::uint64_t n_next = decisions();
      const double cal_next = calibration_s();
      if (n_next > n) {
        cpu_us.push_back(1e6 * (cpu_next - cpu) / static_cast<double>(n_next - n) /
                         host_slowness(cal, cal_next));
      }
      cal = cal_next;
      cpu = process_cpu_s(rig.server.pid);
      n = decisions();
    }
  };
  on_threads(
      rig.lanes.size(),
      [&](std::size_t k) {
        rig.lanes[k]->run_phase(active, t0, measure_from, t_end, t0 + capture_s, per[k]);
      },
      sampler);
  PhaseStats all;
  all.measure_from = measure_from;
  all.server_cpu_us = std::move(cpu_us);
  for (const auto& p : per) all.merge(p);
  return all;
}

/// Replay the captured stream through an in-process Service (one thread);
/// compare the per-session totals; optionally time parse / tick / write of
/// the decide documents (session opens excluded).
struct Replay {
  std::uint64_t decisions = 0, burst_skips = 0, mismatched = 0;
  double parse_us = 0.0, tick_us = 0.0, write_us = 0.0, wall_us = 0.0;
  double slowness = 1.0;  ///< host_slowness over the replay

  /// Service time per decide at the reference host speed.
  double service_us() const {
    return (parse_us + tick_us + write_us) / static_cast<double>(decisions) / slowness;
  }
};

Replay replay(Rig& rig, bool timed) {
  oic::serve::ServiceConfig cfg;
  cfg.cert_dir = rig.fleet.cert_dir;
  cfg.workers = 1;
  oic::serve::Service svc(oic::eval::ScenarioRegistry::builtin(), cfg);
  Replay out;
  std::unordered_map<std::uint64_t, std::array<std::uint64_t, 3>> tally;
  const double cal0 = calibration_s();
  const auto w0 = Clock::now();
  for (auto& lane : rig.lanes) {
    std::string stream;
    for (const auto& doc : lane->captured()) stream += doc;
    std::istringstream is(stream);
    oic::serve::RequestReader reader(is);
    std::vector<oic::serve::Request> batch;
    std::vector<oic::serve::Response> resp;
    for (;;) {
      auto t0 = Clock::now();
      const bool more = reader.read(batch);
      auto t1 = Clock::now();
      if (!more) break;
      svc.serve(batch, resp);
      auto t2 = Clock::now();
      std::ostringstream os;
      oic::serve::write_response_batch(resp, os);
      auto t3 = Clock::now();
      if (timed && batch.front().kind == oic::serve::Request::Kind::kDecide) {
        out.parse_us += 1e6 * seconds_between(t0, t1);
        out.tick_us += 1e6 * seconds_between(t1, t2);
        out.write_us += 1e6 * seconds_between(t2, t3);
      }
      for (const auto& r : resp) {
        if (r.kind != oic::serve::Response::Kind::kDecision) continue;
        auto& t = tally[r.session];
        ++t[0];
        if (r.z == 0) ++t[1];
        if (r.forced) ++t[2];
      }
    }
  }
  out.wall_us = 1e6 * seconds_between(w0, Clock::now());
  out.slowness = host_slowness(cal0, calibration_s());
  out.decisions = svc.counters().decisions;
  out.burst_skips = svc.counters().burst_skips;
  for (auto& lane : rig.lanes) {
    for (const auto& s : lane->sessions()) {
      const auto it = tally.find(s->sid);
      const std::array<std::uint64_t, 3> got =
          it == tally.end() ? std::array<std::uint64_t, 3>{0, 0, 0} : it->second;
      if (got[0] != s->cap_decisions || got[1] != s->cap_skipped || got[2] != s->cap_forced) {
        ++out.mismatched;
      }
    }
  }
  return out;
}

}  // namespace

void serve_workload(const Args& args, Outcome& out) {
  if (args.serve_bin.empty()) throw std::runtime_error("serve: --serve-bin is required");

  // Set-up, repeated: fleet (certs, plants, agents), server listening,
  // every nominal session open.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupReps; ++r) {
    if (rig) {
      rig->lanes.clear();
      rig->server.stop();
      rig.reset();
    }
    const double cal0 = calibration_s();
    const auto t0 = Clock::now();
    rig = set_up(args, args.work_dir + "/setup");
    SetupTimes t = times_of(rig->fleet);
    t.total_s = seconds_between(t0, Clock::now());
    setups.push_back(at_reference_speed(t, cal0, calibration_s()));
  }
  const SetupTimes setup = median_setup(setups);
  out.check(rig->open_errors == 0, "serve: session open failed", rig->sessions);
  const int server_pid = rig->server.pid;
  // Server memory holding every session, before load; the peak under load
  // also depends on queueing and allocator timing (serve.rss_load_mb).
  const double rss_mb = process_peak_rss_mb(server_pid);

  // Nominal load: warm-up, then the measured window.  The first kCaptureS
  // seconds (warm-up included) are captured for the replay check.
  const double warm_s = args.quick ? 0.2 : 0.5;
  const double measure_s = args.quick ? 1.0 : args.seconds;
  const PhaseStats nominal = run_phase(*rig, rig->sessions, warm_s, measure_s, kCaptureS);
  out.check(nominal.errors == 0, "serve: error responses at the nominal rate", nominal.errors);
  out.check(nominal.answered + nominal.dropped == nominal.scheduled && nominal.backlog_end == 0,
            "serve: sent decides never answered",
            nominal.scheduled - nominal.answered - nominal.dropped);
  out.attempted += nominal.scheduled;

  // Rate ladder (traced runs): bisect the 5 % ladder for the highest rate
  // whose p99 stays within the limit with no growing backlog.
  double max_rate = 0.0;
  std::uint64_t ladder_errors = 0;
  if (args.trace) {
    const auto passes = [](const PhaseStats& st, std::size_t sessions) {
      const double rate = static_cast<double>(sessions) / kPeriodS;
      const bool growing = st.backlog_end > st.backlog_mid + rate * 0.002;
      return st.scheduled > 0 && quantile(st.lat_ms, 0.99) <= kLimitMs &&
             st.late_share() < 0.01 && !growing;
    };
    const std::size_t top = args.quick ? ladder_sessions(2) / 10 : ladder_sessions(kLadderHi);
    rig->add_sessions(top, args.seed);
    out.check(rig->open_errors == 0, "serve: ladder session open failed");
    int lo = kLadderLo - 1, hi = kLadderHi + 1;
    if (passes(nominal, kNominalSessions)) lo = 0; else hi = 0;
    while (hi - lo > 1 && !args.quick) {
      const int mid = (lo + hi) / 2;
      const std::size_t n = ladder_sessions(mid);
      const PhaseStats st = run_phase(*rig, n, 0.3, 0.7, 0.0);
      ladder_errors += st.errors;
      if (passes(st, n)) lo = mid; else hi = mid;
    }
    max_rate = static_cast<double>(ladder_sessions(lo)) / kPeriodS;
    out.check(ladder_errors == 0, "serve: error responses on the rate ladder", ladder_errors);
  }

  const double rss_load_mb = process_peak_rss_mb(server_pid);
  // The replay is short (a few hundred ms); its service time is the median
  // of several.
  const Replay timed = replay(*rig, true);
  out.check(timed.mismatched == 0,
            "serve: live per-session totals differ from the in-process replay",
            timed.mismatched + 1);
  std::vector<double> service_us = {timed.service_us()};
  for (int r = 1; r < kReplays; ++r) service_us.push_back(replay(*rig, true).service_us());
  Replay plain;
  if (args.trace) plain = replay(*rig, false);

  // Shut down; the exit report carries ticks and invariant errors.
  std::vector<std::unique_ptr<Lane>> lanes = std::move(rig->lanes);
  lanes.clear();
  const int status = rig->server.stop();
  std::ifstream jf(rig->server.json_path);
  const std::string report((std::istreambuf_iterator<char>(jf)), std::istreambuf_iterator<char>());
  out.check(status == 0 && json_number(report, "invariant_errors") == 0 &&
                json_number(report, "errors") == 0,
            "serve: server reported errors or a non-zero exit");

  const double server_cpu_us = median_of(nominal.server_cpu_us);
  if (!args.trace) {
    // Answered decides over the wall time from the first due time to the
    // last answer (an open loop that keeps up reads its offered rate).
    const double window = nominal.last_answer - nominal.measure_from;
    out.metric("setup_s", setup.total_s, "s");
    out.metric("periods_per_s", static_cast<double>(nominal.lat_ms.size()) / window, "1/s");
    out.metric("kappa_share",
               static_cast<double>(nominal.z1) / static_cast<double>(nominal.lat_ms.size()),
               "ratio");
    out.metric("cpu_us_per_period", median_of(service_us), "us");
    out.metric("rss_mb", rss_mb, "MB");
    return;
  }

  const double decides = static_cast<double>(nominal.lat_ms.size());
  out.metric("cert.synth_ms", setup.synth_ms, "ms");
  out.metric("eval.plant_build_ms", setup.build_ms, "ms");
  out.metric("train.agent_prep_ms", setup.agent_ms, "ms");
  out.metric("serve.max_rate", max_rate, "1/s");
  out.metric("serve.late_share", nominal.late_share(), "ratio");
  out.metric("serve.server_cpu_us", server_cpu_us, "us");
  out.metric("serve.rss_load_mb", rss_load_mb, "MB");
  out.metric("serve.parse_us", timed.parse_us / static_cast<double>(timed.decisions), "us");
  out.metric("serve.tick_us", timed.tick_us / static_cast<double>(timed.decisions), "us");
  out.metric("serve.write_us", timed.write_us / static_cast<double>(timed.decisions), "us");
  out.metric("serve.p50_ms", quantile(nominal.lat_ms, 0.5), "ms");
  out.metric("serve.p99_ms", quantile(nominal.lat_ms, 0.99), "ms");
  out.metric("serve.wait_ms.p50", quantile(nominal.wait_ms, 0.5), "ms");
  out.metric("serve.wait_ms.p99", quantile(nominal.wait_ms, 0.99), "ms");
  out.metric("serve.submit_ms.p50", quantile(nominal.submit_ms, 0.5), "ms");
  out.metric("serve.submit_ms.p99", quantile(nominal.submit_ms, 0.99), "ms");
  out.metric("serve.gen_lag_ms.p99", quantile(nominal.lag_ms, 0.99), "ms");
  const double ticks = json_number(report, "ticks");
  out.metric("serve.decisions_per_tick",
             ticks > 0 ? json_number(report, "decisions") / ticks : 0.0, "count");
  out.metric("serve.burst_share",
             static_cast<double>(timed.burst_skips) / static_cast<double>(timed.decisions),
             "ratio");
  out.metric("serve.gen_kappa_share", static_cast<double>(nominal.kappa_calls) / decides,
             "ratio");
  out.metric("core.skip_ratio", 1.0 - static_cast<double>(nominal.z1) / decides, "ratio");
  out.metric("trace.overhead_pct", 100.0 * (timed.wall_us - plain.wall_us) / plain.wall_us,
             "%");
}

}  // namespace perfbench
