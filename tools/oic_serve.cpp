/// \file oic_serve.cpp
/// Monitor-as-a-service front end: a long-running multi-session monitor
/// server speaking the `oic-serve v1` text protocol (src/serve/api.hpp)
/// over stdin/stdout, files, or a loopback TCP socket:
///
///   oic_serve --in tests/golden/serve_smoke.reqs --out smoke.resps
///
///   oic_serve --listen 0 --port-file serve.port &
///
/// Any `oic-serve v1` client may then connect to 127.0.0.1:$(cat
/// serve.port).  For load and latency, `python3 perfbench/run.py
/// --workload serve` drives its own oic_serve --listen; scripts/ci.sh
/// --serve-only replays the committed capture over stdio and a socket.
///
/// Each request batch read from --in is answered with a matching response
/// batch on --out, lock-step: open/close mutate the session table, decide
/// requests are batched per (plant, policy) group through one fused SoA
/// monitor/policy pass (Service), and reload re-resolves certificates and
/// agents through the cert::Store hash guards without dropping sessions.
/// EOF on --in shuts the server down cleanly.
///
/// With --listen the server instead accepts loopback TCP connections
/// (one reader/writer thread pair per connection, all feeding the shared
/// request inbox), answers each connection's batches in its submission
/// order, and runs until SIGINT or SIGTERM, then drains and shuts down
/// cleanly.  Port 0 binds an ephemeral port; --port-file publishes the
/// bound port for scripts.
///
/// Flags (--key value and --key=value are both accepted):
///   --in PATH|-         request stream             (default: - = stdin)
///   --out PATH|-        response stream            (default: - = stdout)
///   --listen PORT       serve loopback TCP instead of --in/--out
///                       (0 = ephemeral port)
///   --port-file PATH    write the bound port (requires --listen)
///   --cert-dir DIR      certificate cache (cert::Store); enables hot
///                       reload of rewritten certificates
///   --workers N         membership-check pool, 0 = hardware (default 0)
///   --tick-workers N    parallel tick group shards, 1 = serial tick,
///                       0 = hardware               (default 1)
///   --max-sessions N    session-table cap          (default 1048576)
///   --json PATH         write the JSON service report
///
/// Exit status: 0 on a clean run, 1 on a malformed request stream, an
/// invariant violation (a session's state left XI -- Algorithm 1's
/// precondition), or bad usage.  Human-readable progress goes to stderr:
/// stdout is the response stream when --out is '-'.

#include <csignal>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/jsonout.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace {

using oic::cliutil::Args;

std::string serve_json(const oic::serve::ServiceConfig& cfg, const char* transport,
                       const oic::serve::ServiceCounters& c, std::size_t open_sessions,
                       std::uint64_t ticks, std::uint64_t batches,
                       std::uint64_t connections, double wall_s) {
  oic::jsonout::Doc doc("oic_serve");
  std::string& out = doc.body();
  oic::jsonout::append_format(
      out,
      "  \"config\": {\"workers\": %zu, \"tick_workers\": %zu, "
      "\"max_sessions\": %zu, \"transport\": \"%s\", \"cert_dir\": ",
      cfg.workers, cfg.tick_workers, cfg.max_sessions, transport);
  oic::jsonout::append_string(out, cfg.cert_dir);
  out += "},\n";
  oic::jsonout::append_format(
      out,
      "  \"serve\": {\"wall_s\": %.6f, \"ticks\": %llu, \"batches\": %llu, "
      "\"connections\": %llu, "
      "\"decisions\": %llu, \"skipped\": %llu, \"forced\": %llu, "
      "\"errors\": %llu, \"invariant_errors\": %llu, \"reloads\": %llu, "
      "\"cert_swaps\": %llu, \"agent_swaps\": %llu, \"open_sessions\": %zu},\n",
      wall_s, static_cast<unsigned long long>(ticks),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(connections),
      static_cast<unsigned long long>(c.decisions),
      static_cast<unsigned long long>(c.skipped),
      static_cast<unsigned long long>(c.forced),
      static_cast<unsigned long long>(c.errors),
      static_cast<unsigned long long>(c.invariant_errors),
      static_cast<unsigned long long>(c.reloads),
      static_cast<unsigned long long>(c.cert_swaps),
      static_cast<unsigned long long>(c.agent_swaps), open_sessions);
  // A session leaving XI is exactly the condition Theorem 1 rules out for
  // honest clients; it is the serve-layer safety verdict.
  return std::move(doc).finish(c.invariant_errors > 0);
}

/// Strict port token: digits only, <= 65535 (0 = ephemeral).
bool parse_port(const std::string& s, std::uint16_t& port) {
  if (s.empty() || s.size() > 5) return false;
  unsigned long value = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<unsigned long>(ch - '0');
  }
  if (value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  if (args.flag("help")) {
    std::printf(
        "usage: oic_serve [--in PATH|-] [--out PATH|-] [--cert-dir DIR]\n"
        "                 [--listen PORT] [--port-file PATH]\n"
        "                 [--workers N] [--tick-workers N]\n"
        "                 [--max-sessions N] [--json PATH]\n"
        "Reads `oic-serve v1` request batches from --in, answers each with a\n"
        "response batch on --out (lock-step), shuts down cleanly at EOF.\n"
        "With --listen, accepts loopback TCP connections instead and runs\n"
        "until SIGINT/SIGTERM (port 0 = ephemeral; see --port-file).\n");
    return 0;
  }

  std::string in_path = "-";
  std::string out_path = "-";
  (void)args.value("in", in_path);
  (void)args.value("out", out_path);
  std::string listen_str;
  const bool listen_mode = args.value("listen", listen_str);
  std::string port_file;
  (void)args.value("port-file", port_file);

  oic::serve::ServiceConfig cfg;
  oic::cliutil::CommonOpts common;
  oic::cliutil::CommonFlagSet accept;
  accept.faults = false;  // the serve layer is fault-free (strict monitor)
  accept.seeds = false;   // the server is deterministic in its inputs
  if (!oic::cliutil::parse_common(args, "oic_serve", common, accept)) return 1;
  cfg.cert_dir = common.cert_dir;
  cfg.workers = common.workers;
  if (!oic::cliutil::count_flag(args, "oic_serve", "max-sessions",
                                cfg.max_sessions) ||
      !oic::cliutil::count_flag(args, "oic_serve", "tick-workers",
                                cfg.tick_workers)) {
    return 1;
  }
  if (!oic::cliutil::reject_unknown(args, "oic_serve")) return 1;

  std::uint16_t listen_port = 0;
  if (listen_mode && !parse_port(listen_str, listen_port)) {
    std::fprintf(stderr, "oic_serve: --listen expects a port in 0..65535, got '%s'\n",
                 listen_str.c_str());
    return 1;
  }
  if (!port_file.empty() && !listen_mode) {
    std::fprintf(stderr, "oic_serve: --port-file requires --listen\n");
    return 1;
  }

  std::ifstream in_file;
  std::ofstream out_file;
  if (!listen_mode) {
    if (in_path != "-") {
      in_file.open(in_path);
      if (!in_file) {
        std::fprintf(stderr, "oic_serve: cannot open --in '%s'\n", in_path.c_str());
        return 1;
      }
    }
    if (out_path != "-") {
      out_file.open(out_path);
      if (!out_file) {
        std::fprintf(stderr, "oic_serve: cannot open --out '%s'\n", out_path.c_str());
        return 1;
      }
    }
  }
  std::istream& in = in_path == "-" ? std::cin : in_file;
  std::ostream& out = out_path == "-" ? std::cout : out_file;

  try {
    // Block the shutdown signals before any thread exists so every thread
    // (server workers, connection handlers) inherits the mask and the
    // sigwait below is the only consumer.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    if (listen_mode) pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    const auto t0 = std::chrono::steady_clock::now();
    oic::serve::Server server(oic::eval::ScenarioRegistry::builtin(), cfg);

    std::uint64_t batches = 0;
    std::uint64_t connections = 0;
    if (listen_mode) {
      oic::serve::SocketListener listener(server, listen_port);
      std::fprintf(stderr, "oic_serve: listening on 127.0.0.1:%u\n",
                   static_cast<unsigned>(listener.port()));
      if (!port_file.empty()) {
        std::ofstream pf(port_file);
        pf << listener.port() << '\n';
        if (!pf.good()) {
          std::fprintf(stderr, "oic_serve: cannot write --port-file '%s'\n",
                       port_file.c_str());
          return 1;
        }
      }
      int sig = 0;
      sigwait(&sigs, &sig);
      std::fprintf(stderr, "oic_serve: caught signal %d, shutting down\n", sig);
      listener.stop();
      connections = listener.connections_accepted();
    } else {
      auto conn = server.connect();
      std::vector<oic::serve::Request> batch;
      oic::serve::RequestReader reader(in);
      while (reader.read(batch)) {
        conn->submit(batch);
        const std::vector<oic::serve::Response> responses = conn->await(batch.size());
        oic::serve::write_response_batch(responses, out);
        out.flush();
        ++batches;
      }
    }
    server.shutdown();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    const auto& c = server.counters();
    std::fprintf(stderr,
                 "oic_serve: %llu batches, %llu connections, %llu ticks, "
                 "%llu decisions (%llu skipped, %llu forced), %llu errors "
                 "(%llu invariant), %zu sessions open at shutdown\n",
                 static_cast<unsigned long long>(batches),
                 static_cast<unsigned long long>(connections),
                 static_cast<unsigned long long>(server.ticks()),
                 static_cast<unsigned long long>(c.decisions),
                 static_cast<unsigned long long>(c.skipped),
                 static_cast<unsigned long long>(c.forced),
                 static_cast<unsigned long long>(c.errors),
                 static_cast<unsigned long long>(c.invariant_errors),
                 server.open_sessions());

    if (common.write_json &&
        !oic::cliutil::write_json_file(
            "oic_serve", common.json_path,
            serve_json(cfg, listen_mode ? "socket" : "stdio", c,
                       server.open_sessions(), server.ticks(), batches,
                       connections, wall_s))) {
      return 1;
    }
    return c.invariant_errors > 0 ? 1 : 0;
  } catch (const oic::Error& e) {
    std::fprintf(stderr, "oic_serve: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything escaping the oic::Error hierarchy (bad_alloc, filesystem
    // errors, ...) must still die with a diagnosable message and a
    // nonzero exit, never a raw terminate().
    std::fprintf(stderr, "oic_serve: unexpected error: %s\n", e.what());
    return 1;
  }
}
