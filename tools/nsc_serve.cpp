// nsc_serve — simulation-as-a-service daemon (docs/SERVE.md).
//
//   nsc_serve --socket PATH --net NAME=FILE [--net NAME=FILE ...]
//             [--max-sessions N] [--max-connections N] [--threads N]
//             [--max-queued-spikes N] [--max-ticks-per-cmd N]
//             [--max-conn-mb N] [--no-lint]
//
// Loads every named network once at startup (refusing, exit 1, any network
// whose nsc_lint report contains error-severity findings — the same
// admission bar deployment uses), binds a Unix-domain socket, and serves the
// framed session protocol: tenants create resident simulator instances over
// the preloaded networks, tick them, inject AER events, stream spikes back,
// checkpoint/restore, and destroy. One poll-driven thread serializes all
// commands; per-session queues and slow-client eviction keep one tenant from
// stalling the rest. SIGTERM/SIGINT shut down cleanly: pending replies are
// flushed, every session is destroyed, and the socket path is unlinked.
//
// Exit codes: 0 clean shutdown (signal or kShutdown command), 1 runtime
// failure (unreadable/invalid network, lint-refused network, bind failure),
// 2 usage error (missing --socket, no --net, malformed NAME=FILE, unknown
// flag, malformed or out-of-range number; tools/cli.hpp).
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ipc/endpoint.hpp"
#include "src/serve/server.hpp"
#include "tools/cli.hpp"

int main(int argc, char** argv) {
  nsc::serve::Server::Config cfg;
  try {
    const nsc::cli::Args a(
        argc, argv,
        {.values = {"--socket", "--max-sessions", "--max-connections", "--threads",
                    "--max-queued-spikes", "--max-ticks-per-cmd", "--max-conn-mb"},
         .switches = {"--no-lint"},
         .repeatable = {"--net"}});
    cfg.socket_path = a.str("--socket");
    for (const std::string& spec : a.all("--net")) {
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        throw nsc::cli::UsageError("--net expects NAME=FILE, got '" + spec + "'");
      }
      cfg.net_paths.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    cfg.max_sessions = a.integer("--max-sessions", cfg.max_sessions, 0);
    cfg.max_connections = a.integer("--max-connections", cfg.max_connections, 1);
    cfg.default_threads = a.integer("--threads", cfg.default_threads, 1);
    cfg.limits.max_queued_spikes =
        a.integer("--max-queued-spikes", cfg.limits.max_queued_spikes, 1);
    cfg.limits.max_ticks_per_cmd =
        a.integer("--max-ticks-per-cmd", cfg.limits.max_ticks_per_cmd, 1);
    cfg.max_conn_out_bytes = a.integer("--max-conn-mb", cfg.max_conn_out_bytes >> 20, 1) << 20;
    cfg.lint_admission = !a.has("--no-lint");
    nsc::cli::check({
        {cfg.socket_path.empty(), "--socket is required"},
        {cfg.net_paths.empty(), "at least one --net is required"},
    });
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  }

  try {
    nsc::serve::Server server(cfg);
    server.load_networks();
    server.bind();
    nsc::ipc::install_stop_signal(SIGTERM);
    nsc::ipc::install_stop_signal(SIGINT);
    std::fprintf(stderr, "nsc_serve: serving %zu network(s) on %s (max %d sessions)\n",
                 cfg.net_paths.size(), cfg.socket_path.c_str(), cfg.max_sessions);
    server.run();
    const auto& m = server.metrics();
    std::fprintf(stderr,
                 "nsc_serve: clean shutdown — %llu session(s) served, %llu tick(s), "
                 "%llu spike(s) streamed\n",
                 static_cast<unsigned long long>(m.counter_value("serve.sessions_created")),
                 static_cast<unsigned long long>(m.counter_value("serve.ticks_served")),
                 static_cast<unsigned long long>(m.counter_value("serve.spikes_streamed")));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsc_serve: %s\n", e.what());
    return 1;
  }
}
