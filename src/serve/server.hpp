// The nsc_serve daemon core: a single-threaded, poll-driven event loop that
// keeps many independent simulator instances resident behind one Unix-domain
// socket (docs/SERVE.md).
//
// Design invariants:
//   * Load once, serve many — each named network is loaded and lint-gated at
//     startup (analysis::lint error severity refuses it, the nsc_lint
//     admission bar) and shared immutably across every session over it.
//   * One thread, bounded work — commands are serialized by the event loop
//     and each is bounded (max_ticks_per_cmd, kMaxCommandPayload), so a
//     hostile or heavy tenant can delay others but never wedge the daemon.
//     Tests drive the server from its own std::thread; request_stop() is the
//     only cross-thread entry point (an atomic flag the loop polls).
//   * Backpressure over blocking — per-session spike queues drop newest past
//     their cap; a client whose reply backlog exceeds max_conn_out_bytes is
//     evicted (slow-client shedding). The daemon never blocks on a tenant.
//   * Failure is contained — unparseable framing or a broken handshake kills
//     that connection and the sessions it owns; a well-framed but invalid
//     command gets one kError reply. Nothing a client sends terminates the
//     daemon or touches another tenant's sessions.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/network.hpp"
#include "src/ipc/endpoint.hpp"
#include "src/obs/obs.hpp"
#include "src/serve/session.hpp"

namespace nsc::serve {

/// Largest command payload the daemon buffers (restore blobs are the biggest
/// legitimate frames); a header past it kills the connection.
inline constexpr std::uint32_t kMaxCommandPayload = 256u << 20;
static_assert(kMaxCommandPayload <= ipc::kMaxFramePayload);

class Server {
 public:
  struct Config {
    std::string socket_path;
    /// Networks to load at startup: (name, .nsc file path).
    std::vector<std::pair<std::string, std::string>> net_paths;
    int max_sessions = 16;       ///< Admission cap across all tenants.
    int max_connections = 64;    ///< Accept cap; excess connects are dropped.
    int default_threads = 1;     ///< compass threads when kCreate asks for 0.
    SessionLimits limits;
    /// Reply backlog bound per connection; exceeding it evicts the client.
    std::size_t max_conn_out_bytes = 64u << 20;
    /// Refuse networks whose lint report contains error-severity findings.
    bool lint_admission = true;
    /// Event-loop poll granularity (stop-flag latency bound).
    int poll_interval_ms = 50;
  };

  explicit Server(Config cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads, lints and registers every configured network. Throws
  /// std::runtime_error on I/O/format failure or a lint-refused network.
  void load_networks();

  /// Registers an in-memory network (test harnesses), same lint gate.
  void add_network(const std::string& name, core::Network net);

  /// Binds the listening socket; throws std::runtime_error on failure.
  void bind();

  /// Runs the event loop until request_stop() or an installed stop signal
  /// (ipc::stop_signal_raised). On exit every session is destroyed, pending
  /// replies get a best-effort flush, and the socket path is unlinked.
  void run();

  /// Thread-safe stop request; the loop notices within poll_interval_ms.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// "nsc-bench-v1" stats document (also served over kStats). Only safe from
  /// the server's own thread (the loop) or after run() returned.
  [[nodiscard]] std::string stats_json() const;

  [[nodiscard]] const obs::Registry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t active_sessions() const noexcept { return sessions_.size(); }

 private:
  struct Conn {
    ipc::Channel ch;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;        ///< Flushed prefix of wbuf.
    bool helloed = false;
    bool dead = false;           ///< Swept (sessions destroyed) after the poll round.
    std::vector<std::uint64_t> sessions;  ///< Ids owned by this connection.
  };

  void accept_pending();
  void read_conn(Conn& conn);
  void flush_conn(Conn& conn);
  void sweep_dead();
  void drain_and_close();

  /// Parses complete frames out of conn.rbuf and dispatches them. Returns
  /// false when the byte stream is unframeable (connection must die).
  bool pump_frames(Conn& conn);
  void dispatch(Conn& conn, const ipc::Frame& frame);
  void reply(Conn& conn, Cmd kind, const void* payload, std::size_t size);
  void reply_error(Conn& conn, ErrorCode code, const std::string& msg);

  void reply_hello(Conn& conn);
  /// The session `id` when `conn` owns it. Otherwise throws kNoSuchSession,
  /// the reply a nonexistent id gets: another tenant's session is not even
  /// acknowledged to exist.
  Session& owned_session(const Conn& conn, std::uint64_t id);
  void destroy_session(std::uint64_t id);

  Config cfg_;
  ipc::Listener listener_;
  std::map<std::string, std::shared_ptr<const core::Network>> nets_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_session_ = 1;
  std::atomic<bool> stop_{false};
  bool draining_ = false;
  obs::Registry metrics_;
  std::uint64_t started_ns_ = 0;
  /// Kernel stats of already-destroyed sessions, folded so daemon totals
  /// survive session churn (the serve.* counters in metrics_ are daemon
  /// totals already).
  core::KernelStats retired_stats_;
};

}  // namespace nsc::serve
