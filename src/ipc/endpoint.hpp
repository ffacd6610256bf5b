// IPC endpoints: Unix-domain listeners/connectors, a poll-set wrapper for
// event-loop servers, process spawn/reap/signal helpers, and async-signal
// stop flags. Together with channel.{hpp,cpp} this is the sanctioned home
// of raw socket/process/poll syscalls (lint_invariants INV005/INV006);
// higher layers (src/serve, tools) must come through these helpers so fd
// hygiene and liveness decisions stay auditable in one place.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ipc/channel.hpp"

namespace nsc::ipc {

/// A listening Unix-domain stream socket bound to a filesystem path. The
/// path is unlinked again on close so a cleanly shut down daemon leaves no
/// stale socket behind; `unlink_existing` additionally removes a stale one
/// left by a crashed predecessor before binding.
class Listener {
 public:
  Listener() = default;
  /// Binds and listens; throws std::runtime_error on failure (path too long
  /// for sockaddr_un, bind/listen error, or the path exists and
  /// `unlink_existing` is false).
  explicit Listener(const std::string& path, bool unlink_existing = true, int backlog = 64);
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Accepts one pending connection as a Channel; a dead (not alive())
  /// channel when nothing is pending (the fd is non-blocking) or on error.
  [[nodiscard]] Channel accept_channel();

  void close();
  [[nodiscard]] bool alive() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Connects to a Unix-domain listener; a dead channel on failure (no such
/// socket, refused, path too long). Blocking-mode fd; callers that join a
/// poll loop switch it with set_nonblocking().
[[nodiscard]] Channel connect_unix(const std::string& path);

/// One fd of interest in a poll_wait call.
struct PollItem {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
  // Outputs, valid after poll_wait returns:
  bool readable = false;  ///< Data (or EOF/err — read to find out) pending.
  bool writable = false;
  bool hangup = false;    ///< POLLHUP/POLLERR/POLLNVAL.
};

/// Milliseconds elapsed since `since` on the monotonic clock: every deadline
/// in this layer counts on it, so wall-clock adjustments cannot fire one.
[[nodiscard]] long long ms_since(std::chrono::steady_clock::time_point since);

/// Waits up to `timeout_ms` (-1 = forever) for events on `items`. Returns
/// the number of ready items, 0 on timeout, or -1 when interrupted by a
/// signal (EINTR) so the caller can re-check its stop flag. Throws on real
/// poll errors.
int poll_wait(std::vector<PollItem>& items, int timeout_ms);

/// Forks and execs `argv` (argv[0] = binary path). Returns the child pid;
/// throws std::runtime_error when fork fails. A failed exec exits the child
/// with status 127.
[[nodiscard]] int spawn_process(const std::vector<std::string>& argv);

/// Waits for a spawned process to exit; returns the raw wait status or -1
/// for an invalid pid.
int reap_process(int pid);

/// Deadline-bounded reap: polls for the exit up to `deadline_ms`, then
/// SIGKILLs and reaps unconditionally (guards teardown against a stopped or
/// wedged child that will never exit on its own).
int reap_process_deadline(int pid, int deadline_ms);

/// Sends `signum` (e.g. SIGTERM, SIGKILL, SIGSTOP) to a spawned process.
void signal_process(int pid, int signum);

/// Parks the calling process forever without closing its fds — the
/// in-process twin of SIGSTOP for wedged-node fault injection.
[[noreturn]] void wedge_forever();

/// Installs a handler for `signum` that sets the shared stop flag (no
/// SA_RESTART, so a blocking poll returns EINTR and the event loop can see
/// the flag immediately). Async-signal-safe by construction: the handler
/// only stores to a sig_atomic_t.
void install_stop_signal(int signum);

/// True once any install_stop_signal()-registered signal has been received.
[[nodiscard]] bool stop_signal_raised() noexcept;

}  // namespace nsc::ipc
