// Local multi-process transport for the sharded backend.
//
// The generic framed-message primitives (ipc::Frame, ipc::Channel, the
// poll-driven ipc::PeerPump, and the POD wire helpers) live in the shared
// src/ipc/ layer, which nsc_serve uses too; the dist code names them there.
// What remains in this translation unit is the dist-specific part: the full
// socketpair mesh + fork of the rank fleet, and the rank-process lifecycle
// helpers (together with src/ipc this is the only home of raw
// process/socket syscalls — lint_invariants INV005/INV006).
//
// Topology: spawn_ranks(N) builds a full mesh — one Unix-domain stream
// socketpair per (coordinator, rank) pair and one per unordered rank pair —
// then forks the N rank processes. Peer-channel exchange is poll()-driven
// and non-blocking on both directions simultaneously, so two ranks sending
// large batches to each other cannot deadlock on kernel socket buffers, and
// a peer's death surfaces deterministically as EOF on its channel.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/ipc/channel.hpp"

namespace nsc::dist {

/// Thrown when a rank stays silent past its configured I/O deadline
/// (Config::rank_deadline_ms): the rank was declared hung (not merely slow —
/// heartbeats would have refreshed its last-seen clock), its process has
/// already been killed and its death absorbed, so the exception is safe to
/// catch and recover from (dist::Supervisor) or to surface as a clean
/// non-zero exit (nsc_run).
class RankTimeout : public std::runtime_error {
 public:
  explicit RankTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// Result of spawn_ranks, valid in exactly one of two shapes:
///   coordinator (rank == -1): `to_rank[r]` + `pids[r]` per rank;
///   rank process (rank >= 0): `to_parent` + `peers[r]` (self entry dead).
struct Spawned {
  int rank = -1;
  std::vector<ipc::Channel> to_rank;  ///< Coordinator side.
  std::vector<int> pids;              ///< Coordinator side.
  ipc::Channel to_parent;             ///< Rank side.
  std::vector<ipc::Channel> peers;    ///< Rank side, indexed by peer rank.

  [[nodiscard]] bool is_child() const noexcept { return rank >= 0; }
};

/// Creates the full channel mesh and forks `nranks` rank processes. Returns
/// once per process: the coordinator gets the parent shape, each child the
/// rank shape. Throws std::runtime_error when the OS runs out of resources.
[[nodiscard]] Spawned spawn_ranks(int nranks);

/// Terminates the calling rank process without unwinding — no atexit
/// handlers and no static destructors, because a forked child must not
/// re-run teardown the parent also owns (test-framework state, buffered
/// stdio). Under a --coverage build the gcov counters are flushed first so
/// rank-process execution still counts toward the CI coverage gate.
[[noreturn]] void exit_rank_process(int status) noexcept;

/// Waits for a rank process to exit (after its channel died or a shutdown
/// was sent). Returns the raw wait status, or -1 if pid is invalid.
int reap_rank(int pid);

/// Deadline-bounded reap: polls for the exit up to `deadline_ms`, then
/// SIGKILLs and reaps unconditionally. Guards coordinator teardown against a
/// child that is stopped or wedged and will never exit on its own.
int reap_rank_deadline(int pid, int deadline_ms);

/// Force-kills a rank process (coordinator teardown of a wedged child).
void kill_rank_process(int pid);

/// Stops (SIGSTOP) a rank process without killing it: the fault-campaign
/// model of a wedged-but-alive node — fds stay open, so peers see silence,
/// not EOF, and only a deadline can tell it apart from a slow rank.
void stop_rank_process(int pid);

/// Test hook for Config::hang_rank: parks the calling rank process forever
/// without closing its fds (the in-process twin of stop_rank_process).
[[noreturn]] void wedge_rank_process();

}  // namespace nsc::dist
