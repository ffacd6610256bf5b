// Local multi-process transport for the sharded backend.
//
// The generic framed-message primitives (ipc::Frame, ipc::Channel, the
// poll-driven ipc::PeerPump, and the POD wire helpers) live in the shared
// src/ipc/ layer, which nsc_serve uses too; the dist code names them there.
// What remains in this translation unit is the dist-specific part: the full
// socketpair mesh + fork of the rank fleet (together with src/ipc this is
// the only home of raw fork/socket syscalls — lint_invariants INV005).
// Rank processes exit through util::exit_process_nounwind and are signalled
// and reaped through the ipc process helpers.
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
/// its per-tick frames would have reset the silence window), its process has
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

}  // namespace nsc::dist
