// Rank-process side of the sharded backend: one forked process per rank,
// each running a compass::Simulator in shard mode and exchanging
// destination-rank-batched spike words with its peers every tick
// (docs/DISTRIBUTED.md).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/network.hpp"
#include "src/core/types.hpp"
#include "src/dist/transport.hpp"

namespace nsc::dist {

/// A scripted rank fault: rank `rank` exits with status 3 or wedges when it
/// reaches `at`, in incarnation `incarnation` of the fleet. It is the only way
/// to kill a rank inside a tick or while a checkpoint is collected:
/// Simulator::fail_rank's signals land between commands. Peers and the
/// coordinator see an exit as EOF and degrade via the fail_core accounting; a
/// wedged rank keeps its fds open, so only a deadline detects it.
struct RankFault {
  enum class When : std::uint8_t {
    kPreCompute,    ///< Tick `at`, before its compute.
    kPostCompute,   ///< Tick `at`, before the peer exchange.
    kPostExchange,  ///< Tick `at`, before its spikes reach the coordinator.
    kSave,          ///< On receiving the `at`-th kSave (from 1).
  };
  enum class Action : std::uint8_t { kExit, kWedge };

  int rank = 0;
  When when = When::kPreCompute;
  core::Tick at = 0;
  Action action = Action::kExit;
  /// -1 = every incarnation. The Supervisor bumps Config::incarnation on each
  /// respawn, so a tick-T fault does not refire after rolling back past T.
  int incarnation = 0;
};

/// Shared coordinator/rank configuration (the fork inherits it by value).
struct Config {
  int ranks = 2;              ///< Rank processes to fork (>= 1).
  int threads_per_rank = 1;   ///< Compass partitions (threads) inside each rank.
  std::vector<RankFault> faults{};
  int incarnation = 0;
  /// Failure-detection deadline: declare a silent rank hung (and kill it)
  /// after this many ms without a byte of the frame it owes (a kTick every
  /// tick of a run, a reply otherwise). 0 = disabled — waits block forever.
  int rank_deadline_ms = 0;
};

/// Runs the rank command loop until the coordinator shuts it down or its
/// channel dies. Called in the forked child by dist::Coordinator; returns
/// the child's exit status (the caller passes it to std::_Exit).
int rank_main(const core::Network& net, const Config& cfg, Spawned&& spawned);

}  // namespace nsc::dist
