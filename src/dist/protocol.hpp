// Wire protocol of the multi-process sharded backend (docs/DISTRIBUTED.md).
//
// Every message on every channel is one frame: an 8-byte header (kind, size)
// followed by `size` payload bytes. Rank processes are forks of the same
// binary, so payloads carry the in-memory representation of the shared PODs
// (core::Spike, core::InputSpike, compass::Simulator::WordDelivery) directly;
// the static_asserts below pin the sizes the frames rely on.
//
// Channels and directions:
//   coordinator -> rank : kRun, kFailCore, kFailLink, kSave, kLoad, kShutdown
//   rank -> coordinator : kTickSpikes (one per tick while recording),
//                         kReport (end of every command), kBlob (kSave reply),
//                         kHeartbeat (liveness, only when a deadline is set)
//   rank <-> rank       : kSpikeBatch (exactly one per tick per live peer)
#pragma once

#include <cstdint>

#include "src/compass/simulator.hpp"
#include "src/core/types.hpp"
#include "src/ipc/channel.hpp"
#include "src/step/metrics.hpp"

namespace nsc::dist {

enum class MsgKind : std::uint32_t {
  kRun = 1,        ///< nticks + record flag + the input-spike window.
  kSpikeBatch = 2, ///< tick + destination-rank-batched WordDelivery records.
  kTickSpikes = 3, ///< tick + this rank's recorded spikes for that tick.
  kReport = 4,     ///< RankReport: what the rank counted since its previous report.
  kFailCore = 5,   ///< core id to fail at this command boundary.
  kFailLink = 6,   ///< chip + direction of the inter-chip link to fail.
  kSave = 7,       ///< request a full checkpoint blob.
  kBlob = 8,       ///< checkpoint bytes (kSave reply).
  kLoad = 9,       ///< checkpoint bytes to restore.
  kShutdown = 10,  ///< clean exit request.
  kHeartbeat = 11, ///< empty liveness frame: refreshes the rank's last-seen
                   ///< clock so a slow rank is never mistaken for a hung one.
};

/// What a rank counted since its previous report: the shared counter block
/// of its simulator (src/step/metrics.hpp), with in-flight spikes lost to a
/// peer's death added to fault_dropped, plus the rank loop's own four
/// figures. Deltas, not totals, keep the coordinator's aggregate view
/// authoritative: it folds every report as it arrives, exactly as compass
/// folds partitions, and a checkpoint restore, which overwrites rank-local
/// totals with the global snapshot's, cannot double-count.
struct RankReport {
  step::StepCounters counters;
  std::uint64_t compute_ns = 0;     ///< Σ per-partition compute wall time.
  std::uint64_t exchange_ns = 0;    ///< Wall time in inter-rank frame exchange.
  std::uint64_t dist_messages = 0;  ///< Inter-rank frames sent.
  std::uint64_t dist_bytes = 0;     ///< Inter-rank payload bytes sent.
};

static_assert(sizeof(core::Spike) == 16);
static_assert(sizeof(core::InputSpike) == 16);
static_assert(sizeof(compass::Simulator::WordDelivery) == 16);

}  // namespace nsc::dist
