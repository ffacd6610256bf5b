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
//   rank -> coordinator : kTick (one per tick of a kRun, recording or not),
//                         kReport (kFailCore, kFailLink and kLoad reply),
//                         kBlob (kSave reply)
//   rank <-> rank       : kSpikeBatch (exactly one per tick per live peer)
//
// kTick payload: RankReport (what the tick counted), int64 tick, uint32
// spike count, uint32 padding, then that many core::Spike records (none
// unless the kRun asked to record). It is also the rank's liveness signal:
// the coordinator's deadline (Config::rank_deadline_ms) watches for it.
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
  kTick = 3,       ///< RankReport + tick + this rank's recorded spikes for that tick.
  kReport = 4,     ///< RankReport: what the rank counted since its previous report.
  kFailCore = 5,   ///< core id to fail at this command boundary.
  kFailLink = 6,   ///< chip + direction of the inter-chip link to fail.
  kSave = 7,       ///< request a full checkpoint blob.
  kBlob = 8,       ///< checkpoint bytes (kSave reply).
  kLoad = 9,       ///< checkpoint bytes to restore.
  kShutdown = 10,  ///< clean exit request.
};

/// What a rank counted since its previous report (the previous tick, inside
/// a kRun): the shared counter block of its simulator (src/step/metrics.hpp),
/// with in-flight spikes lost to a peer's death added to fault_dropped, plus
/// the rank loop's own four figures. Deltas, not totals, keep the
/// coordinator's aggregate view authoritative: it folds every report as it
/// arrives, exactly as compass folds partitions, so a rank that dies keeps
/// every tick it reported, and a checkpoint restore, which overwrites
/// rank-local totals with the global snapshot's, cannot double-count.
struct RankReport {
  step::StepCounters counters;
  std::uint64_t compute_ns = 0;     ///< Σ per-partition compute wall time.
  std::uint64_t exchange_ns = 0;    ///< Wall time in inter-rank frame exchange.
  std::uint64_t dist_messages = 0;  ///< Inter-rank frames sent.
  std::uint64_t dist_bytes = 0;     ///< Inter-rank payload bytes sent.
};

static_assert(sizeof(RankReport) == 256);
static_assert(sizeof(core::Spike) == 16);
static_assert(sizeof(core::InputSpike) == 16);
static_assert(sizeof(compass::Simulator::WordDelivery) == 16);

}  // namespace nsc::dist
