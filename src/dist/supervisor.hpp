// Self-healing layer over the sharded backend (docs/DISTRIBUTED.md,
// "Failure model and recovery").
//
// A Supervisor owns a Coordinator and makes rank loss survivable: every
// `recovery_interval` ticks it stitches a shadow checkpoint (an ordinary
// in-memory NSCK image, taken only while every rank is alive) and journals
// the input-spike window from the image tick on. When a rank dies (EOF) or
// is declared hung (RankTimeout from the deadline layer), the supervisor
// tears the whole rank fleet down, respawns it (full-mesh channels cannot be
// rebuilt around one survivor without fd passing, so resurrection is
// fleet-granular), restores the recovery image, replays the journaled
// inputs, and resumes. Output spikes buffer per segment and only ticks >=
// the committed watermark reach the user sink, so the replayed prefix is
// never double-emitted and the recovered trace is spike-for-spike identical
// to a fault-free run.
//
// Respawns draw from a bounded budget with exponential backoff (5 ms before
// the first, doubling, at most 2 s); exhausting it (or failing with no valid
// image) permanently degrades to the plain Coordinator: a completed-but-
// degraded segment flushes as-is (the dead shard's cores fail, its spikes drop
// and are counted), and a mid-segment hang surfaces as RankTimeout, never a
// wedge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/input_schedule.hpp"
#include "src/core/network.hpp"
#include "src/dist/coordinator.hpp"
#include "src/obs/obs.hpp"

namespace nsc::dist {

struct SupervisorConfig {
  core::Tick recovery_interval = 32;  ///< K: shadow-checkpoint period (ticks).
  int max_respawns = 3;               ///< Fleet-respawn budget for the whole run.
};

class Supervisor final : public core::Simulator {
 public:
  /// Forks the rank fleet (by constructing the inner Coordinator). Throws
  /// std::invalid_argument for invalid cfg/scfg values.
  Supervisor(const core::Network& net, Config cfg, SupervisorConfig scfg);

  void run(core::Tick nticks, const core::InputSchedule* inputs, core::SpikeSink* sink) override;
  [[nodiscard]] core::Tick now() const override { return coord_->now(); }
  [[nodiscard]] const core::KernelStats& stats() const override { return coord_->stats(); }
  void reset_stats() override { coord_->reset_stats(); }

  void save_checkpoint(std::ostream& os) const override { coord_->save_checkpoint(os); }
  /// Restores and re-bases recovery state: the retained image and journal
  /// describe a timeline the restore just abandoned, so both are dropped
  /// and the committed watermark jumps to the restored tick.
  void load_checkpoint(std::istream& is) override;

  /// Logical faults invalidate the recovery image: they are part of the
  /// simulated world and must survive a rollback, which the pre-fault image
  /// would undo. The next run() block re-images with the fault applied.
  bool fail_core(core::CoreId c) override;
  bool fail_link(int chip, int dir) override;
  /// Process faults do NOT invalidate the image — undoing them is exactly
  /// what recovery is for.
  bool fail_rank(int rank, bool hang) override;

  /// Coordinator counters merged with the supervisor's own
  /// dist.ranks_respawned / dist.recovery_ns / dist.rollback_ticks.
  [[nodiscard]] const obs::Registry& metrics() const;

  [[nodiscard]] const Coordinator& coordinator() const noexcept { return *coord_; }
  [[nodiscard]] int respawns_done() const noexcept { return respawns_done_; }
  /// True once the respawn budget ran out (degraded permanently).
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

 private:
  /// Captures a fresh recovery image when due (block boundary) and the
  /// fleet is fully alive; a death discovered mid-collection discards the
  /// attempt and keeps the previous image.
  void refresh_image();
  /// Journals `inputs` for ticks [journal_end_, to) so a rollback replays
  /// exactly what the original pass consumed.
  void journal_inputs(const core::InputSchedule* inputs, core::Tick to);
  /// Respawns the fleet from the recovery image. False (and permanently
  /// exhausted) when the budget is spent or no valid image exists.
  bool recover(core::Tick planned_end);

  const core::Network& net_;
  Config cfg_;
  SupervisorConfig scfg_;
  std::unique_ptr<Coordinator> coord_;

  std::string image_;            ///< Stitched NSCK bytes (empty = invalid).
  core::Tick image_tick_ = -1;   ///< Tick the image was taken at (-1 = none).
  core::Tick committed_ = 0;     ///< First tick not yet emitted to the user sink.
  std::vector<core::InputSpike> journal_;  ///< Inputs covering [image_tick_, journal_end_).
  core::Tick journal_end_ = 0;

  int respawns_done_ = 0;
  int incarnation_ = 0;
  bool exhausted_ = false;

  obs::Registry own_;
  std::uint64_t* ctr_respawned_ = nullptr;
  std::uint64_t* ctr_recovery_ns_ = nullptr;
  std::uint64_t* ctr_rollback_ticks_ = nullptr;
  mutable obs::Registry merged_;
};

}  // namespace nsc::dist
