// Inter-chip traffic accounting for the merge–split boundary structures.
//
// Each chip edge carries one shared serialized link per direction (paper
// Fig. 3(c)): packets leaving the mesh are tagged with their row/column,
// merged onto the link, and split back out on the far side. Congestion does
// not change function — the chip simply cannot finish the tick in time — so
// this model records per-tick per-link packet counts and reports the maximum
// observed, which bounds the sustainable tick frequency for multi-chip runs.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.hpp"
#include "src/noc/route.hpp"

namespace nsc::noc {

class InterChipTraffic {
 public:
  explicit InterChipTraffic(const core::Geometry& g);

  /// Records the boundary crossings of a DOR route from src to dst for the
  /// current tick: one packet on each link for_each_dor_link visits.
  void record_route(core::CoreId src, core::CoreId dst);

  /// Records one packet on one link for the current tick (a detour's links,
  /// which route_with_faults reports).
  void record_link(int chip, LinkDir dir);

  /// Closes the current tick: folds per-link counts into maxima/totals.
  void end_tick();

  /// Packets on the busiest directed link in any single tick so far.
  [[nodiscard]] std::uint64_t max_link_packets_per_tick() const noexcept { return max_per_tick_; }

  /// Total packets serialized through any merge–split this run.
  [[nodiscard]] std::uint64_t total_crossings() const noexcept { return total_; }

  /// Total per directed link, accumulated over all ticks.
  /// Link index: (chip * 4 + dir); East = toward +x neighbor, etc.
  [[nodiscard]] std::uint64_t link_total(int chip, LinkDir dir) const {
    return link_totals_[static_cast<std::size_t>(chip) * 4 + static_cast<std::size_t>(dir)];
  }
  /// Every link's total, indexed chip * 4 + dir: the checkpoint's
  /// traffic_link_totals section.
  [[nodiscard]] const std::vector<std::uint64_t>& link_totals() const noexcept {
    return link_totals_;
  }

  [[nodiscard]] int chips() const noexcept { return chips_; }

  void reset();

  /// Restores accumulated totals from a checkpoint (per-tick counts restart
  /// at zero, matching a tick boundary). `link_totals` must have one entry
  /// per directed link (chips * 4).
  void restore(const std::vector<std::uint64_t>& link_totals, std::uint64_t total,
               std::uint64_t max_per_tick);

 private:
  core::Geometry geom_;
  int chips_;
  std::vector<std::uint32_t> tick_counts_;   ///< Per directed link, current tick.
  std::vector<std::uint64_t> link_totals_;   ///< Per directed link, whole run.
  std::uint64_t max_per_tick_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace nsc::noc
