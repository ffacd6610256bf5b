// Mesh routing: deadlock-free X-then-Y dimension-order routing (paper §III-C,
// citing Dally & Seitz), fault-avoiding detours, and chip-boundary crossing
// accounting for the merge–split structures (paper Fig. 3(c)).
//
// Every spike is a single-word packet injected by the source core's router
// and passed hop-by-hop, first along x then along y, until it reaches the
// target core where it fans out through the crossbar. Chips tile seamlessly:
// the global mesh coordinate system spans chip boundaries, and each boundary
// crossing passes through a merge (serialize onto the shared inter-chip link)
// and a split (fan back out to the tagged row/column).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/types.hpp"

namespace nsc::noc {

/// Summary of one packet's path through the mesh.
struct RouteInfo {
  int hops = 0;             ///< Router-to-router traversals (0 for local fan-out).
  int chip_crossings = 0;   ///< Inter-chip merge–split traversals.
  bool reachable = true;    ///< False only if faults disconnect src from dst.
};

/// Set of faulted (disabled) cores; routing detours around them. The paper's
/// fault-tolerance claim (§III-C: "if a core fails, we disable it and route
/// spike events around it") is modelled by shortest-path detours.
class FaultSet {
 public:
  FaultSet() = default;
  explicit FaultSet(int total_cores) : faulted_(static_cast<std::size_t>(total_cores), 0) {}

  void mark(core::CoreId c) {
    if (faulted_.empty() || is_faulted(c)) return;
    faulted_[static_cast<std::size_t>(c)] = 1;
    ++count_;
  }
  /// Marks every core whose byte in `bitmap` is nonzero (one byte per core,
  /// the NSCK dead_cores layout); an empty bitmap marks nothing.
  void mark_all(const std::vector<std::uint8_t>& bitmap) {
    for (std::size_t c = 0; c < std::min(bitmap.size(), faulted_.size()); ++c) {
      if (bitmap[c] != 0) mark(static_cast<core::CoreId>(c));
    }
  }
  [[nodiscard]] bool is_faulted(core::CoreId c) const {
    return !faulted_.empty() && faulted_[static_cast<std::size_t>(c)] != 0;
  }
  [[nodiscard]] int count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// One 0/1 byte per core: the checkpoint's dead_cores section.
  [[nodiscard]] const std::vector<std::uint8_t>& bitmap() const noexcept { return faulted_; }

 private:
  std::vector<std::uint8_t> faulted_;
  int count_ = 0;
};

/// Direction of a directed inter-chip link.
enum class LinkDir : std::uint8_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

/// One directed merge–split link a packet crosses: the chip it leaves and
/// the direction it leaves in.
struct ChipLink {
  int chip = 0;
  LinkDir dir = LinkDir::kEast;
};

/// Set of failed directed inter-chip merge–split links. A link is identified
/// by (chip, dir) with dir a LinkDir: 0=E (toward +x neighbor), 1=W, 2=N
/// (toward -y), 3=S — the same indexing as noc::InterChipTraffic. Routing
/// treats a failed link as an impassable chip-boundary segment: packets must
/// detour through another chip row/column, or the destination becomes
/// unreachable.
class LinkFaultSet {
 public:
  LinkFaultSet() = default;
  explicit LinkFaultSet(int chips) : dead_(static_cast<std::size_t>(chips) * 4, 0) {}

  void mark(int chip, int dir) {
    mark_index(static_cast<std::size_t>(chip) * 4 + static_cast<std::size_t>(dir));
  }
  /// Marks every link whose byte in `bitmap` is nonzero (one byte per
  /// chip * 4 + dir, the NSCK dead_links layout); an empty bitmap marks
  /// nothing.
  void mark_all(const std::vector<std::uint8_t>& bitmap) {
    for (std::size_t i = 0; i < std::min(bitmap.size(), dead_.size()); ++i) {
      if (bitmap[i] != 0) mark_index(i);
    }
  }
  [[nodiscard]] bool blocked(int chip, int dir) const {
    return !dead_.empty() &&
           dead_[static_cast<std::size_t>(chip) * 4 + static_cast<std::size_t>(dir)] != 0;
  }
  [[nodiscard]] int count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// One 0/1 byte per chip * 4 + dir: the checkpoint's dead_links section.
  [[nodiscard]] const std::vector<std::uint8_t>& bitmap() const noexcept { return dead_; }

 private:
  void mark_index(std::size_t i) {
    if (dead_.empty() || dead_[i] != 0) return;
    dead_[i] = 1;
    ++count_;
  }

  std::vector<std::uint8_t> dead_;
  int count_ = 0;
};

/// Manhattan distance between two cores in global mesh coordinates.
[[nodiscard]] int manhattan(const core::Geometry& g, core::CoreId a, core::CoreId b);

/// Fault-free dimension-order route: hops = |Δx| + |Δy|; chip crossings are
/// counted along the X leg then the Y leg.
[[nodiscard]] RouteInfo route_dor(const core::Geometry& g, core::CoreId src, core::CoreId dst);

/// Walks the merge–split links the DOR route from src to dst crosses:
/// `visit(chip, dir)` for each link of the X leg, in the source chip row,
/// then of the Y leg, in the destination chip column, where `chip` is the
/// chip the packet leaves. Stops and returns true as soon as `visit` does;
/// false when the walk completes. The one statement of which links a packet
/// crosses: traffic accounting, link-fault blocking and the lint link bound
/// all walk it.
template <typename Visit>
bool for_each_dor_link(const core::Geometry& g, core::CoreId src, core::CoreId dst,
                       Visit&& visit) {
  const auto cs = g.chip_xy(src);
  const auto cd = g.chip_xy(dst);
  const int sx = cd.x > cs.x ? 1 : -1;
  const LinkDir dx = cd.x > cs.x ? LinkDir::kEast : LinkDir::kWest;
  for (int cx = cs.x; cx != cd.x; cx += sx) {
    if (visit(cs.y * g.chips_x + cx, dx)) return true;
  }
  const int sy = cd.y > cs.y ? 1 : -1;
  const LinkDir dy = cd.y > cs.y ? LinkDir::kSouth : LinkDir::kNorth;
  for (int cy = cs.y; cy != cd.y; cy += sy) {
    if (visit(cy * g.chips_x + cd.x, dy)) return true;
  }
  return false;
}

/// Route avoiding both faulted cores and failed inter-chip links. Falls back
/// to route_dor when the DOR path is clean; otherwise BFS over healthy cores
/// and live links. Exact chip crossings are counted along the detour.
/// Endpoint cores themselves must not be faulted (callers disable neurons on
/// faulted cores, so no traffic originates or terminates there). When
/// `detour` is given it receives the merge–split links the BFS detour
/// crosses, in path order; it is left empty when the route is the DOR route
/// (whose links for_each_dor_link walks) or unreachable.
[[nodiscard]] RouteInfo route_with_faults(const core::Geometry& g, const FaultSet& faults,
                                          const LinkFaultSet& links, core::CoreId src,
                                          core::CoreId dst,
                                          std::vector<ChipLink>* detour = nullptr);

/// True if the straight DOR path from src to dst passes through a faulted
/// intermediate core (endpoints excluded).
[[nodiscard]] bool dor_path_blocked(const core::Geometry& g, const FaultSet& faults,
                                    core::CoreId src, core::CoreId dst);

/// True if the straight DOR path from src to dst crosses a failed inter-chip
/// link (X leg at the source row, then Y leg at the target column).
[[nodiscard]] bool dor_links_blocked(const core::Geometry& g, const LinkFaultSet& links,
                                     core::CoreId src, core::CoreId dst);

}  // namespace nsc::noc
