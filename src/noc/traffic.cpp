#include "src/noc/traffic.hpp"

#include <algorithm>
#include <stdexcept>

namespace nsc::noc {

using core::CoreId;
using core::Geometry;

InterChipTraffic::InterChipTraffic(const Geometry& g)
    : geom_(g),
      chips_(g.chips()),
      tick_counts_(static_cast<std::size_t>(chips_) * 4, 0),
      link_totals_(static_cast<std::size_t>(chips_) * 4, 0) {}

void InterChipTraffic::record_link(int chip, LinkDir dir) {
  const std::size_t i = static_cast<std::size_t>(chip) * 4 + static_cast<std::size_t>(dir);
  ++tick_counts_[i];
  ++link_totals_[i];
  ++total_;
}

void InterChipTraffic::record_route(CoreId src, CoreId dst) {
  if (chips_ <= 1 || src == dst) return;
  for_each_dor_link(geom_, src, dst, [this](int chip, LinkDir dir) {
    record_link(chip, dir);
    return false;
  });
}

void InterChipTraffic::end_tick() {
  std::uint32_t m = 0;
  for (std::uint32_t c : tick_counts_) m = std::max(m, c);
  max_per_tick_ = std::max<std::uint64_t>(max_per_tick_, m);
  std::fill(tick_counts_.begin(), tick_counts_.end(), 0);
}

void InterChipTraffic::restore(const std::vector<std::uint64_t>& link_totals, std::uint64_t total,
                               std::uint64_t max_per_tick) {
  if (link_totals.size() != link_totals_.size()) {
    throw std::length_error("traffic restore: link count does not match geometry");
  }
  link_totals_ = link_totals;
  total_ = total;
  max_per_tick_ = max_per_tick;
  std::fill(tick_counts_.begin(), tick_counts_.end(), 0);
}

void InterChipTraffic::reset() {
  std::fill(tick_counts_.begin(), tick_counts_.end(), 0);
  std::fill(link_totals_.begin(), link_totals_.end(), 0);
  max_per_tick_ = 0;
  total_ = 0;
}

}  // namespace nsc::noc
