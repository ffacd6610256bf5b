#include "src/core/input_schedule.hpp"

#include <algorithm>
#include <cassert>

namespace nsc::core {

void InputSchedule::finalize() {
  if (sorted_ == events_.size()) return;
  const auto added = events_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(added, events_.end());
  // Merge in only the old events the new ones reach, then deduplicate from
  // the last old event before them, which may equal the first new one.
  const auto from = std::upper_bound(events_.begin(), added, *added);
  std::inplace_merge(from, added, events_.end());
  events_.erase(std::unique(from == events_.begin() ? from : from - 1, events_.end()),
                events_.end());
  sorted_ = events_.size();
}

std::span<const InputSpike> InputSchedule::at(Tick tick) const {
  assert(sorted_ == events_.size());
  struct ByTick {
    bool operator()(const InputSpike& s, Tick t) const { return s.tick < t; }
    bool operator()(Tick t, const InputSpike& s) const { return t < s.tick; }
  };
  const auto [first, last] = std::equal_range(events_.begin(), events_.end(), tick, ByTick{});
  return {first, last};
}

Tick InputSchedule::last_tick() const noexcept {
  return events_.empty() ? -1 : events_.back().tick;
}

}  // namespace nsc::core
