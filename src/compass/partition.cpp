#include "src/compass/partition.hpp"

#include <algorithm>
#include <cassert>

namespace nsc::compass {

double core_load_estimate(const core::CoreSpec& spec) {
  if (spec.disabled) return 0.0;
  int enabled = 0;
  for (const auto& p : spec.neuron) enabled += p.enabled ? 1 : 0;
  // Neuron updates run every tick; synaptic work is event-driven and scales
  // with crossbar population. The 1/16 activity factor approximates typical
  // cortical firing sparsity; balancing only needs relative weights.
  return static_cast<double>(enabled) + static_cast<double>(spec.crossbar.count()) / 16.0;
}

std::vector<CoreRange> partition_range(const core::Network& net, CoreRange span, int parts) {
  assert(parts >= 1);
  assert(span.begin <= span.end);
  const core::CoreId n = span.end - span.begin;
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (core::CoreId i = 0; i < n; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + core_load_estimate(net.core(span.begin + i));
  }
  const double total = prefix.back();

  std::vector<CoreRange> ranges;
  ranges.reserve(static_cast<std::size_t>(parts));
  core::CoreId cursor = 0;
  for (int p = 0; p < parts; ++p) {
    const double target = total * static_cast<double>(p + 1) / parts;
    // First core index whose prefix load reaches the target; ranges stay
    // contiguous and monotone.
    core::CoreId hi = cursor;
    while (hi < n && prefix[static_cast<std::size_t>(hi) + 1] < target) ++hi;
    if (hi < n) ++hi;
    if (p == parts - 1) hi = n;  // last range absorbs any remainder
    ranges.push_back({span.begin + cursor, span.begin + hi});
    cursor = hi;
  }
  return ranges;
}

std::vector<CoreRange> partition_balanced(const core::Network& net, int parts) {
  return partition_range(net, {0, static_cast<core::CoreId>(net.geom.total_cores())}, parts);
}

double load_imbalance(const core::Network& net, const std::vector<CoreRange>& parts) {
  if (parts.empty()) return 1.0;
  double max_load = 0.0, sum = 0.0;
  for (const CoreRange& r : parts) {
    double load = 0.0;
    for (core::CoreId c = r.begin; c < r.end; ++c) load += core_load_estimate(net.core(c));
    max_load = std::max(max_load, load);
    sum += load;
  }
  const double mean = sum / static_cast<double>(parts.size());
  return mean > 0.0 ? max_load / mean : 1.0;
}

double load_imbalance(const std::vector<std::uint64_t>& compute_ns) noexcept {
  std::uint64_t max = 0, sum = 0;
  for (const std::uint64_t ns : compute_ns) {
    max = std::max(max, ns);
    sum += ns;
  }
  if (sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(compute_ns.size());
  return static_cast<double>(max) / mean;
}

}  // namespace nsc::compass
