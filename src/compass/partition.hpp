// Core-to-process partitioning with load balancing (paper §III-B: Compass
// "uses meticulous load-balancing" and exploits spatial structure).
//
// Partitions are contiguous core ranges: contiguity preserves the canonical
// (core, neuron) spike order when per-partition outputs are concatenated,
// and it maps cleanly onto the clustered topology the kernel assumes.
// Balancing weighs each core by its expected per-tick work: enabled neurons
// (leak/threshold every tick) plus active synapses (event-driven, scaled by
// expected activity).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/network.hpp"
#include "src/step/core_state.hpp"

namespace nsc::compass {

/// Half-open range of cores owned by one simulated process.
using CoreRange = step::CoreRange;

/// Splits the network's cores into `parts` contiguous ranges with near-equal
/// estimated load. Always returns exactly `parts` ranges (possibly empty
/// trailing ones for tiny networks).
[[nodiscard]] std::vector<CoreRange> partition_balanced(const core::Network& net, int parts);

/// Same balanced split restricted to `span` (half-open). Used by the sharded
/// backend to sub-partition one rank's core range across its threads; the
/// two-level split keeps every range contiguous, so concatenating outputs in
/// (rank, partition) order is still the canonical (core, neuron) order.
[[nodiscard]] std::vector<CoreRange> partition_range(const core::Network& net, CoreRange span,
                                                     int parts);

/// Estimated per-tick work of one core (arbitrary units, used for balancing).
[[nodiscard]] double core_load_estimate(const core::CoreSpec& spec);

/// Largest partition load divided by mean partition load (1.0 = perfect).
[[nodiscard]] double load_imbalance(const core::Network& net,
                                    const std::vector<CoreRange>& parts);

/// The measured counterpart: largest per-partition (or per-rank) compute
/// time divided by the mean (1.0 = perfect; 0.0 when nothing was timed).
[[nodiscard]] double load_imbalance(const std::vector<std::uint64_t>& compute_ns) noexcept;

}  // namespace nsc::compass
