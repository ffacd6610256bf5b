// The benchmark's workloads (perfbench/README.md records why each exists).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One Fig. 5 operating point on the quarter chip.
struct Fig5Point {
  const char* name;
  double rate_hz;
  int synapses;
};

inline constexpr Fig5Point kFig5Sparse{"fig5_sparse", 20.0, 128};
inline constexpr Fig5Point kFig5Dense{"fig5_dense", 200.0, 256};

/// Quarter chip (32x32 cores) at `pt`, recurrent, no external input, warmed
/// up; tn, compass@2, replica 4x@2, dist 2 ranks x 1 thread and one served
/// tenant advance the same ticks round by round and must agree.
Result run_fig5(const Options& opt, const Fig5Point& pt);

/// An in-process daemon serving an 8x8-core 50 Hz / 64 network to two
/// closed-loop tenants (inject -> tick(1) -> read_spikes, checkpoint +
/// restore every few cycles); every served stream is replayed in-process.
Result run_serve_stream(const Options& opt);

/// Names accepted by run_workload, in the order `all` runs them.
const std::vector<std::string>& workload_names();

/// Dispatches by name; throws std::invalid_argument for an unknown name.
Result run_workload(const std::string& name, const Options& opt);

}  // namespace perfbench
