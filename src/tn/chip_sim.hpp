// TrueNorth expression of the kernel: an architectural simulator of the chip
// (and of seamlessly tiled multi-chip arrays).
//
// This is the silicon side of the paper's co-design pair. It executes the
// same NetworkDescription as the Compass expression, spike-for-spike, while
// additionally accounting for what the silicon would do physically:
//   - event-driven synaptic integration through per-core 256×256 crossbars,
//   - 16-slot axonal delay buffers (delays 1–15, paper §III-A),
//   - dimension-order routing hop counts per spike (paper §III-C),
//   - merge–split inter-chip crossings for tiled arrays (paper Fig. 3(c)),
//   - per-tick critical-path core load, which bounds the maximum tick
//     frequency (paper Fig. 5(b,c)),
//   - detour routing around faulted cores.
// The energy/timing models in src/energy consume these counters to produce
// the paper's power, GSOPS and GSOPS/W numbers.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/core/input_schedule.hpp"
#include "src/core/network.hpp"
#include "src/noc/route.hpp"
#include "src/noc/traffic.hpp"
#include "src/obs/obs.hpp"
#include "src/step/tick_driver.hpp"

namespace nsc::tn {

class TrueNorthSimulator final : public core::Simulator {
 public:
  /// The network must outlive the simulator. Cores marked `disabled` are
  /// treated as faulted: they produce nothing, absorb nothing, and routes
  /// detour around them (hop counts reflect the detours).
  explicit TrueNorthSimulator(const core::Network& net);

  void run(core::Tick nticks, const core::InputSchedule* inputs, core::SpikeSink* sink) override;
  [[nodiscard]] core::Tick now() const override { return now_; }
  [[nodiscard]] const core::KernelStats& stats() const override { return stats_; }
  void reset_stats() override {
    stats_.reset();
    traffic_.reset();
  }

  /// Checkpoint/restore: full dynamic state (tick, potentials, delay
  /// buffers, runtime fault state, kernel and traffic counters). A restored
  /// run continues bit-exactly; snapshots interchange with Compass.
  void save_checkpoint(std::ostream& os) const override;
  void load_checkpoint(std::istream& is) override;

  /// Mid-run faults (docs/RESILIENCE.md): the core/link dies at the next
  /// tick boundary, in-flight deliveries to it are dropped and counted
  /// (obs counter fault.spikes_dropped), surviving routes re-detour around
  /// it (extra hops in fault.rerouted_hops), and targets no detour can reach
  /// drop their spikes from then on.
  bool fail_core(core::CoreId c) override;
  bool fail_link(int chip, int dir) override;

  /// Membrane potential access for white-box tests.
  [[nodiscard]] std::int32_t potential(core::CoreId c, int neuron) const {
    return inst_.v[static_cast<std::size_t>(c) * core::kCoreSize +
                   static_cast<std::size_t>(neuron)];
  }

  /// Inter-chip merge–split traffic (meaningful when geometry has >1 chip).
  [[nodiscard]] const noc::InterChipTraffic& traffic() const noexcept { return traffic_; }

  /// Per-phase wall-time metrics accumulated so far. Phases: the tick
  /// driver's "inject", "compute" (the core array walk: synapse + neuron +
  /// routing), "exchange" (empty on one partition) and "commit" (traffic
  /// epoch close, spikes to the sink). Counters: the shared set
  /// (src/step/metrics.hpp; "messages" and "message_bytes" stay zero on the
  /// chip) plus "fault.rerouted_hops". Phase timers are empty when built
  /// with NSC_OBS=0; counters are always live.
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return obs_; }

  /// Zeroes the phase timers.
  void reset_metrics() noexcept {
    obs_.reset();
    step_metrics_.mark_isa();
  }

  /// Mean mesh hops per routed spike so far.
  [[nodiscard]] double mean_hops_per_spike() const {
    const auto routed = stats_.spikes - stats_.dropped_spikes;
    return routed ? static_cast<double>(stats_.hop_sum) / static_cast<double>(routed) : 0.0;
  }

  /// Neurons whose targets cannot be physically routed around the fault set
  /// (a deployment error: such spikes are still delivered function-level so
  /// the kernel expressions stay 1:1, but the configuration is unshippable).
  [[nodiscard]] std::uint64_t unreachable_targets() const noexcept {
    return unreachable_targets_;
  }

 private:
  struct Deliver;
  struct Backend;

  /// Precomputes the route of every deliverable target (hops + crossings);
  /// at construction and after a restore. A target no detour reaches while
  /// no runtime fault exists is a deployment error: its spikes are still
  /// delivered function-level so the kernel expressions stay 1:1, with
  /// Manhattan hop accounting, and unreachable_targets() counts it.
  void derive_routes();

  /// A surviving target's new route after a fault; detour growth is added
  /// to fault.rerouted_hops.
  void reroute(std::size_t nid, const noc::RouteInfo& r,
               const std::vector<noc::ChipLink>& detour);

  /// Counts one spike of neuron `nid` on the merge–split links its route
  /// crosses: its detour's links when faults forced one, else the DOR walk.
  void record_crossings(core::CoreId src, std::size_t nid, core::CoreId dst);

  const core::Network& net_;
  core::Tick now_ = 0;
  core::KernelStats stats_;
  noc::InterChipTraffic traffic_;

  /// Phase timers and counters (Registry::reset keeps resolved references
  /// valid).
  obs::Registry obs_;
  std::uint64_t* ctr_rerouted_hops_ = nullptr;
  step::StepMetrics step_metrics_;

  step::CoreState state_;
  step::Instance inst_;
  /// The whole chip as one partition: worklist, counter block, spike buffer.
  step::TickDriver driver_;
  /// Route of each neuron's (static) target: hops + crossings.
  std::vector<noc::RouteInfo> route_;
  /// The links of every route that detours around faults, by neuron.
  std::unordered_map<std::size_t, std::vector<noc::ChipLink>> detours_;
  std::uint64_t unreachable_targets_ = 0;
};

}  // namespace nsc::tn
