// Replica-batched multi-instance backend (docs/REPLICA.md).
//
// Serving the ROADMAP's million-user story means running many *identical-
// topology* network instances that differ only in neuron state and input
// stream. A solo compass::Simulator per instance re-streams the shared
// read-only tables — crossbar rows, the dense weight tables, the hot SoA
// constant rows — once per instance per tick. BatchSimulator instead holds N
// replicas of one network (one step::Instance each) over one shared
// step::CoreState and advances all of them through each tick with a single
// merged worklist walk: for every active core, the shared tables are loaded
// once and the per-replica state updates run back-to-back while those
// tables are cache-hot (the same SoA batching trick Compass applies across
// neurons, applied across instances).
//
// Exactness bar (PR 4/5 standard): every replica is spike-for-spike
// identical to a solo single-process compass run of the same network, from
// the same restored state, fed the same input schedule. The argument:
//  - State is fully partitioned by replica (potentials, delay rings,
//    worklists, stats, local tick counters); replicas interact only through
//    the shared *read-only* network tables and the shared counter-based PRNG,
//    whose draws are keyed by (core, neuron, tick) and therefore identical
//    for every replica and for the solo run.
//  - Within one replica a tick runs the same step::CoreStep as compass, in
//    the same order: inject inputs, visit active cores in ascending core
//    order, emit spikes in (core, neuron) ascending order, deliver locally
//    into the replica's own delay ring. Interleaving other replicas' cores
//    between those steps touches disjoint state, so it cannot perturb the
//    result — the same disjointness argument that makes compass's
//    two-barrier tick race-free, applied across replicas instead of across
//    partitions.
//  - Replicas advance on their own local tick counters, so a replica
//    restored from a checkpoint taken at tick T continues exactly the solo
//    trajectory from T even when batched with replicas at other ticks.
//
// Threads partition *replicas* (never cores): each worker owns every core of
// its replica range, so all spike deliveries stay worker-local and the run
// needs no exchange phase, no outboxes and no per-tick barriers.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "src/core/active_set.hpp"
#include "src/core/network.hpp"
#include "src/obs/obs.hpp"
#include "src/step/core_step.hpp"
#include "src/util/thread_pool.hpp"

namespace nsc::util {
class ThreadPool;
}

namespace nsc::replica {

struct Config {
  int replicas = 1;  ///< Batched instances N (>= 1) of the one network.
  int threads = 1;   ///< Workers; replicas are split contiguously across them.
};

/// N instances of one network advancing in lockstep through a merged
/// worklist walk. Not a core::Simulator: the interface is per-replica
/// (per-replica inputs, sinks, stats, ticks and checkpoints), which the
/// single-instance base signature cannot express.
class BatchSimulator {
 public:
  /// The network must outlive the simulator.
  BatchSimulator(const core::Network& net, Config cfg);
  ~BatchSimulator();

  BatchSimulator(const BatchSimulator&) = delete;
  BatchSimulator& operator=(const BatchSimulator&) = delete;

  /// Advances every replica by `nticks` from its own local tick.
  /// `inputs`/`sinks` are indexed by replica and may be null (or hold null
  /// entries) — inputs are read at each replica's *local* tick. Sinks are
  /// invoked from the worker thread that owns the replica; a sink shared
  /// between replicas owned by different workers would race.
  void run(core::Tick nticks, const core::InputSchedule* const* inputs,
           core::SpikeSink* const* sinks);

  [[nodiscard]] int replicas() const noexcept { return cfg_.replicas; }

  /// Local tick of replica `r` (replicas restored from checkpoints advance
  /// from the checkpoint's tick, so replicas may disagree).
  [[nodiscard]] core::Tick now(int r) const;

  /// Per-replica kernel stats, bit-identical to the solo run's.
  [[nodiscard]] const core::KernelStats& stats(int r) const;

  /// Sum of all replicas' stats (the aggregate-throughput view).
  [[nodiscard]] core::KernelStats aggregate_stats() const;

  void reset_stats();

  /// Writes replica `r` as a plain NSCK snapshot, interchangeable with the
  /// TN / compass / dist backends: restoring it into a solo simulator (or
  /// another replica slot) resumes the identical trajectory. Counters are
  /// the replica's own, so a restored solo run reports the same totals the
  /// solo trajectory would have accumulated.
  void save_checkpoint(int r, std::ostream& os) const;

  /// Restores replica `r` from any NSCK snapshot of the same network.
  /// Snapshots carrying runtime fault state (cores or links failed mid-run
  /// by a fault campaign) are rejected: the batch backend models no faults.
  /// Hostile potentials (outside the hot sweep's proven bound) demote the
  /// affected cores of *this replica only* to the exact generic path.
  void load_checkpoint(int r, std::istream& is);

  [[nodiscard]] obs::Registry& metrics() noexcept { return obs_; }
  void reset_metrics() noexcept;

 private:
  struct Deliver;

  const core::Network& net_;
  Config cfg_;
  std::unique_ptr<util::ThreadPool> pool_;

  /// Shared per-network tables, read-only during a run. The batch backend
  /// models no runtime faults, so a restore re-derives them unchanged.
  step::CoreState state_;
  step::Live live_;  ///< Live cores and their enabled neurons.

  // Per-replica state. Workers own whole replicas, so no instance (and no
  // density profile) is shared between threads.
  std::vector<step::Instance> inst_;
  std::vector<core::ActiveSet> active_;       ///< One worklist per replica.
  std::vector<core::Tick> tick_;              ///< Local tick per replica.
  std::vector<core::KernelStats> stats_;      ///< Per-replica counters.
  std::vector<step::StepCounters> counters_;  ///< Per replica, folded at run end.

  // Observability (docs/OBSERVABILITY.md): counters fold at run end.
  obs::Registry obs_;
  obs::PhaseAccum* ph_compute_ = nullptr;
  std::uint64_t* ctr_replicas_ = nullptr;
  std::uint64_t* ctr_tick_replicas_ = nullptr;
  step::StepMetrics step_metrics_;
};

}  // namespace nsc::replica
