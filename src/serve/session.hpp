// One resident simulator instance inside the nsc_serve daemon.
//
// A session is a compass::Simulator over a network the daemon loaded once
// (shared, immutable, refcounted across sessions), plus the per-tenant state
// the protocol needs: the accumulated input schedule, a bounded queue of
// recorded output spikes awaiting kReadSpikes, and isolation counters.
//
// Exactness contract (tests/test_serve.cpp): a session driven with the same
// network, seed and injected inputs as a solo nsc_run produces a
// spike-for-spike identical stream regardless of how the ticks are chunked,
// where reads interleave, or whether a checkpoint/restore round trip happens
// mid-run. Two properties carry that: the simulator consumes inputs by its
// own internal clock from an absolute-tick schedule (so re-finalizing the
// schedule after more injections, or rewinding via restore, never replays or
// skips an event), and restore loads into the resident simulator, whose
// load_checkpoint reads and checks the whole blob before its first write (a
// hostile blob can never corrupt live state).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/compass/simulator.hpp"
#include "src/core/input_schedule.hpp"
#include "src/core/network.hpp"
#include "src/serve/protocol.hpp"

namespace nsc::serve {

/// Per-session backpressure bounds (Server::Config carries the defaults).
struct SessionLimits {
  std::size_t max_queued_spikes = 1u << 20;  ///< Output queue; overflow drops newest.
  core::Tick max_ticks_per_cmd = 1 << 20;    ///< Bounds one kTick's work.
};

/// Lifetime injected-event cap of one session.
inline constexpr std::size_t kMaxPendingInputs = 1u << 22;

/// Per-tenant counters, isolated per session (the soak test asserts one
/// tenant's traffic never leaks into another's numbers).
struct SessionCounters {
  std::uint64_t ticks_served = 0;
  std::uint64_t spikes_queued = 0;    ///< Recorded into the queue (lifetime).
  std::uint64_t spikes_streamed = 0;  ///< Handed to the client (lifetime).
  std::uint64_t spikes_dropped = 0;   ///< Queue-overflow drops (lifetime).
  std::uint64_t inputs_injected = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
};

class Session {
 public:
  /// The network is shared with the daemon's registry and other sessions of
  /// the same model; `threads` is validated by the server before this.
  Session(std::shared_ptr<const core::Network> net, std::string net_name, int threads,
          SessionLimits limits);

  /// Queues external spikes. Throws ServeError (kBadRequest) on an event
  /// addressed outside the network or into the past, (kLimitExceeded) past
  /// kMaxPendingInputs. All-or-nothing: on throw, nothing was queued.
  void inject(const std::vector<core::InputSpike>& events);

  /// Advances `nticks`. With `record`, output spikes land in the bounded
  /// queue (drop-newest on overflow, counted — backpressure never blocks the
  /// daemon). Throws ServeError (kLimitExceeded) when nticks exceeds the
  /// per-command bound, (kBadRequest) when negative.
  void tick(core::Tick nticks, bool record);

  /// Moves up to `max_spikes` from the queue into `out` (appended, canonical
  /// order preserved). Returns the count still queued afterwards.
  std::uint64_t read_spikes(std::uint64_t max_spikes, std::vector<core::Spike>& out);

  /// Serializes the instance's full dynamic state (the simulator's NSCK
  /// blob; the input schedule is client-owned state and not included —
  /// docs/SERVE.md documents the replay contract).
  void save_checkpoint(std::ostream& os);

  /// Restores from a blob into the resident simulator. On any failure throws
  /// ServeError (kBadCheckpoint) with the live instance untouched: the
  /// simulator checks the whole blob before its first write. The output
  /// queue is preserved (spikes already earned by the client), the input
  /// schedule is kept whole so replayed ticks re-consume the same
  /// absolute-tick events.
  void restore_checkpoint(std::istream& is);

  [[nodiscard]] core::Tick now() const { return sim_.now(); }
  [[nodiscard]] const core::KernelStats& stats() const { return sim_.stats(); }
  [[nodiscard]] const SessionCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size() - head_; }
  [[nodiscard]] const std::string& net_name() const noexcept { return net_name_; }

 private:
  std::shared_ptr<const core::Network> net_;
  std::string net_name_;
  compass::Simulator sim_;
  core::InputSchedule inputs_;
  /// Output queue: spikes [head_, size) await kReadSpikes.
  std::vector<core::Spike> queue_;
  std::size_t head_ = 0;
  SessionLimits limits_;
  SessionCounters counters_;
};

}  // namespace nsc::serve
