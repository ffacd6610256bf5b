// The serving side of the benchmark: an in-process nsc_serve daemon on its
// own thread, and tenant connections that drive it in a closed loop
// (each tenant sends its next command only after the previous reply).
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

/// Every workload's tenants run a checkpoint + restore pair after this many
/// tick cycles, so snapshot writes sit beside the reads in one mix.
inline constexpr int kCheckpointEvery = 25;

/// serve::Server running its event loop on a thread of its own.
class Daemon {
 public:
  /// add_network + bind + start the loop. `socket_path` is relative to the
  /// working directory (sockaddr_un paths are short).
  Daemon(const std::string& socket_path, const std::string& net_name, nsc::core::Network net);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stops the loop and joins it. Afterwards metrics() is safe to read.
  void stop();
  [[nodiscard]] const nsc::obs::Registry& metrics() const noexcept { return server_.metrics(); }
  /// What the loop threw, if it threw (valid after stop()).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  nsc::serve::Server server_;
  std::string error_;
  std::thread loop_;  // Last: joined before the server it runs is destroyed.
};

/// Client-side latency of each command, in ms (filled on traced cycles).
struct CommandSamples {
  std::vector<double> inject, tick, read_spikes, checkpoint, restore;
  void append(const CommandSamples& o);
};

/// One tenant connection holding one session.
class Tenant {
 public:
  Tenant(const std::string& socket_path, const std::string& net_name, std::uint32_t threads);

  /// Injects `events` (absolute ticks, at or after the session's now).
  void inject(const std::vector<nsc::core::InputSpike>& events, Tracer& tr,
                std::int64_t parent, CommandSamples& cs);

  /// One closed-loop cycle: tick(1) -> read_spikes, with the spikes folded
  /// into `sink`. Returns the cycle's round trip in ms.
  double cycle(WitnessSink& sink, Tracer& tr, std::int64_t parent, CommandSamples& cs);

  /// checkpoint then restore of the live session; returns the round trip
  /// in ms. Restoring the state just saved leaves the stream unchanged.
  double checkpoint_restore(Tracer& tr, std::int64_t parent, CommandSamples& cs);

  /// Advances without recording (warm-up).
  void advance(nsc::core::Tick n);

  /// Replaces the session with a fresh one at tick 0 (a new epoch).
  void recreate();

  [[nodiscard]] std::uint64_t spikes_dropped() const noexcept { return dropped_; }

 private:
  nsc::serve::Client client_;
  std::string net_;
  std::uint32_t threads_;
  std::uint64_t session_ = 0;
  std::vector<nsc::core::Spike> buf_;
  std::uint64_t dropped_ = 0;      ///< Queue-overflow drops reported by tick replies.
  std::uint64_t dropped_base_ = 0; ///< Drops of sessions already replaced.
};

}  // namespace perfbench
