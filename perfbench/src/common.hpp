// Shared pieces of the benchmark: run options, the result record every
// workload fills, sample statistics, and the witness digest sink that every
// backend and tenant writes into.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/network.hpp"
#include "src/core/types.hpp"
#include "src/obs/obs.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one benchmark invocation asks a workload to do.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the timed window (untraced runs).
  bool trace = false;     ///< Traced run: per-layer metrics, fixed length.
  /// Fixed-length override (the self-test): rounds for fig5, epochs per
  /// tenant for serve_stream. 0 keeps the workload's own choice.
  int fixed_rounds = 0;
  /// Ticks (fig5) or cycles per epoch (serve_stream) override; 0 = default.
  int round_length = 0;
  /// Directory for sockets and trace files, relative to the working directory.
  std::string work_dir = ".bench_build/perfbench-run";
};

/// One reported metric. `exact` marks count-type values that repeat bit for
/// bit for a given seed (the self-test asserts that they do).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;
};

/// Everything one workload run reports.
struct Result {
  std::string workload;
  std::vector<Metric> metrics;
  /// Witness digests taken at fixed points of the run (name, digest).
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::uint64_t attempted = 0;  ///< Backend runs, replicas and tenant cycles.
  std::uint64_t failed = 0;     ///< Those that threw or disagreed on a digest.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit, bool exact = false) {
    metrics.push_back({std::move(name), value, std::move(unit), exact});
  }
  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (which it sorts).
/// Throws std::invalid_argument on an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise its value would rest on a handful of outliers.
inline constexpr double kTailSamples = 10.0;

/// Percentile p (0.99 = p99) of `v`, or nullopt when fewer than kTailSamples
/// samples lie beyond it (n * (1 - p) < 10).
std::optional<double> tail_percentile(std::vector<double> v, double p);


/// Mean of `v` (0 for an empty sample).
double mean(const std::vector<double>& v);

/// Consecutive differences of monotonic nanosecond stamps, in milliseconds,
/// starting after stamps[first].
std::vector<double> intervals_ms(const std::vector<std::uint64_t>& stamps, std::size_t first = 0);

/// Peak resident set of this process plus the largest reaped child (the
/// dist rank processes), in MiB.
double peak_rss_mib();

/// Seconds elapsed since `t0_ns` (nsc::obs::now_ns clock).
double seconds_since(std::uint64_t t0_ns);

// ---------------------------------------------------------------------------
// Witness digest.
// ---------------------------------------------------------------------------

/// Order-sensitive digest of a canonical spike stream, one 64-bit word per
/// spike. Both delivery paths fold the same word, so tn's per-spike
/// on_spike stream and compass's batched on_spike_batch stream of the same
/// run give the same digest. Optionally stamps every tick end (steady clock
/// ns) for tick-latency percentiles.
class WitnessSink final : public nsc::core::SpikeSink {
 public:
  void on_spike(nsc::core::Tick tick, nsc::core::CoreId core, std::uint16_t neuron) override {
    fold(tick, core, neuron);
  }
  void on_spike_batch(const nsc::core::Spike* spikes, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) fold(spikes[i].tick, spikes[i].core, spikes[i].neuron);
  }
  void on_tick_end(nsc::core::Tick tick) override;

  /// Appends a stamp per tick end to `stamps` (nullptr stops stamping).
  void stamp_into(std::vector<std::uint64_t>* stamps) noexcept { stamps_ = stamps; }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }
  [[nodiscard]] std::uint64_t spikes() const noexcept { return n_; }

 private:
  void fold(nsc::core::Tick tick, nsc::core::CoreId core, std::uint16_t neuron) noexcept {
    // Injective for ticks < 2^32, cores < 2^24 and neurons < 2^8.
    const std::uint64_t w = (static_cast<std::uint64_t>(tick) << 32) ^
                            (static_cast<std::uint64_t>(core) << 8) ^ neuron;
    h_ = std::rotl(h_ ^ w, 27) * 0x9E3779B97F4A7C15ULL;
    ++n_;
  }

  std::uint64_t h_ = 0x243F6A8885A308D3ULL;
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t>* stamps_ = nullptr;
};

/// Milliseconds per tick the witness sink costs when it receives
/// `spikes_per_tick` spikes through the per-spike virtual path (the path tn,
/// replica and dist use; the batched path is never slower).
double witness_sink_ms_per_tick(double spikes_per_tick, std::uint64_t seed);

/// Checks that every named digest equals the first; records one failure per
/// disagreeing entry into `r`.
void check_digests(const std::vector<std::pair<std::string, std::uint64_t>>& named,
                   const std::string& where, Result& r);

// ---------------------------------------------------------------------------
// Per-layer metric helpers.
// ---------------------------------------------------------------------------

/// num / den, or 0 when den is 0.
double ratio(std::uint64_t num, std::uint64_t den);

/// Mean milliseconds per tick of a registry phase over `ticks` ticks.
double phase_ms_per_tick(const nsc::obs::Registry& reg, const char* phase, std::uint64_t ticks);

/// Adds `name` as the p99 of `ms` when the sample leaves at least 10 values
/// beyond it; otherwise notes on stderr that it is not reported.
void add_tail(Result& r, const std::string& name, const std::vector<double>& ms);

/// Adds <name>.rtt_ms_p50 and, with `p99` and a sample large enough for
/// it, <name>.rtt_ms_p99.
void add_percentiles(Result& r, const std::string& name, const std::vector<double>& ms,
                     bool p99);

/// Times save_checkpoint / load_checkpoint round trips of `sim` (restoring
/// the state just saved, so its trajectory is unchanged) and adds
/// core.save_checkpoint_ms, core.load_checkpoint_ms, core.checkpoint_bytes.
void checkpoint_layer(nsc::core::Simulator& sim, Tracer& tr, std::int64_t parent, Result& r);

}  // namespace perfbench
