// Concrete SpikeSink implementations shared by tests, benches and apps.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/network.hpp"
#include "src/core/types.hpp"

namespace nsc::core {

/// Records every spike; the equivalence tests compare two VectorSinks.
class VectorSink final : public SpikeSink {
 public:
  void on_spike(Tick tick, CoreId core, std::uint16_t neuron) override {
    spikes_.push_back({tick, core, neuron});
  }

  void on_spike_batch(const Spike* spikes, std::size_t n) override {
    spikes_.insert(spikes_.end(), spikes, spikes + n);
  }

  [[nodiscard]] const std::vector<Spike>& spikes() const noexcept { return spikes_; }
  void clear() { spikes_.clear(); }

 private:
  std::vector<Spike> spikes_;
};

/// Counts spikes per (core, neuron) — the decoder substrate for rate-coded
/// application outputs.
class CountSink final : public SpikeSink {
 public:
  explicit CountSink(std::uint64_t total_neurons)
      : counts_(static_cast<std::size_t>(total_neurons), 0) {}

  void on_spike(Tick, CoreId core, std::uint16_t neuron) override {
    ++counts_[static_cast<std::size_t>(core) * kCoreSize + neuron];
  }

  [[nodiscard]] std::uint32_t count(CoreId core, std::uint16_t neuron) const {
    return counts_[static_cast<std::size_t>(core) * kCoreSize + neuron];
  }

  void clear() { counts_.assign(counts_.size(), 0); }

  [[nodiscard]] const std::vector<std::uint32_t>& counts() const noexcept { return counts_; }

 private:
  std::vector<std::uint32_t> counts_;
};

/// Streams spikes into per-tick windows; used by frame-based decoders that
/// need counts per video frame rather than per whole run.
class WindowedCountSink final : public SpikeSink {
 public:
  WindowedCountSink(std::uint64_t total_neurons, Tick window)
      : window_(window), counts_(static_cast<std::size_t>(total_neurons), 0) {}

  void on_spike(Tick, CoreId core, std::uint16_t neuron) override {
    ++counts_[static_cast<std::size_t>(core) * kCoreSize + neuron];
  }

  void on_tick_end(Tick tick) override {
    if ((tick + 1) % window_ == 0) {
      windows_.push_back(counts_);
      counts_.assign(counts_.size(), 0);
    }
  }

  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& windows() const noexcept {
    return windows_;
  }

 private:
  Tick window_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::vector<std::uint32_t>> windows_;
};

/// Streaming FNV-1a 64 digest of the canonical spike stream: each spike
/// feeds its (tick, core, neuron) as 8+4+2 little-endian bytes, in emission
/// order. Because every simulator emits spikes in canonical per-tick
/// (core, neuron) order, equal hashes mean spike-for-spike identical runs —
/// the golden-trace fixtures under tests/data/ pin this digest so any
/// behavioral drift in the kernel fails ctest (docs/PERFORMANCE.md).
class TraceHashSink final : public SpikeSink {
 public:
  static constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

  void on_spike(Tick tick, CoreId core, std::uint16_t neuron) override {
    mix(static_cast<std::uint64_t>(tick), 8);
    mix(static_cast<std::uint32_t>(core), 4);
    mix(neuron, 2);
    ++count_;
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return h_; }
  [[nodiscard]] std::uint64_t spike_count() const noexcept { return count_; }

 private:
  void mix(std::uint64_t x, int nbytes) noexcept {
    for (int b = 0; b < nbytes; ++b) {
      h_ = (h_ ^ ((x >> (8 * b)) & 0xFFU)) * kFnvPrime;
    }
  }

  std::uint64_t h_ = kFnvOffset;
  std::uint64_t count_ = 0;
};

/// The same digest over an already-recorded stream.
[[nodiscard]] std::uint64_t trace_hash(const std::vector<Spike>& spikes);

/// Compares two recorded spike streams; returns the index of the first
/// mismatch or -1 when identical. Used by the 1:1 regression harness.
[[nodiscard]] std::int64_t first_mismatch(const std::vector<Spike>& a, const std::vector<Spike>& b);

}  // namespace nsc::core
