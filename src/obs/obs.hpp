// Observability substrate: monotonic phase timers and named counters that
// the simulators, benches and tools fold into machine-readable metrics
// reports (docs/OBSERVABILITY.md).
//
// One switch: NSC_OBS (CMake option NEUROSYN_OBS, default ON). With
// NSC_OBS=0 every ScopedTimer and phase clock read is a no-op the optimizer
// deletes, so the kernel hot loop carries zero instrumentation cost; the
// Registry and report types stay available so reporting code compiles either
// way. There is no runtime toggle: a build with NSC_OBS on always times.
//
// Instrumentation must never perturb simulated behaviour: timers and
// counters are observation-only, and tests/test_obs.cpp pins the spike
// streams and counters that the default and the NSC_OBS=0 build must both
// produce.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>

#ifndef NSC_OBS
#define NSC_OBS 1
#endif

namespace nsc::obs {

/// True when instrumentation is compiled in (NSC_OBS != 0).
inline constexpr bool kEnabled = NSC_OBS != 0;

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Accumulated wall time of one named phase.
struct PhaseAccum {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t ns) noexcept {
    if (calls == 0 || ns < min_ns) min_ns = ns;
    if (ns > max_ns) max_ns = ns;
    total_ns += ns;
    ++calls;
  }

  [[nodiscard]] double mean_ns() const noexcept {
    return calls != 0 ? static_cast<double>(total_ns) / static_cast<double>(calls) : 0.0;
  }
};

/// Ordered name → accumulator registry. Lookup is linear over a handful of
/// entries; hot paths resolve their PhaseAccum/counter reference once. The
/// returned references stay valid for the registry's lifetime: entries live
/// in deques (stable addresses under growth) and reset() zeroes values in
/// place without dropping entries.
class Registry {
 public:
  /// Returns the accumulator for `name`, creating it on first use.
  PhaseAccum& phase(std::string_view name);
  /// Returns the counter for `name`, creating it (at zero) on first use.
  std::uint64_t& counter(std::string_view name);

  [[nodiscard]] const std::deque<std::pair<std::string, PhaseAccum>>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] const std::deque<std::pair<std::string, std::uint64_t>>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const PhaseAccum* find_phase(std::string_view name) const noexcept;
  /// Counter value, or 0 if the counter was never created.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;

  /// Folds `other` into this registry: phases merge call counts, totals and
  /// min/max envelopes; counters add. Entries missing here are created.
  void merge(const Registry& other);

  /// Zeroes every accumulator and counter in place, preserving entries and
  /// insertion order so previously resolved references remain valid.
  void reset() noexcept;

 private:
  std::deque<std::pair<std::string, PhaseAccum>> phases_;
  std::deque<std::pair<std::string, std::uint64_t>> counters_;
};

/// RAII phase timer. Pass nullptr to disable at runtime; with NSC_OBS=0 the
/// constructor and destructor collapse to nothing.
class ScopedTimer {
 public:
  explicit ScopedTimer(PhaseAccum* acc) noexcept
      : acc_(kEnabled ? acc : nullptr), t0_(acc_ != nullptr ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (acc_ != nullptr) acc_->add(now_ns() - t0_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  PhaseAccum* acc_;
  std::uint64_t t0_;
};

}  // namespace nsc::obs
