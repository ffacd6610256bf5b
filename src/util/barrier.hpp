// Synchronization barrier for the tick driver's semi-synchronous loop.
//
// The paper's kernel advances all threads through a barrier at the end of
// every simulated time step (Listing 1, line 21). A sense-reversing spinning
// barrier keeps per-tick synchronization cost low for the small thread counts
// a single host runs; std::barrier is avoided because its completion-function
// machinery adds latency we would pay once per simulated millisecond.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace nsc::util {

class SpinBarrier {
 public:
  explicit SpinBarrier(int participants) noexcept
      : participants_(participants), remaining_(participants), sense_(false) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all participants have arrived. Reusable across phases.
  void arrive_and_wait() noexcept {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.store(participants_, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      // Spin first (ticks are short, so the straggler usually arrives within
      // microseconds), then yield: when participants outnumber hardware
      // threads, the straggler needs this CPU to make progress at all.
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins > kSpinLimit) std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr int kSpinLimit = 1024;

  const int participants_;
  std::atomic<int> remaining_;
  std::atomic<bool> sense_;
};

}  // namespace nsc::util
