// Minimal persistent thread pool used by the tick driver and replica.
//
// Workers are created once, at the first run_all, and reused for every
// simulated tick; the alternative (spawning threads per tick) would dominate
// run time at the kernel's millisecond tick granularity. Starting them late
// keeps a constructed-but-idle simulator single-threaded, so a process that
// forks dist ranks after building one forks without live threads.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nsc::util {

/// CPUs this process may run on: its affinity mask's count, or the online
/// CPUs (hardware_concurrency) if sched_getaffinity fails. At least 1.
[[nodiscard]] int usable_cpus() noexcept;

class ThreadPool {
 public:
  /// A pool of `n` workers (n >= 1), started by the first run_all. Worker 0
  /// is the calling thread's partner: run_all executes index 0 inline to
  /// keep single-thread runs free of cross-thread latency.
  explicit ThreadPool(int n);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Runs fn(i) for every worker index i in [0, size()) and waits for all.
  void run_all(const std::function<void(int)>& fn);

 private:
  void worker_loop(int index);

  int n_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace nsc::util
