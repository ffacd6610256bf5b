#include "src/util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <cassert>

namespace nsc::util {

int usable_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int n) : n_(n) { assert(n >= 1); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_all(const std::function<void(int)>& fn) {
  if (n_ == 1) {
    fn(0);
    return;
  }
  // Workers start here, not in the constructor (see the header).
  for (int i = static_cast<int>(threads_.size()) + 1; i < n_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    outstanding_ = n_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return outstanding_ == 0; });
  job_ = nullptr;
}

void ThreadPool::worker_loop(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(index);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--outstanding_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace nsc::util
