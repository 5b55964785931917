// Persistent fork-join worker pool shared by the parallel engines.
//
// The model checker (per BFS level), the simulator (one seeded walk
// stream per worker) and the trace validator (per trace line) all need
// the same primitive: run fn(w) for w in [0, size()) and wait for
// everyone. This type owns that pattern — including the conventions every
// engine must agree on:
//   * requested == 0 means one worker per hardware thread;
//   * the caller is worker 0, so size() == 1 runs fn inline on the
//     calling thread (no thread is spawned, no memory ordering is in
//     play);
//   * the other size() - 1 threads start once and park on a generation
//     counter between run()s, so a search keeps the same threads — and
//     their allocator caches — from its first level to its teardown.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scv::spec
{
  /// 0 -> one worker per hardware thread (at least one).
  inline unsigned resolve_worker_count(unsigned requested)
  {
    if (requested != 0)
    {
      return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  class WorkerPool
  {
  public:
    explicit WorkerPool(unsigned requested) :
      size_(resolve_worker_count(requested))
    {
      for (unsigned w = 1; w < size_; ++w)
      {
        threads_.emplace_back([this, w] { park(w); });
      }
    }

    ~WorkerPool()
    {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      wake_.notify_all();
      for (auto& t : threads_)
      {
        t.join();
      }
    }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    [[nodiscard]] unsigned size() const
    {
      return size_;
    }

    /// Runs fn(w) for every worker index — w = 0 on the calling thread —
    /// and returns once every worker has finished. The barrier is the
    /// point: after run() the caller may touch shared state (stores,
    /// local result slices) without synchronization. Not reentrant.
    template <class F>
    void run(F&& fn) const
    {
      if (size_ == 1)
      {
        fn(0u);
        return;
      }
      const std::function<void(unsigned)> job = std::ref(fn);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        job_ = &job;
        pending_ = size_ - 1;
        ++generation_;
      }
      wake_.notify_all();
      std::exception_ptr error;
      try
      {
        fn(0u);
      }
      catch (...)
      {
        error = std::current_exception(); // the others still run `job`
      }
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
      if (error)
      {
        std::rethrow_exception(error);
      }
    }

  private:
    void park(unsigned w) const
    {
      for (uint64_t seen = 0;;)
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_)
        {
          return;
        }
        seen = generation_;
        const auto* job = job_;
        lock.unlock();
        (*job)(w);
        lock.lock();
        if (--pending_ == 0)
        {
          done_.notify_one();
        }
      }
    }

    unsigned size_;
    std::vector<std::thread> threads_;
    // Dispatch state, guarded by mu_ (mutable: running a job does not
    // change what the pool is).
    mutable std::mutex mu_;
    mutable std::condition_variable wake_;
    mutable std::condition_variable done_;
    mutable const std::function<void(unsigned)>* job_ = nullptr;
    mutable uint64_t generation_ = 0;
    mutable unsigned pending_ = 0;
    bool shutdown_ = false;
  };
}
