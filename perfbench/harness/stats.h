// Small statistics and process probes shared by the workloads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench
{
  /// Nearest-rank quantile (q in [0, 1]); 0 when empty.
  inline double quantile(std::vector<double> v, double q)
  {
    if (v.empty())
    {
      return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size());
    size_t idx = static_cast<size_t>(std::ceil(rank));
    idx = std::min(std::max<size_t>(idx, 1), v.size());
    return v[idx - 1];
  }

  /// Median with the two middle values averaged; 0 when empty.
  inline double median(std::vector<double> v)
  {
    if (v.empty())
    {
      return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }

  /// Median wall time of `f` over `reps` calls, in seconds.
  template <class F>
  double median_seconds(int reps, F&& f)
  {
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i)
    {
      const auto start = std::chrono::steady_clock::now();
      f();
      samples.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
    }
    return median(samples);
  }

  /// Work per second pooled over a run's rounds: total work over total
  /// time. On a shared host a core can run at half speed, with no time
  /// stolen from it, for hundreds of milliseconds to minutes at a time;
  /// the pooled rate moves with the share of the run spent slowed.
  struct PooledRate
  {
    double work = 0.0;
    double seconds = 0.0;

    void add(double w, double s)
    {
      work += w;
      seconds += s;
    }

    [[nodiscard]] double value() const
    {
      return seconds > 0.0 ? work / seconds : 0.0;
    }
  };

  /// Pins the calling thread to the index-th CPU it may run on (modulo
  /// their number) until destroyed. One-worker phases rotate through the
  /// CPUs round by round, so a run samples every virtual CPU of a shared
  /// host instead of whichever one the scheduler kept it on. Threads
  /// created while pinned inherit the pin; pin only one-worker phases.
  class PinnedCpu
  {
  public:
    explicit PinnedCpu(unsigned index)
    {
      if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
      {
        return;
      }
      unsigned k = index % static_cast<unsigned>(CPU_COUNT(&saved_));
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      {
        if (CPU_ISSET(cpu, &saved_) && k-- == 0)
        {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
          return;
        }
      }
    }

    ~PinnedCpu()
    {
      if (pinned_)
      {
        sched_setaffinity(0, sizeof(saved_), &saved_);
      }
    }

    PinnedCpu(const PinnedCpu&) = delete;
    PinnedCpu& operator=(const PinnedCpu&) = delete;
    PinnedCpu(PinnedCpu&&) = delete;
    PinnedCpu& operator=(PinnedCpu&&) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
  };

  /// User + system CPU seconds of this process so far.
  inline double cpu_seconds()
  {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
  }

  /// Peak resident set of this process so far, in MiB.
  inline double peak_rss_mb()
  {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
}
