#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench::tracer
{
  namespace
  {
    struct Stat
    {
      uint64_t calls = 0;
      double total = 0.0;
      double self = 0.0;
      std::vector<double> samples;
    };

    struct Frame
    {
      Clock::time_point start;
      double child = 0.0;
    };

    struct Local
    {
      std::vector<Stat> stats;
      std::vector<Frame> stack;
    };

    std::mutex registry_mutex;
    // Guarded by registry_mutex. Locals outlive their threads so that a
    // worker pool's spans survive the pool.
    std::vector<std::unique_ptr<Local>> locals;
    // Written only by id(), before any thread records; read lock-free.
    std::vector<std::string> names;
    std::vector<bool> keep;
    std::atomic<bool> on{false};

    Local& local()
    {
      thread_local Local* mine = nullptr;
      if (mine == nullptr)
      {
        const std::lock_guard<std::mutex> lock(registry_mutex);
        locals.push_back(std::make_unique<Local>());
        mine = locals.back().get();
      }
      return *mine;
    }
  }

  int id(const std::string& name, bool keep_samples)
  {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end())
    {
      return static_cast<int>(it - names.begin());
    }
    names.push_back(name);
    keep.push_back(keep_samples);
    return static_cast<int>(names.size() - 1);
  }

  void set_enabled(bool enable)
  {
    on.store(enable, std::memory_order_relaxed);
  }

  bool enabled()
  {
    return on.load(std::memory_order_relaxed);
  }

  void reset()
  {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    for (auto& l : locals)
    {
      l->stats.clear();
    }
  }

  void enter()
  {
    local().stack.push_back({Clock::now(), 0.0});
  }

  void leave(int id)
  {
    Local& l = local();
    const Frame frame = l.stack.back();
    l.stack.pop_back();
    const double d = seconds_since(frame.start);
    if (l.stats.size() <= static_cast<size_t>(id))
    {
      l.stats.resize(static_cast<size_t>(id) + 1);
    }
    Stat& st = l.stats[static_cast<size_t>(id)];
    st.calls += 1;
    st.total += d;
    st.self += d - frame.child;
    if (keep[static_cast<size_t>(id)])
    {
      st.samples.push_back(d);
    }
    if (!l.stack.empty())
    {
      l.stack.back().child += d;
    }
  }

  std::vector<SpanTotals> snapshot()
  {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    std::vector<SpanTotals> out(names.size());
    for (size_t i = 0; i < names.size(); ++i)
    {
      out[i].name = names[i];
    }
    for (const auto& l : locals)
    {
      for (size_t i = 0; i < l->stats.size(); ++i)
      {
        out[i].calls += l->stats[i].calls;
        out[i].total_s += l->stats[i].total;
        out[i].self_s += l->stats[i].self;
        out[i].samples.insert(
          out[i].samples.end(),
          l->stats[i].samples.begin(),
          l->stats[i].samples.end());
      }
    }
    return out;
  }

  SpanTotals find(const std::vector<SpanTotals>& totals, const std::string& name)
  {
    for (const auto& t : totals)
    {
      if (t.name == name)
      {
        return t;
      }
    }
    SpanTotals none;
    none.name = name;
    return none;
  }

  bool write_json(const std::string& path, const std::string& header)
  {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
    {
      return false;
    }
    std::fprintf(f, "{%s, \"spans\": [", header.c_str());
    bool first = true;
    for (const auto& t : snapshot())
    {
      if (t.calls == 0)
      {
        continue;
      }
      std::fprintf(
        f,
        "%s\n  {\"name\": \"%s\", \"calls\": %llu, \"total_s\": %.9g, "
        "\"self_s\": %.9g, \"samples\": %zu, \"p50_us\": %.6g, "
        "\"p99_us\": %.6g}",
        first ? "" : ",",
        t.name.c_str(),
        static_cast<unsigned long long>(t.calls),
        t.total_s,
        t.self_s,
        t.samples.size(),
        quantile(t.samples, 0.5) * 1e6,
        quantile(t.samples, 0.99) * 1e6);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }
}
