// Shared helpers for the table-reproduction harnesses: wall-clock timing,
// LoC counting (Table 1 compares spec size against implementation size),
// aligned table printing, and machine-readable BENCH_<name>.json emission
// so the perf trajectory (states/s at each worker count) is tracked across
// PRs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "spec/engine.h"
#include "util/json.h"

namespace scv::bench
{
  class Stopwatch
  {
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    [[nodiscard]] double seconds() const
    {
      return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
  };

  /// Counts non-empty lines in a source file under the repo root.
  inline size_t loc_of(const std::string& repo_relative_path)
  {
#ifdef SCV_SOURCE_DIR
    std::ifstream f(std::string(SCV_SOURCE_DIR) + "/" + repo_relative_path);
#else
    std::ifstream f(repo_relative_path);
#endif
    size_t lines = 0;
    std::string line;
    while (std::getline(f, line))
    {
      bool blank = true;
      for (const char c : line)
      {
        if (!std::isspace(static_cast<unsigned char>(c)))
        {
          blank = false;
          break;
        }
      }
      if (!blank)
      {
        ++lines;
      }
    }
    return lines;
  }

  inline size_t loc_of(std::initializer_list<const char*> paths)
  {
    size_t total = 0;
    for (const char* p : paths)
    {
      total += loc_of(std::string(p));
    }
    return total;
  }

  /// "1.2e+06"-style compact magnitude formatting.
  inline std::string magnitude(double v)
  {
    char buf[32];
    if (v <= 0)
    {
      return "-";
    }
    std::snprintf(buf, sizeof(buf), "%.1e", v);
    return buf;
  }

  inline void print_rule(int width = 100)
  {
    for (int i = 0; i < width; ++i)
    {
      std::putchar('-');
    }
    std::putchar('\n');
  }

  /// Worker counts to sweep in scaling benches: 1, 2, 4 and the machine's
  /// hardware concurrency (deduplicated, ascending).
  inline std::vector<unsigned> thread_sweep()
  {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> sweep;
    for (const unsigned t : {1u, 2u, 4u, hw})
    {
      if (t <= std::max(4u, hw) &&
          std::find(sweep.begin(), sweep.end(), t) == sweep.end())
      {
        sweep.push_back(t);
      }
    }
    std::sort(sweep.begin(), sweep.end());
    return sweep;
  }

  /// The CPU model from /proc/cpuinfo ("unknown" where there is none),
  /// recorded next to hardware_threads so committed numbers name their
  /// hardware.
  inline std::string cpu_model()
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
    {
      if (line.rfind("model name", 0) == 0)
      {
        const size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
        {
          return line.substr(colon + 2);
        }
      }
    }
    return "unknown";
  }

  /// Accumulates one bench's runs and writes BENCH_<name>.json in the
  /// working directory. Schema:
  ///   {
  ///     "bench": "<name>", "hardware_threads": H, "cpu": "<model>",
  ///     "runs": [{"label": ..., "threads": T, "states_per_s": ...,
  ///               "distinct_states": ..., "seconds": ...}, ...],
  ///     ...extra scalar fields...
  ///   }
  class BenchReport
  {
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    void add_run(
      const std::string& label,
      unsigned threads,
      double states_per_s,
      uint64_t distinct_states,
      double seconds)
    {
      runs_.push_back(scv::json::object(
        {{"label", label},
         {"threads", static_cast<uint64_t>(threads)},
         {"states_per_s", states_per_s},
         {"distinct_states", distinct_states},
         {"seconds", seconds}}));
    }

    /// Any engine result (CheckResult / SimResult / ValidationResult)
    /// through the shared EngineReport base — no per-engine special cases.
    void add_run(
      const std::string& label,
      unsigned threads,
      const spec::EngineReport& report)
    {
      add_run(
        label,
        threads,
        report.stats.states_per_minute() / 60.0,
        report.stats.distinct_states,
        report.stats.seconds);
    }

    void add_field(const std::string& key, scv::json::Value value)
    {
      extra_.emplace_back(key, std::move(value));
    }

    /// Writes BENCH_<name>.json; prints the path so runs are discoverable.
    /// Top-level keys of an existing file that this run does not write
    /// (a committed trajectory, recorded measurements) are carried over.
    void write() const
    {
      scv::json::Object payload;
      payload.reserve(4 + extra_.size());
      payload.emplace_back("bench", name_);
      payload.emplace_back(
        "hardware_threads",
        static_cast<uint64_t>(
          std::max(1u, std::thread::hardware_concurrency())));
      payload.emplace_back("cpu", cpu_model());
      payload.emplace_back("runs", runs_);
      for (const auto& [key, value] : extra_)
      {
        payload.emplace_back(key, value);
      }
      const std::string path = "BENCH_" + name_ + ".json";
      if (std::ifstream in(path); in)
      {
        const std::string text(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
        const auto previous = scv::json::parse(text);
        if (previous.has_value() && previous->is_object())
        {
          for (const auto& [key, value] : previous->as_object())
          {
            const bool written = std::any_of(
              payload.begin(), payload.end(), [&](const auto& field) {
                return field.first == key;
              });
            if (!written)
            {
              payload.emplace_back(key, value);
            }
          }
        }
      }
      std::ofstream out(path);
      out << scv::json::Value(payload).dump() << "\n";
      std::printf("wrote %s\n", path.c_str());
    }

  private:
    std::string name_;
    scv::json::Array runs_;
    scv::json::Object extra_;
  };
}
