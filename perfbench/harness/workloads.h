// The benchmark's workloads and the report they fill.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{
  struct Options
  {
    uint64_t seed = 1;
    /// How long the timed phase repeats (at least one round always runs).
    double seconds = 10.0;
    /// Traced run: per-layer metrics instead of end-to-end ones.
    bool trace = false;
    /// N: one worker per CPU this process may run on.
    unsigned workers = 1;
  };

  /// A figure of the printed summary, under the name the metric carries
  /// in the benchmark's documentation: one sample per round, plus how
  /// many measurements (calls, transactions) the round values summarize.
  struct Figure
  {
    std::string name;
    std::string unit;
    std::vector<double> samples;
    uint64_t measurements = 0;
  };

  struct Report
  {
    /// Work items attempted and failed (arrivals, engine runs, traces).
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Failed output checks; any entry makes the run incorrect.
    std::vector<std::string> errors;
    /// A deque, so references figure() hands out stay valid.
    std::deque<Figure> figures;
    /// End-to-end metric values (untraced run).
    std::map<std::string, double> e2e;
    /// Per-layer metric values (traced run).
    std::map<std::string, double> layer;

    void check(bool ok, const std::string& what)
    {
      if (!ok)
      {
        errors.push_back(what);
      }
    }

    Figure& figure(const std::string& name, const std::string& unit)
    {
      for (auto& f : figures)
      {
        if (f.name == name)
        {
          return f;
        }
      }
      figures.push_back({name, unit, {}, 0});
      return figures.back();
    }
  };

  void run_smallbank(const Options& options, Report& report);
  /// symmetric = false: the Table-1 n=2 model, symmetry off;
  /// symmetric = true: the n=3 permutation-closed model, symmetry on.
  void run_modelcheck(const Options& options, bool symmetric, Report& report);
  void run_tracecheck(const Options& options, Report& report);
}
