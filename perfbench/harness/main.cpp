// scvbench: runs one benchmark workload and prints its summary, then one
// JSON line with the verdict and the metric values. perfbench/run.py
// builds this binary, runs it, and turns that line into the benchmark's
// result line (adding units from BENCHMARK.json).
//
//   scvbench --workload=<smallbank|modelcheck|modelcheck-sym|tracecheck>
//            --seed=N --seconds=S [--trace] [--spans=PATH]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include <sched.h>

#include "stats.h"
#include "tracer.h"
#include "workloads.h"

using namespace perfbench;

namespace
{
  unsigned allowed_cpus()
  {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
    {
      return 1;
    }
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }

  void print_figures(const Report& report)
  {
    std::printf(
      "%-24s %14s %14s %14s %7s %9s  %s\n",
      "metric",
      "median",
      "q1",
      "q3",
      "rounds",
      "samples",
      "unit");
    for (const Figure& f : report.figures)
    {
      std::printf(
        "%-24s %14.6g %14.6g %14.6g %7zu %9llu  %s\n",
        f.name.c_str(),
        median(f.samples),
        quantile(f.samples, 0.25),
        quantile(f.samples, 0.75),
        f.samples.size(),
        static_cast<unsigned long long>(
          f.measurements > 0 ? f.measurements : f.samples.size()),
        f.unit.c_str());
    }
  }

  void print_result(const Report& report, bool correct, bool trace)
  {
    const auto& values = trace ? report.layer : report.e2e;
    std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
    bool first = true;
    for (const auto& [name, value] : values)
    {
      std::printf(
        "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0);
      first = false;
    }
    std::printf("}}\n");
  }
}

int main(int argc, char** argv)
{
  Options options;
  options.workers = allowed_cpus();
  std::string workload;
  std::string spans_path;
  for (int i = 1; i < argc; ++i)
  {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload="))
    {
      workload = v;
    }
    else if (const char* v = value("--seed="))
    {
      options.seed = std::strtoull(v, nullptr, 10);
    }
    else if (const char* v = value("--seconds="))
    {
      options.seconds = std::strtod(v, nullptr);
    }
    else if (const char* v = value("--spans="))
    {
      spans_path = v;
    }
    else if (arg == "--trace")
    {
      options.trace = true;
    }
    else
    {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  Report report;
  if (workload == "smallbank")
  {
    run_smallbank(options, report);
  }
  else if (workload == "modelcheck" || workload == "modelcheck-sym")
  {
    run_modelcheck(options, workload == "modelcheck-sym", report);
  }
  else if (workload == "tracecheck")
  {
    run_tracecheck(options, report);
  }
  else
  {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  // Whole-run figures shared by every workload.
  report.e2e["peak_rss_mb"] = peak_rss_mb();
  report.e2e["ok_ratio"] = report.attempted == 0 ? 0.0 :
    1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  for (const Figure& f : report.figures)
  {
    if (f.name == "setup_s")
    {
      report.e2e["setup_s"] = median(f.samples);
    }
  }
  report.figure("failed_ratio", "ratio")
    .samples.push_back(1.0 - report.e2e["ok_ratio"]);
  report.figure("peak_rss_mb", "MB").samples.push_back(report.e2e["peak_rss_mb"]);

  std::printf(
    "workload %s, seed %llu, N = %u workers%s\n",
    workload.c_str(),
    static_cast<unsigned long long>(options.seed),
    options.workers,
    options.trace ? ", traced" : "");
  print_figures(report);
  for (const auto& error : report.errors)
  {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  if (options.trace && !spans_path.empty())
  {
    const std::string header = "\"workload\": \"" + workload +
      "\", \"seed\": " + std::to_string(options.seed);
    if (!tracer::write_json(spans_path, header))
    {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  print_result(report, report.errors.empty(), options.trace);
  return 0;
}
