// Reproduces §6.4 ("Scalability of Trace Validation"): checking a trace
// needs only ONE witness behavior in T ∩ S, so depth-first search with
// memoized dead ends beats enumerating every candidate behavior
// breadth-first by orders of magnitude once nondeterminism (unlogged
// faults) inflates |T|. The paper: "validating a trace ... started to
// take less than a second using DFS, compared to about an hour with BFS".
//
// We sweep the per-line fault budget (composed drop/duplicate steps, the
// IsFault · Next of Listing 5): each extra fault multiplies the BFS
// frontier while DFS keeps finding its single witness.
#include <cstdio>

#include "bench_util.h"
#include "driver/cluster.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"

using namespace scv;
using namespace scv::bench;
using namespace scv::driver;

int main()
{
  std::printf("DFS vs BFS trace validation (paper §6.4)\n\n");

  // A moderately busy run: several transactions, elections disabled by a
  // healthy leader, plenty of in-flight traffic (large |network| -> many
  // fault choices per line).
  ClusterOptions o;
  o.initial_config = {1, 2, 3};
  o.initial_leader = 1;
  o.seed = 71;
  Cluster c(o);
  for (int i = 0; i < 8; ++i)
  {
    c.submit("tx" + std::to_string(i));
    if (i % 3 == 2)
    {
      c.sign();
    }
    c.tick_all();
    c.drain();
  }
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto params = trace::validation_params({1, 2, 3}, 1, 3);
  std::printf(
    "trace: %zu events\n\n", trace::preprocess(c.trace()).size());

  std::printf(
    "%-18s %-6s %10s %14s %10s\n",
    "faults/line",
    "mode",
    "verdict",
    "states",
    "seconds");
  print_rule(64);

  BenchReport report("dfs_vs_bfs");

  for (const size_t faults : {0, 1, 2})
  {
    for (const auto mode : {spec::SearchMode::Dfs, spec::SearchMode::Bfs})
    {
      trace::ConsensusValidationOptions options;
      options.search.mode = mode;
      options.search.max_faults_per_step = faults;
      options.search.time_budget_seconds = 60.0; // cap runaway BFS
      options.fault_composition = faults > 0;
      Stopwatch sw;
      const auto r = trace::validate_consensus_trace(c.trace(), params, options);
      const double secs = sw.seconds();
      std::printf(
        "%-18zu %-6s %10s %14llu %9.3fs%s\n",
        faults,
        mode == spec::SearchMode::Dfs ? "DFS" : "BFS",
        r.ok ? "valid" : (secs >= 59.0 ? "TIMEOUT" : "invalid"),
        static_cast<unsigned long long>(r.states_explored),
        secs,
        secs >= 59.0 ? "  (hit 60s budget)" : "");
      report.add_run(
        std::string(mode == spec::SearchMode::Dfs ? "dfs" : "bfs") +
          "_faults" + std::to_string(faults),
        1,
        r);
    }
  }

  // The BFS frontier itself parallelizes (ValidationOptions::threads
  // splits each line's frontier across the worker pool); sweep the worker
  // count at the heaviest fault budget, where the frontier is widest.
  std::printf("\nParallel BFS frontier (faults/line=2):\n");
  for (const unsigned threads : thread_sweep())
  {
    trace::ConsensusValidationOptions options;
    options.search.mode = spec::SearchMode::Bfs;
    options.search.max_faults_per_step = 2;
    options.search.time_budget_seconds = 60.0;
    options.search.threads = threads;
    options.fault_composition = true;
    Stopwatch sw;
    const auto r = trace::validate_consensus_trace(c.trace(), params, options);
    const double secs = sw.seconds();
    std::printf(
      "  threads=%-2u %10s %14llu states %9.3fs (%s states/s)\n",
      threads,
      r.ok ? "valid" : (secs >= 59.0 ? "TIMEOUT" : "invalid"),
      static_cast<unsigned long long>(r.states_explored),
      secs,
      magnitude(
        secs > 0 ? static_cast<double>(r.states_explored) / secs : 0.0)
        .c_str());
    report.add_run("parallel_bfs_validation", threads, r);
  }

  report.write();

  std::printf(
    "\nShape check (paper): DFS validates in (well) under a second at every\n"
    "fault budget; BFS explodes combinatorially as unlogged-fault\n"
    "nondeterminism grows — orders of magnitude slower.\n");
  return 0;
}
