// Nemesis: deterministic randomized fault-injection campaigns (§6.1, §7).
//
// The paper's Table-2 bugs were surfaced by adversarial executions, not
// happy paths; trace validation only pays off in proportion to the
// diversity of behaviors the implementation actually exhibits. The
// nemesis closes that loop mechanically:
//
//   generate --> execute --> detect --> (shrink | validate)
//
//   * generate: a seeded Rng assembles a FaultSchedule from fault motifs —
//     node crash + restart (real recovery from the persisted ledger),
//     partitions and heals, message loss / duplication / link drops,
//     clock skew, election storms, client retry storms, reconfiguration
//     splits (the shape that historically broke the quorum tally, Table 2
//     bug 1), snapshot joins (compact the leader, add a node, let it
//     catch up via InstallSnapshot — optionally racing a partition), and
//     compact-crash-restart recovery. Same seed => byte-identical
//     schedule.
//   * execute: the schedule is serialized to scenario-DSL text and run
//     through ScenarioRunner with the cross-node invariant checker after
//     every operation — the emitted .scen IS the execution, so a saved
//     schedule replays by construction.
//   * detect: an invariant violation at any `check` fails the run; every
//     surviving run's trace is piped through the consensus trace
//     validator (fuzz -> validate; the one-worker DFS with fault
//     composition), so a run can fail either against the driver's
//     invariants or against the spec. A trace the validator cannot decide
//     (state or time cap, or values beyond the spec's 8-bit domain) is
//     counted inconclusive, never as a rejection.
//   * shrink: a ddmin-style minimizer removes operation chunks (plus a
//     tick-count trim pass) while the schedule still fails, producing a
//     minimal replayable .scen counterexample.
//
// Determinism contract: all randomness flows from NemesisOptions::seed.
// Run k's schedule is generated from seed XOR mix(k), the cluster under
// test is seeded with the same derived value, and node incarnations get
// seed-derived RNG streams — so fuzz(seed) is reproducible run-for-run,
// trace-for-trace, verdict-for-verdict.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "consensus/raft_node.h"
#include "driver/cluster.h"
#include "spec/budget.h"
#include "spec/stats.h"
#include "trace/event.h"

namespace scv::driver::nemesis
{
  /// A generated fault schedule: cluster shape plus one scenario-DSL line
  /// per operation. to_scen() is the single source of execution truth —
  /// the fuzzer, the shrinker, and a human replaying a saved .scen all
  /// run exactly this text.
  struct FaultSchedule
  {
    uint64_t seed = 0;
    std::vector<NodeId> initial_config;
    NodeId initial_leader = 1;
    /// Highest node id the schedule can touch (spec validation supports
    /// ids 1..7).
    NodeId max_node = 0;
    /// Scenario-DSL lines, one operation each (no trailing newlines).
    std::vector<std::string> ops;

    /// Full scenario script: header + each op followed by `check`.
    [[nodiscard]] std::string to_scen() const;

    [[nodiscard]] size_t size() const
    {
      return ops.size();
    }
  };

  /// Outcome of executing one schedule.
  struct RunOutcome
  {
    /// The invariant checker flagged a violation at a `check` line.
    bool violation = false;
    /// The script aborted for a non-violation reason (counts as
    /// non-failing for the shrinker — soundness over completeness).
    bool script_error = false;
    size_t failed_line = 0;
    std::string error;
    /// Raw implementation trace (bootstrap events included).
    std::vector<trace::TraceEvent> trace;
  };

  struct ShrinkOutcome
  {
    FaultSchedule schedule;
    /// Candidate executions the minimizer spent.
    uint64_t iterations = 0;
  };

  struct NemesisOptions
  {
    uint64_t seed = 1;
    std::vector<NodeId> initial_config = {1, 2, 3};
    NodeId initial_leader = 1;
    /// Operations per schedule, sampled uniformly from [min, max].
    size_t min_ops = 10;
    size_t max_ops = 24;
    /// Fuzz-loop cap; the Budget passed to fuzz() usually binds first.
    uint64_t max_runs = UINT64_MAX;
    /// Pipe every surviving run's trace through the consensus trace
    /// validator (validated against a spec carrying the same BugFlags as
    /// the implementation under test, the paper's alignment discipline).
    bool validate_traces = true;
    bool shrink = true;
    uint64_t max_shrink_iterations = 400;
    /// Per-trace validation caps (one-worker DFS).
    uint64_t validate_max_states = 200000;
    double validate_seconds = 10.0;
    /// Node template for the cluster under test (election timeouts,
    /// BugFlags, ...).
    consensus::NodeConfig node_template;
  };

  /// Campaign-style outcome of a fuzz run.
  struct NemesisReport
  {
    uint64_t runs = 0;
    /// Runs that aborted on a script error (no verdict either way).
    uint64_t script_errors = 0;
    uint64_t violations = 0;
    uint64_t traces_validated = 0;
    /// Confirmed spec rejections (search exhausted, no witness).
    uint64_t traces_rejected = 0;
    /// Validation runs cut short by their budget, or given a trace beyond
    /// the spec's 8-bit domain (no verdict).
    uint64_t traces_inconclusive = 0;
    uint64_t trace_events = 0;
    uint64_t shrink_iterations = 0;
    /// Operations injected, bucketed by fault taxonomy kind.
    std::map<std::string, uint64_t> faults_by_kind;
    /// First failing schedule and its shrunk minimal form.
    std::optional<FaultSchedule> failing;
    std::optional<FaultSchedule> shrunk;
    std::string failure_error;
    double seconds = 0.0;
    /// True when the loop ended by run-count, not by budget exhaustion.
    bool complete = false;

    /// Checker semantics: ok == nothing found wrong.
    [[nodiscard]] bool ok() const
    {
      return violations == 0 && traces_rejected == 0;
    }

    /// Campaign-phase view: runs as the work counter, trace events as
    /// generated states, fault kinds as action coverage.
    [[nodiscard]] spec::ExplorationStats stats() const;

    [[nodiscard]] std::string summary() const;
  };

  /// Fault-taxonomy bucket of one scenario-DSL line ("crash", "restart",
  /// "partition", "workload", ...), for NemesisReport::faults_by_kind.
  [[nodiscard]] std::string fault_kind(const std::string& op);

  class Nemesis
  {
  public:
    explicit Nemesis(NemesisOptions options);

    /// Deterministically generates run `run_index`'s schedule (a pure
    /// function of options.seed and run_index).
    [[nodiscard]] FaultSchedule generate(uint64_t run_index) const;

    /// Executes a schedule through the scenario runner with invariant
    /// checks after every operation.
    [[nodiscard]] RunOutcome execute(const FaultSchedule& schedule) const;

    /// ddmin-style minimization of a failing schedule: repeatedly remove
    /// op chunks at increasing granularity while the result still fails,
    /// then trim tick/skew counts. Schedules that abort on script errors
    /// count as non-failing, so the result is always a genuinely failing,
    /// well-formed scenario.
    [[nodiscard]] ShrinkOutcome shrink(
      const FaultSchedule& failing, const spec::Budget& budget) const;

    /// The fuzz -> validate -> shrink loop under one Budget (work counter
    /// = runs). Stops at the first invariant violation (after shrinking
    /// it) or when the budget/run cap is exhausted.
    [[nodiscard]] NemesisReport fuzz(const spec::Budget& budget) const;

    [[nodiscard]] const NemesisOptions& options() const
    {
      return options_;
    }

  private:
    /// 0 = trace accepted, 1 = confirmed rejection, 2 = inconclusive.
    [[nodiscard]] int validate_trace(
      const FaultSchedule& schedule,
      const std::vector<trace::TraceEvent>& raw,
      double seconds) const;

    NemesisOptions options_;
  };
}
