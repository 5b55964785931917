// Exploration statistics shared by the model checker, simulator and trace
// validator; these are the numbers Table 1 reports (states explored, states
// per minute).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scv::spec
{
  /// TLC's fingerprint-collision estimate for a run that admitted
  /// `distinct` states and dropped `duplicates` as already seen: each
  /// duplicate hit could have been a collision with any of `distinct`
  /// fingerprints, probability distinct × duplicates / 2^64.
  [[nodiscard]] inline double fp_collision_probability(
    uint64_t distinct, uint64_t duplicates)
  {
    return static_cast<double>(distinct) * static_cast<double>(duplicates) /
      18446744073709551616.0;
  }

  struct ExplorationStats
  {
    uint64_t distinct_states = 0;
    uint64_t generated_states = 0; // including duplicates
    uint64_t transitions = 0;
    /// States that dedup'd against an already-known state — the
    /// fingerprint-store hit count. generated == distinct + duplicate for
    /// engines that insert every generated state; the simulator inserts
    /// every visited one (behaviors + transitions).
    uint64_t duplicate_states = 0;
    /// DFS trace validation: dead-end memo lookups that pruned a whole
    /// subtree (also counted in duplicate_states).
    uint64_t memo_hits = 0;
    /// Always 0: no engine steals work. The field stays because the
    /// tracecheck benchmark harness (perfbench/harness/tracecheck.cpp)
    /// reads it.
    uint64_t steals = 0;
    /// Campaign runs: simulator walk starts drawn from the checker's
    /// leftover frontier. Zero for standalone runs.
    uint64_t seeded_states = 0;
    /// Symmetry reduction (EngineOptions::symmetry): states run through
    /// the canonicalizer before fingerprinting, and how many of those
    /// actually relabeled (a non-identity orbit representative — i.e.
    /// states the reduction could fold onto a sibling). Zero when
    /// symmetry is off or the spec carries no group.
    uint64_t canonicalized_states = 0;
    uint64_t symmetry_hits = 0;
    uint64_t max_depth = 0;
    /// State-store footprint at the end of the run: bytes written (index
    /// slots + one hot record per state) and index rehashes.
    /// Snapshots of the engine's store, not additive across phases
    /// sharing one store — absorb_counts() takes the max.
    uint64_t store_bytes = 0;
    uint64_t rehash_count = 0;
    /// Checker: the largest footprint of the frontier's state bodies (its
    /// level arenas' chunks). Zero for the other engines.
    uint64_t peak_frontier_bytes = 0;
    /// TLC's estimate of the chance that dedup by 64-bit fingerprint
    /// merged two distinct states: distinct × duplicates / 2^64 (see
    /// fp_collision_probability()). The cost of keeping no state bodies,
    /// kept visible. Set by the checker, the simulator and the trace
    /// validator.
    double fp_collision_probability = 0.0;
    double seconds = 0.0;
    /// The wall-clock allotment this run was given (its
    /// time_budget_seconds), when finite; 0 for unlimited runs. Under a
    /// TimeBox campaign this makes budget reassignment visible: a phase
    /// fed another phase's leftover shows budget_seconds above its naive
    /// share of the box.
    double budget_seconds = 0.0;
    bool complete = false; // exhausted the (constrained) state space
    /// Checker: states admitted at each BFS depth, from the initial
    /// states on, one entry per level barrier. A complete check ends with
    /// the empty level (0), and the entries sum to distinct_states. Not
    /// merged by absorb_counts().
    std::vector<uint64_t> level_sizes;
    /// Transitions taken per action — TLC-style action coverage; an
    /// action stuck at zero usually means a guard is wrong or the model
    /// bounds starve it.
    std::map<std::string, uint64_t> action_coverage;

    [[nodiscard]] double states_per_minute() const;
    [[nodiscard]] double states_per_second() const;
    [[nodiscard]] std::string summary() const;
    /// One "name: count" line per action, sorted by count descending.
    [[nodiscard]] std::string coverage_report() const;
    /// Accumulates another run's counting fields (generated, transitions,
    /// max depth, action coverage) into this one. Used when merging
    /// per-worker stats; distinct_states, seconds and complete carry
    /// cross-worker semantics the caller must settle itself.
    void absorb_counts(const ExplorationStats& other);
  };
}
