// Common engine surface shared by the three exploration engines.
//
// The checker, the simulator, and the trace validator each grew their own
// options struct and result struct; campaigns (campaign.h) compose all
// three, so the shared shape is factored here:
//   * EngineId     — who discovered a state. The ShardedStateStore tags
//                    every admission with the discovering engine so a
//                    campaign can report per-engine and unioned coverage.
//   * EngineOptions— the knobs every engine agrees on: the wall-clock
//                    deadline, the worker-thread convention, and the
//                    Budget::Caps assembly (each engine supplies its own
//                    work-counter and depth caps — the unit is
//                    engine-defined, the plumbing is not).
//   * EngineReport — the result fields every engine agrees on: the
//                    verdict and the ExplorationStats. CheckResult,
//                    SimResult and ValidationResult all derive from it,
//                    so campaign output and bench JSON emission take any
//                    engine's result through one code path.
//
// The `threads` semantics are documented once, in docs/SPEC.md
// ("threads semantics"): 1 = one worker on the caller's thread
// (bit-identical results), 0 = one worker per hardware thread, N > 1 =
// N workers with identical verdicts/totals.
#pragma once

#include <cstdint>

#include "spec/budget.h"
#include "spec/stats.h"
#include "spec/store_options.h"

namespace scv::spec
{
  /// The engine that discovered a state / produced a report. Stored as a
  /// one-byte origin tag on ShardedStateStore records.
  enum class EngineId : uint8_t
  {
    None = 0,
    Checker = 1,
    Simulator = 2,
    Validator = 3,
    /// Randomized fault-injection campaigns (driver-level nemesis). Does
    /// not admit spec states to the store; the id exists so a campaign
    /// can schedule and report a nemesis phase next to the spec engines.
    Nemesis = 4,
  };

  [[nodiscard]] constexpr const char* engine_name(EngineId id)
  {
    switch (id)
    {
      case EngineId::Checker:
        return "checker";
      case EngineId::Simulator:
        return "simulator";
      case EngineId::Validator:
        return "validator";
      case EngineId::Nemesis:
        return "nemesis";
      case EngineId::None:
        break;
    }
    return "none";
  }

  /// Options fields common to CheckLimits, SimOptions and
  /// ValidationOptions. Derived structs keep their domain-named work
  /// caps (max_distinct_states / max_behaviors / max_states) and build
  /// their Budget::Caps through make_caps().
  struct EngineOptions
  {
    /// Wall-clock budget for the whole run.
    double time_budget_seconds = 1e18;
    /// Worker threads — see docs/SPEC.md "threads semantics":
    /// 1 = one worker on the caller's thread (bit-identical), 0 = one
    /// worker per hardware thread, N > 1 = N workers.
    unsigned threads = 1;
    /// Symmetry reduction (docs/SPEC.md "Symmetry reduction"): dedup
    /// states modulo the spec's Symmetry group by fingerprinting each
    /// state's canonical orbit representative. Inert when the spec
    /// carries no Symmetry hook. The trace validator ignores the flag
    /// for its search — trace lines name concrete identities.
    bool symmetry = false;
    /// State-store knobs for the engine's private store (docs/SPEC.md
    /// "Store modes"): full vs fingerprint-only retention, the byte
    /// ceiling (crossing it ends the run like an exhausted budget), and
    /// the optional spill directory. Engines attached to a shared
    /// campaign store use the campaign's store options instead.
    StoreOptions store;

    /// Assembles the exploration-core budget from the shared deadline and
    /// the engine's own work/depth caps.
    [[nodiscard]] Budget::Caps make_caps(
      uint64_t max_work, uint64_t max_depth) const
    {
      return {time_budget_seconds, max_work, max_depth};
    }
  };

  /// Result fields common to CheckResult, SimResult and ValidationResult:
  /// the verdict and the unified statistics. Campaign phase tables and
  /// bench_util JSON emission consume engine results through this base.
  struct EngineReport
  {
    /// Verdict: no violation found (checker/simulator) or the trace
    /// matched (validator).
    bool ok = true;
    /// Which engine produced this report.
    EngineId engine = EngineId::None;
    ExplorationStats stats;
  };
}
