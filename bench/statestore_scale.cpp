// State-store scale bench: how many distinct states fit under a fixed
// memory budget in each store mode (docs/SPEC.md "Store modes").
//
// TLC's killer trick for big models is fingerprint-only storage: once a
// state has been expanded, only its 64-bit fingerprint (plus a 16-byte hot
// record for counterexample reconstruction) needs to stay resident — the
// state body is dead weight. With a deliberately fat 1 KiB state this
// bench measures the resulting ceiling shift directly: full mode stores
// every body forever and hits a 4 GiB budget after a few million states;
// fingerprint-only mode retires bodies as states leave the BFS frontier
// and packs >10x more distinct states under the same budget.
//
// Two phases:
//   1. Mode sweep on a doubling graph (wide BFS frontier): {full,
//      fingerprint_only} x {spill off, spill on} x threads {1, 2},
//      reporting throughput, resident store bytes, spilled bytes and
//      index rehashes for each combination.
//   2. Memory-ceiling run on a long chain (frontier of one, so resident
//      bytes are pure store footprint): full vs fingerprint-only under
//      the same 4 GiB StoreOptions::memory_budget_bytes, reporting the
//      distinct-state ceiling each mode reaches and their ratio.
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "spec/model_checker.h"

using namespace scv;
using namespace scv::bench;
using namespace scv::spec;

namespace
{
  /// A 1 KiB state whose identity is a single u64: fingerprints stay cheap
  /// (8 serialized bytes) while each retained body costs a kilobyte — the
  /// shape that makes body retention the binding constraint, as it is for
  /// real consensus states (large maps, small logical content).
  struct BigState
  {
    uint64_t value = 0;
    std::array<uint64_t, 127> pad{}; // sizeof(BigState) == 1024

    bool operator==(const BigState& o) const
    {
      return value == o.value;
    }

    void serialize(ByteSink& sink) const
    {
      sink.u64(value);
    }

    [[nodiscard]] std::string to_string() const
    {
      return "v=" + std::to_string(value);
    }
  };
  static_assert(sizeof(BigState) == 1024);

  /// Doubling graph over [0, n): v -> 2v mod n and 2v+1 mod n. From 0 this
  /// reaches every residue of the power-of-two modulus in log2(n) BFS
  /// levels — a wide frontier that exercises concurrent inserts.
  SpecDef<BigState> doubling_spec(uint64_t n)
  {
    SpecDef<BigState> spec;
    spec.name = "doubling";
    spec.init = {BigState{}};
    spec.actions.push_back(
      {"shift0", [n](const BigState& s, const Emit<BigState>& emit) {
         BigState next = s;
         next.value = (s.value * 2) % n;
         emit(std::move(next));
       }});
    spec.actions.push_back(
      {"shift1", [n](const BigState& s, const Emit<BigState>& emit) {
         BigState next = s;
         next.value = (s.value * 2 + 1) % n;
         emit(std::move(next));
       }});
    return spec;
  }

  /// Chain over [0, bound): v -> v+1. Exactly one frontier body is live at
  /// a time in fingerprint-only mode, so resident bytes measure the store
  /// itself. Depth saturates the hot record's 24-bit field past ~16.7M —
  /// harmless here (the bench never reconstructs a path).
  SpecDef<BigState> chain_spec(uint64_t bound)
  {
    SpecDef<BigState> spec;
    spec.name = "chain";
    spec.init = {BigState{}};
    spec.actions.push_back(
      {"inc", [bound](const BigState& s, const Emit<BigState>& emit) {
         if (s.value + 1 < bound)
         {
           BigState next = s;
           next.value = s.value + 1;
           emit(std::move(next));
         }
       }});
    return spec;
  }

  std::string make_spill_dir()
  {
    char tmpl[] = "/tmp/scv-statestore-bench-XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    return dir != nullptr ? std::string(dir) : std::string();
  }
}

int main()
{
  std::printf("State-store scale: full vs fingerprint-only (4 GiB budget)\n\n");

  BenchReport report("statestore");
  const std::string spill_dir = make_spill_dir();

  // ---- Phase 1: mode sweep on the doubling graph ----------------------
  const uint64_t sweep_n = uint64_t{1} << 21; // ~2.1M distinct states
  std::printf(
    "Sweep: doubling graph, %llu distinct 1 KiB states\n",
    static_cast<unsigned long long>(sweep_n));
  std::printf(
    "%-22s %12s %12s %12s %10s %8s\n",
    "mode",
    "states",
    "store MiB",
    "spill MiB",
    "states/s",
    "seconds");
  print_rule(82);

  const auto spec = doubling_spec(sweep_n);
  for (const StoreMode mode : {StoreMode::full, StoreMode::fingerprint_only})
  {
    for (const bool spill : {false, true})
    {
      for (const unsigned threads : {1u, 2u})
      {
        CheckLimits limits;
        limits.threads = threads;
        limits.store.mode = mode;
        if (spill)
        {
          // spill_dir with a zero budget = spill every frozen arena
          // block; the resident arena never exceeds one block per shard.
          limits.store.spill_dir = spill_dir;
        }
        const auto r = model_check(spec, limits);
        const std::string label = std::string(store_mode_name(mode)) +
          (spill ? "_spill" : "") + "_t" + std::to_string(threads);
        std::printf(
          "%-22s %12llu %12.1f %12.1f %10s %7.2fs\n",
          label.c_str(),
          static_cast<unsigned long long>(r.stats.distinct_states),
          static_cast<double>(r.stats.store_bytes) / (1024.0 * 1024.0),
          static_cast<double>(r.stats.spilled_bytes) / (1024.0 * 1024.0),
          magnitude(r.stats.states_per_second()).c_str(),
          r.stats.seconds);
        report.add_run(label, threads, r);
      }
    }
  }

  // ---- Phase 2: memory ceiling on the chain ---------------------------
  // Same 4 GiB byte ceiling for both modes; the fingerprint-only run is
  // additionally capped at 60M distinct states to bound the bench's
  // wall-clock (it reports "cap reached" when the budget never bound it).
  const uint64_t budget = uint64_t{4} << 30;
  const uint64_t fp_cap = 60'000'000;
  std::printf("\nMemory ceiling: chain graph, budget 4 GiB\n");

  uint64_t full_ceiling = 0;
  uint64_t fp_ceiling = 0;
  for (const StoreMode mode : {StoreMode::full, StoreMode::fingerprint_only})
  {
    CheckLimits limits;
    limits.threads = 1;
    limits.store.mode = mode;
    limits.store.memory_budget_bytes = budget;
    limits.max_distinct_states = fp_cap;
    const auto r = model_check(chain_spec(fp_cap * 2), limits);
    const bool capped = r.stats.distinct_states >= fp_cap;
    std::printf(
      "  %-18s ceiling %12llu states  store %7.1f MiB  %s states/s%s\n",
      store_mode_name(mode),
      static_cast<unsigned long long>(r.stats.distinct_states),
      static_cast<double>(r.stats.store_bytes) / (1024.0 * 1024.0),
      magnitude(r.stats.states_per_second()).c_str(),
      capped ? "  (state cap reached, budget not exhausted)" : "");
    report.add_run(
      std::string("ceiling_") + store_mode_name(mode), 1, r);
    (mode == StoreMode::full ? full_ceiling : fp_ceiling) =
      r.stats.distinct_states;
  }

  const double ratio = full_ceiling > 0 ?
    static_cast<double>(fp_ceiling) / static_cast<double>(full_ceiling) :
    0.0;
  report.add_field("memory_budget_bytes", budget);
  report.add_field("full_ceiling_states", full_ceiling);
  report.add_field("fp_ceiling_states", fp_ceiling);
  report.add_field("fp_over_full_ratio", ratio);
  report.write();

  if (!spill_dir.empty())
  {
    ::rmdir(spill_dir.c_str()); // spill files are mkstemp+unlink'd
  }

  std::printf(
    "\nShape check: fingerprint-only fits %.0fx more distinct states than\n"
    "full mode under the same byte ceiling (paper-scale state spaces need\n"
    ">= 10x; TLC's fingerprint set is the same trade).\n",
    ratio);
  return 0;
}
