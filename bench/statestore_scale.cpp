// State-store scale bench: store footprint, frontier footprint and
// throughput on a wide BFS (docs/SPEC.md "State store").
//
// TLC's trick for big models is fingerprint-only storage: once a state has
// been expanded, only its 64-bit fingerprint (plus a 16-byte hot record
// for counterexample replay) needs to stay resident. Our store keeps
// exactly that, and the checker keeps state bodies only in its two live
// level arenas. A deliberately fat 1 KiB state makes the split visible:
// the store's bytes per distinct state stay at the index slot plus the
// record, whatever sizeof(S) is, while the frontier's bytes track the two
// widest consecutive levels.
//
// One sweep on a doubling graph (wide BFS frontier) at threads {1, 2},
// reporting throughput, resident store bytes, store bytes per state and
// the peak frontier bytes.
#include <array>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "spec/model_checker.h"

using namespace scv;
using namespace scv::bench;
using namespace scv::spec;

namespace
{
  /// A 1 KiB state whose identity is a single u64: fingerprints stay cheap
  /// (8 serialized bytes) while each live body costs a kilobyte — the
  /// shape where keeping bodies would be the binding constraint, as it is
  /// for real consensus states (large maps, small logical content).
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
}

int main()
{
  std::printf("State-store scale: store and frontier footprint\n\n");

  BenchReport report("statestore");

  const uint64_t sweep_n = uint64_t{1} << 20; // ~1M distinct states
  std::printf(
    "Sweep: doubling graph, %llu distinct 1 KiB states\n",
    static_cast<unsigned long long>(sweep_n));
  std::printf(
    "%-10s %10s %10s %10s %13s %10s %8s\n",
    "run",
    "states",
    "store MiB",
    "B/state",
    "frontier MiB",
    "states/s",
    "seconds");
  print_rule(77);

  const auto spec = doubling_spec(sweep_n);
  for (const unsigned threads : {1u, 2u})
  {
    CheckLimits limits;
    limits.threads = threads;
    const auto r = model_check(spec, limits);
    const std::string label = "t" + std::to_string(threads);
    const double mib = 1024.0 * 1024.0;
    std::printf(
      "%-10s %10llu %10.1f %10.1f %13.1f %10s %7.2fs\n",
      label.c_str(),
      static_cast<unsigned long long>(r.stats.distinct_states),
      static_cast<double>(r.stats.store_bytes) / mib,
      static_cast<double>(r.stats.store_bytes) /
        static_cast<double>(std::max<uint64_t>(1, r.stats.distinct_states)),
      static_cast<double>(r.stats.peak_frontier_bytes) / mib,
      magnitude(r.stats.states_per_second()).c_str(),
      r.stats.seconds);
    report.add_run(label, threads, r);
    report.add_field(label + "_store_bytes", r.stats.store_bytes);
    report.add_field(
      label + "_peak_frontier_bytes", r.stats.peak_frontier_bytes);
  }
  report.write();

  return 0;
}
