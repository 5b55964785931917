// modelcheck / modelcheck-sym: exhaustive BFS checks of a fixed consensus
// model, alternating one worker and N workers. The seed permutes the
// order of the spec's actions and invariants, which changes the search
// order and the store layout but never the reachable set, so every seed
// must reach the same golden distinct count.
#include <optional>

#include "spec/model_checker.h"
#include "specs/consensus/spec.h"
#include "stats.h"
#include "tracer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using scv::specs::ccfraft::State;
    using Spec = scv::spec::SpecDef<State>;

    /// The Table-1 model (bench/table1_consensus): n=2, one init state.
    constexpr uint64_t kTable1Golden = 546356;
    /// The symmetry ablation model (bench/symmetry_ablation): n=3 with
    /// the permutation-closed init set; orbits under node permutation.
    constexpr uint64_t kSymmetricGolden = 245480;

    scv::specs::ccfraft::Params model(bool symmetric)
    {
      scv::specs::ccfraft::Params p;
      p.max_term = 2;
      p.max_requests = 1;
      p.max_copies = 1;
      if (symmetric)
      {
        p.n_nodes = 3;
        p.max_log_len = 3;
        p.max_batch = 1;
        p.max_network = 1;
      }
      else
      {
        p.n_nodes = 2;
        p.max_log_len = 4;
        p.max_batch = 2;
        p.max_network = 2;
      }
      return p;
    }

    template <class T>
    void shuffle(std::vector<T>& v, scv::Rng& rng)
    {
      for (size_t i = v.size(); i > 1; --i)
      {
        std::swap(v[i - 1], v[rng.below(i)]);
      }
    }

    Spec build(bool symmetric, uint64_t seed)
    {
      const auto params = model(symmetric);
      Spec spec = scv::specs::ccfraft::build_spec(params);
      if (symmetric)
      {
        spec.init = scv::specs::ccfraft::all_initial_states(params);
      }
      scv::Rng rng(seed);
      shuffle(spec.actions, rng);
      shuffle(spec.invariants, rng);
      return spec;
    }

    struct Ids
    {
      int timed = tracer::id("bench.timed");
      int check = tracer::id("spec.engine.check");
      int expand = tracer::id("specs.consensus.expand");
      int emit = tracer::id("spec.engine.emit");
      int invariants = tracer::id("specs.consensus.invariants");
      int constraint = tracer::id("specs.consensus.constraint");
      int symmetry = tracer::id("specs.consensus.symmetry");
    };

    /// Wraps every hook the engine calls into the spec: each action's
    /// expand, the Emit the engine hands it, the invariants and action
    /// properties, the state constraint and the symmetry group.
    Spec traced(const Spec& plain, const Ids& ids)
    {
      using scv::spec::Emit;
      Spec spec = plain;
      for (auto& action : spec.actions)
      {
        action.expand = [inner = action.expand, &ids](
                          const State& s, const Emit<State>& emit) {
          const Span span(ids.expand);
          inner(s, [&](const State& next) {
            const Span e(ids.emit);
            emit(next);
          });
        };
      }
      for (auto& inv : spec.invariants)
      {
        inv.check = [inner = inv.check, &ids](const State& s) {
          const Span span(ids.invariants);
          return inner(s);
        };
      }
      for (auto& prop : spec.action_properties)
      {
        prop.check = [inner = prop.check, &ids](const State& a, const State& b) {
          const Span span(ids.invariants);
          return inner(a, b);
        };
      }
      if (spec.constraint)
      {
        spec.constraint = [inner = spec.constraint, &ids](const State& s) {
          const Span span(ids.constraint);
          return inner(s);
        };
      }
      if (spec.symmetry.enabled())
      {
        spec.symmetry.apply = [inner = spec.symmetry.apply, &ids](
                                const State& s, const scv::spec::Perm& p) {
          const Span span(ids.symmetry);
          return inner(s, p);
        };
        if (spec.symmetry.signature)
        {
          spec.symmetry.signature = [inner = spec.symmetry.signature, &ids](
                                      const State& s, size_t i) {
            const Span span(ids.symmetry);
            return inner(s, i);
          };
        }
      }
      return spec;
    }

    struct Pass
    {
      scv::spec::CheckResult<State> result;
      double wall_s = 0.0;
      double cpu_s = 0.0;
    };

    /// One complete check; a one-worker check runs pinned to the
    /// `cpu`-th allowed CPU.
    Pass check(
      const Spec& spec, bool symmetric, unsigned threads, const Ids& ids, unsigned cpu = 0)
    {
      std::optional<PinnedCpu> pin;
      if (threads == 1)
      {
        pin.emplace(cpu);
      }
      scv::spec::CheckLimits limits;
      limits.threads = threads;
      limits.symmetry = symmetric;
      Pass pass;
      const double cpu0 = cpu_seconds();
      const auto start = Clock::now();
      {
        const Span timed(ids.timed);
        const Span engine(ids.check);
        pass.result = scv::spec::model_check(spec, limits);
      }
      pass.wall_s = seconds_since(start);
      pass.cpu_s = cpu_seconds() - cpu0;
      return pass;
    }
  }

  void run_modelcheck(const Options& options, bool symmetric, Report& report)
  {
    const Ids ids;
    const uint64_t golden = symmetric ? kSymmetricGolden : kTable1Golden;

    // Set-up: building the spec, a few microseconds. Timed as the median
    // of a burst before every check, so the samples spread over the run.
    auto& setup = report.figure("setup_s", "s").samples;
    Spec spec;
    const auto time_setup = [&] {
      const PinnedCpu pin(static_cast<unsigned>(setup.size()));
      setup.push_back(median_seconds(101, [&] { spec = build(symmetric, options.seed); }));
    };

    const auto verify = [&](const Pass& pass, const std::string& label) {
      const auto& st = pass.result.stats;
      report.attempted += 1;
      const bool ok =
        pass.result.ok && st.complete && st.distinct_states == golden;
      if (!ok)
      {
        report.failed += 1;
        report.check(
          false,
          label + ": verdict " + (pass.result.ok ? "OK" : "VIOLATION") +
            (st.complete ? ", complete" : ", incomplete") + ", " +
            std::to_string(st.distinct_states) + " distinct (golden " +
            std::to_string(golden) + ")");
      }
    };

    const std::string tn = "t" + std::to_string(options.workers);
    if (!options.trace)
    {
      auto& t1 = report.figure("mc_states_per_min_t1", "1/min").samples;
      auto& tN = report.figure("mc_states_per_min_tN", "1/min").samples;
      PooledRate rate1;
      PooledRate rateN;
      const auto start = Clock::now();
      for (unsigned round = 0; t1.empty() || seconds_since(start) < options.seconds; ++round)
      {
        time_setup();
        const Pass one = check(spec, symmetric, 1, ids, round);
        verify(one, "t1");
        const auto states1 = static_cast<double>(one.result.stats.distinct_states);
        t1.push_back(60.0 * states1 / one.wall_s);
        rate1.add(states1, one.wall_s);
        time_setup();
        const Pass many = check(spec, symmetric, options.workers, ids);
        verify(many, tn);
        const auto statesN = static_cast<double>(many.result.stats.distinct_states);
        tN.push_back(60.0 * statesN / many.wall_s);
        rateN.add(statesN, many.wall_s);
      }
      report.e2e["throughput_t1"] = rate1.value();
      report.e2e["throughput_tN"] = rateN.value();
      return;
    }

    // Traced run: untraced t1 and tN passes for the baseline wall time and
    // the engine's own counters, then one traced t1 pass.
    time_setup();
    const Pass one = check(spec, symmetric, 1, ids);
    verify(one, "t1");
    const Pass many = check(spec, symmetric, options.workers, ids);
    verify(many, tn);
    const Spec wrapped = traced(spec, ids);
    tracer::reset();
    tracer::set_enabled(true);
    const Pass pass = check(wrapped, symmetric, 1, ids);
    tracer::set_enabled(false);
    verify(pass, "traced t1");

    const auto spans = tracer::snapshot();
    const auto span = [&](const std::string& name) { return tracer::find(spans, name); };
    auto& L = report.layer;
    L["specs.consensus.expand.calls"] = static_cast<double>(span("specs.consensus.expand").calls);
    L["specs.consensus.expand.self_s"] = span("specs.consensus.expand").self_s;
    L["spec.engine.emit_s"] = span("spec.engine.emit").self_s;
    L["specs.consensus.invariants.s"] = span("specs.consensus.invariants").total_s;
    L["specs.consensus.constraint.s"] = span("specs.consensus.constraint").total_s;
    L["specs.consensus.symmetry.s"] = span("specs.consensus.symmetry").total_s;
    L["spec.engine.self_s"] = span("spec.engine.check").self_s;
    L["spec.engine.cpu_s"] = many.cpu_s;
    L["spec.engine.cpu_util"] = many.cpu_s / (many.wall_s * options.workers);
    const auto& s1 = one.result.stats;
    L["spec.store.distinct"] = static_cast<double>(s1.distinct_states);
    L["spec.store.duplicates"] = static_cast<double>(s1.duplicate_states);
    L["spec.store.bytes"] = static_cast<double>(s1.store_bytes);
    L["spec.store.rehashes_t1"] = static_cast<double>(s1.rehash_count);
    L["spec.store.rehashes_tN"] = static_cast<double>(many.result.stats.rehash_count);
    L["spec.symmetry.canonicalized"] = static_cast<double>(s1.canonicalized_states);
    L["spec.symmetry.hits"] = static_cast<double>(s1.symmetry_hits);
    const SpanTotals root = span("bench.timed");
    L["bench.timed_s"] = one.wall_s;
    L["bench.trace_overhead"] = pass.wall_s / one.wall_s - 1.0;
    L["bench.trace_coverage"] = 1.0 - root.self_s / root.total_s;
  }
}
