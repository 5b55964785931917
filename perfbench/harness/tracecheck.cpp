// tracecheck: trace validation of a fixed corpus of nemesis runs.
//
// Set-up generates fault schedules (crash/restart, partitions,
// loss/duplication, snapshots, reconfiguration) from a fixed nemesis seed
// and executes each through the scenario runner, keeping the first
// kCorpus implementation traces whose scripts ran. The corpus is fixed
// because the cost of validating a trace varies by orders of magnitude
// between traces: a corpus drawn per seed would make traces/min measure
// the draw. The benchmark seed sets the order the traces are validated
// in.
//
// The timed phase validates every trace against the consensus spec, the
// way the nemesis does: DFS with fault composition (drop/duplicate before
// each line) and a fixed per-trace state cap, once at one worker and once
// at N workers. A trace ends validated, or capped (no verdict). A
// rejection, or a validated trace that another pass rejects, is a
// failure; the work-stealing search explores more states than the
// sequential one, so a trace validated at one worker may hit the cap at
// N workers, which is counted, not failed.
//
// The traced run validates through the same public parts
// validate_consensus_trace is made of (preprocess, bind, TraceValidator
// with a drop/duplicate fault expander), wrapped in spans, and must reach
// the same verdicts.
#include <optional>

#include "driver/nemesis.h"
#include "spec/trace_validator.h"
#include "stats.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"
#include "tracer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using namespace scv;
    using specs::ccfraft::State;

    constexpr uint64_t kNemesisSeed = 2026;
    constexpr size_t kMinOps = 6;
    constexpr size_t kMaxOps = 12;
    constexpr size_t kCorpus = 40;
    constexpr uint64_t kStateCap = 20000;

    struct Ids
    {
      int timed = tracer::id("bench.timed");
      int execute = tracer::id("driver.nemesis.execute");
      int preprocess = tracer::id("trace.preprocess");
      int bind = tracer::id("trace.bind");
      int run = tracer::id("spec.validator.run");
      int line_expand = tracer::id("trace.line_expand");
      int fault = tracer::id("spec.fault_closure");
      int emit = tracer::id("spec.engine.emit");
    };

    struct Trace
    {
      std::vector<trace::TraceEvent> raw;
      specs::ccfraft::Params params;
    };

    enum class Verdict
    {
      Validated,
      Capped,
      Rejected,
    };

    const char* to_string(Verdict v)
    {
      switch (v)
      {
        case Verdict::Validated:
          return "validated";
        case Verdict::Capped:
          return "capped";
        case Verdict::Rejected:
          return "rejected";
      }
      return "?";
    }

    struct Outcome
    {
      Verdict verdict = Verdict::Rejected;
      uint64_t states = 0;
      uint64_t memo_hits = 0;
      uint64_t steals = 0;
    };

    template <class Result>
    Outcome outcome_of(const Result& r)
    {
      Outcome o;
      o.verdict = r.ok ? Verdict::Validated :
        r.stats.complete ? Verdict::Rejected :
                           Verdict::Capped;
      o.states = r.states_explored;
      o.memo_hits = r.stats.memo_hits;
      o.steals = r.stats.steals;
      return o;
    }

    /// Executes the corpus' schedules; schedules that end in a script
    /// error are skipped so the corpus holds kCorpus traces. Adds the
    /// time spent executing schedules to `execute_s`.
    std::vector<Trace> build_corpus(
      uint64_t seed, const Ids& ids, Report& report, double& execute_s)
    {
      driver::nemesis::NemesisOptions nopts;
      nopts.seed = kNemesisSeed;
      nopts.min_ops = kMinOps;
      nopts.max_ops = kMaxOps;
      const driver::nemesis::Nemesis nemesis(nopts);
      std::vector<Trace> corpus;
      for (uint64_t run = 0; corpus.size() < kCorpus && run < 4 * kCorpus; ++run)
      {
        const auto schedule = nemesis.generate(run);
        driver::nemesis::RunOutcome out;
        const auto start = Clock::now();
        {
          const Span span(ids.execute);
          out = nemesis.execute(schedule);
        }
        execute_s += seconds_since(start);
        if (out.violation)
        {
          report.check(false, "nemesis run " + std::to_string(run) + ": " + out.error);
        }
        if (out.script_error || out.violation)
        {
          continue;
        }
        std::vector<uint64_t> config(
          schedule.initial_config.begin(), schedule.initial_config.end());
        corpus.push_back(
          {std::move(out.trace),
           trace::validation_params(
             config,
             schedule.initial_leader,
             static_cast<uint8_t>(schedule.max_node),
             nopts.node_template.bugs)});
      }
      report.check(corpus.size() == kCorpus, "corpus has fewer than " + std::to_string(kCorpus) + " traces");
      Rng rng(seed);
      for (size_t i = corpus.size(); i > 1; --i)
      {
        std::swap(corpus[i - 1], corpus[rng.below(i)]);
      }
      return corpus;
    }

    /// What the nemesis runs: validate_consensus_trace.
    Outcome validate(const Trace& t, unsigned threads)
    {
      trace::ConsensusValidationOptions vopts;
      vopts.fault_composition = true;
      vopts.search.mode = spec::SearchMode::Dfs;
      vopts.search.threads = threads;
      vopts.search.max_states = kStateCap;
      return outcome_of(trace::validate_consensus_trace(t.raw, t.params, vopts));
    }

    /// The same validation composed from its public parts, with spans.
    Outcome validate_traced(const Trace& t, const Ids& ids)
    {
      using spec::Emit;
      std::vector<trace::TraceEvent> events;
      {
        const Span span(ids.preprocess);
        events = trace::preprocess(t.raw);
      }
      std::vector<spec::TraceLineExpander<State>> lines;
      {
        const Span span(ids.bind);
        lines = trace::bind_consensus_trace(events, t.params);
      }
      for (auto& line : lines)
      {
        line.expand = [inner = line.expand, &ids](
                        const State& s, const Emit<State>& emit) {
          const Span span(ids.line_expand);
          inner(s, emit);
        };
      }
      spec::ValidationOptions search;
      search.mode = spec::SearchMode::Dfs;
      search.threads = 1;
      search.max_states = kStateCap;
      search.max_faults_per_step = 1;
      spec::TraceValidator<State> validator(
        {specs::ccfraft::initial_state(t.params)}, std::move(lines), search);
      validator.set_fault_expander(
        [p = t.params, &ids](const State& s, const Emit<State>& emit) {
          const Span span(ids.fault);
          const Emit<State> traced_emit = [&](const State& f) {
            const Span e(ids.emit);
            emit(f);
          };
          for (const auto& [msg, count] : s.network)
          {
            specs::ccfraft::actions::drop_message(s, msg, traced_emit);
            specs::ccfraft::actions::duplicate_message(p, s, msg, traced_emit);
          }
        });
      const Span span(ids.run);
      return outcome_of(validator.run());
    }

    struct Pass
    {
      std::vector<Outcome> outcomes;
      std::vector<double> seconds;
      double wall_s = 0.0;
      double cpu_s = 0.0;
    };

    /// Validates the corpus with `one`; `pin` runs the pass pinned to
    /// that allowed CPU (one-worker passes).
    template <class F>
    Pass run_pass(
      const std::vector<Trace>& corpus, const Ids& ids, F&& one, std::optional<unsigned> pin = {})
    {
      std::optional<PinnedCpu> pinned;
      if (pin)
      {
        pinned.emplace(*pin);
      }
      Pass pass;
      const double cpu0 = cpu_seconds();
      const auto start = Clock::now();
      {
        const Span timed(ids.timed);
        for (const Trace& t : corpus)
        {
          const auto trace_start = Clock::now();
          pass.outcomes.push_back(one(t));
          pass.seconds.push_back(seconds_since(trace_start));
        }
      }
      pass.wall_s = seconds_since(start);
      pass.cpu_s = cpu_seconds() - cpu0;
      return pass;
    }

    /// Verdict checks: nothing rejected, and a trace validated at one
    /// worker is not rejected by `other`; `exact` also demands equal
    /// verdicts and state counts (same search, same order).
    void compare(
      const Pass& reference,
      const Pass& other,
      const std::string& label,
      bool exact,
      Report& report)
    {
      for (size_t i = 0; i < other.outcomes.size(); ++i)
      {
        const Outcome& a = reference.outcomes[i];
        const Outcome& b = other.outcomes[i];
        report.attempted += 1;
        const bool ok = a.verdict != Verdict::Rejected &&
          b.verdict != Verdict::Rejected &&
          (!exact || (a.verdict == b.verdict && a.states == b.states));
        if (!ok)
        {
          report.failed += 1;
          report.check(
            false,
            label + " trace " + std::to_string(i) + ": " + to_string(b.verdict) +
              " (t1: " + to_string(a.verdict) + ")");
        }
      }
    }
  }

  void run_tracecheck(const Options& options, Report& report)
  {
    const Ids ids;
    // Set-up: executing the corpus' schedules, once per round.
    auto& setup = report.figure("setup_s", "s").samples;
    std::vector<Trace> corpus;
    double execute_s = 0.0;
    const auto time_setup = [&] {
      const PinnedCpu pin(static_cast<unsigned>(setup.size()));
      const auto start = Clock::now();
      corpus = build_corpus(options.seed, ids, report, execute_s);
      setup.push_back(seconds_since(start));
    };
    const std::string tn = "t" + std::to_string(options.workers);
    const auto one = [](const Trace& t) { return validate(t, 1); };
    const auto many = [&](const Trace& t) { return validate(t, options.workers); };

    if (!options.trace)
    {
      Figure& t1 = report.figure("tv_traces_per_min_t1", "1/min");
      Figure& tN = report.figure("tv_traces_per_min_tN", "1/min");
      auto& capped_tN = report.figure("tv_capped_tN", "count").samples;
      PooledRate rate1;
      PooledRate rateN;
      std::optional<Pass> reference;
      const auto start = Clock::now();
      for (unsigned round = 0; t1.samples.empty() || seconds_since(start) < options.seconds; ++round)
      {
        time_setup();
        const Pass p1 = run_pass(corpus, ids, one, round);
        compare(reference ? *reference : p1, p1, "t1", true, report);
        if (!reference)
        {
          reference = p1;
        }
        const auto traces = static_cast<double>(corpus.size());
        t1.samples.push_back(60.0 * traces / p1.wall_s);
        rate1.add(traces, p1.wall_s);
        const Pass pN = run_pass(corpus, ids, many);
        compare(*reference, pN, tn, false, report);
        tN.samples.push_back(60.0 * traces / pN.wall_s);
        rateN.add(traces, pN.wall_s);
        t1.measurements += corpus.size();
        tN.measurements += corpus.size();
        double capped = 0;
        for (const Outcome& o : pN.outcomes)
        {
          capped += o.verdict == Verdict::Capped ? 1 : 0;
        }
        capped_tN.push_back(capped);
      }
      size_t validated = 0;
      for (const Outcome& o : reference->outcomes)
      {
        validated += o.verdict == Verdict::Validated ? 1 : 0;
      }
      report.figure("tv_validated_t1", "count").samples.push_back(static_cast<double>(validated));
      report.e2e["throughput_t1"] = rate1.value();
      report.e2e["throughput_tN"] = rateN.value();
      return;
    }

    // Traced run: untraced passes at one and N workers, then the traced
    // composition at one worker.
    time_setup();
    const Pass p1 = run_pass(corpus, ids, one, 0u);
    compare(p1, p1, "t1", true, report);
    const Pass pN = run_pass(corpus, ids, many);
    compare(p1, pN, tn, false, report);
    tracer::reset();
    tracer::set_enabled(true);
    const Pass traced = run_pass(
      corpus, ids, [&](const Trace& t) { return validate_traced(t, ids); }, 0u);
    tracer::set_enabled(false);
    compare(p1, traced, "traced", true, report);

    const auto spans = tracer::snapshot();
    const auto span = [&](const std::string& name) { return tracer::find(spans, name); };
    auto& L = report.layer;
    L["trace.preprocess.s"] = span("trace.preprocess").self_s;
    L["trace.bind.s"] = span("trace.bind").self_s;
    L["trace.line_expand.calls"] = static_cast<double>(span("trace.line_expand").calls);
    L["trace.line_expand.self_s"] = span("trace.line_expand").self_s;
    L["spec.fault_closure.calls"] = static_cast<double>(span("spec.fault_closure").calls);
    L["spec.fault_closure.s"] = span("spec.fault_closure").self_s;
    L["spec.engine.emit_s"] = span("spec.engine.emit").self_s;
    L["spec.engine.self_s"] = span("spec.validator.run").self_s;
    L["spec.engine.cpu_s"] = pN.cpu_s;
    L["spec.engine.cpu_util"] = pN.cpu_s / (pN.wall_s * options.workers);
    uint64_t states = 0;
    uint64_t memo = 0;
    uint64_t steals = 0;
    uint64_t capped = 0;
    uint64_t capped_tN = 0;
    for (size_t i = 0; i < corpus.size(); ++i)
    {
      states += p1.outcomes[i].states;
      memo += p1.outcomes[i].memo_hits;
      steals += pN.outcomes[i].steals;
      capped += p1.outcomes[i].verdict == Verdict::Capped ? 1 : 0;
      capped_tN += pN.outcomes[i].verdict == Verdict::Capped ? 1 : 0;
    }
    L["spec.validator.states"] = static_cast<double>(states);
    L["spec.validator.memo_hits"] = static_cast<double>(memo);
    L["spec.validator.steals"] = static_cast<double>(steals);
    L["spec.validator.capped"] = static_cast<double>(capped);
    L["spec.validator.capped_tN"] = static_cast<double>(capped_tN);
    L["driver.nemesis.execute.s"] = execute_s;
    const SpanTotals root = span("bench.timed");
    L["bench.timed_s"] = p1.wall_s;
    L["bench.trace_overhead"] = traced.wall_s / p1.wall_s - 1.0;
    L["bench.trace_coverage"] = 1.0 - root.self_s / root.total_s;

    std::printf("%-6s %-10s %10s %10s\n", "trace", "t1", "states", "t1_s");
    for (size_t i = 0; i < corpus.size(); ++i)
    {
      std::printf(
        "%-6zu %-10s %10llu %10.4f\n",
        i,
        to_string(p1.outcomes[i].verdict),
        static_cast<unsigned long long>(p1.outcomes[i].states),
        p1.seconds[i]);
    }
  }
}
