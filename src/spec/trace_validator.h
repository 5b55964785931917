// Generic trace validation engine (§6), built on the exploration core.
//
// Checks T ∩ S ≠ ∅: given a sequence of per-trace-line expanders (each
// enumerating the spec transitions consistent with that line), search for
// at least one spec behavior that matches the whole trace. Faults that are
// not recorded in the trace (message drops) are handled by the Expander's
// fault composition before each step, mirroring the paper's
// IsFault · Next composition (Listing 5).
//
// Two search modes, reproducing §6.4:
//  * BFS model-checks the spec conjoined with the trace, as the paper does
//    with TLC: a state of the product spec is (line, spec state), its one
//    action takes the next line under the fault closure, and its one
//    invariant says some line is left. ModelChecker runs it — the same
//    BFS kernel, store, level arenas and worker pool as exhaustive
//    checking (ValidationOptions::threads means CheckLimits::threads) —
//    and a violation is a match, whose counterexample is the witness.
//    Complete, but it can explode with nondeterminism.
//  * DFS looks for a single witness behavior with memoized dead ends —
//    "orders of magnitude faster", which is what made trace validation
//    usable in CI. The search runs an explicit frame stack (no recursion),
//    so production traces of any length cannot overflow the C stack. It
//    always runs on one worker, like TLC's -dfid: a witness search needs
//    one path, so speculative sibling subtrees on other workers are wasted
//    work. ValidationOptions::threads does not affect it. Each frame
//    generates its successors in two stages: first the line on the
//    entered state alone, and only once all of those failed, the line on
//    every state of its fault closure. The visiting order is that of the
//    eager IsFault · Next composition, so the search and its witness are
//    unchanged; the closure of a frame whose first successor leads on is
//    never built.
//
// On failure there is no counterexample (§6.3) — instead the result carries
// the paper's diagnostics: the deepest line matched, the candidate states
// at that line (the "unsatisfied breakpoint" view, capped by
// max_diagnostic_states in both modes), and, for BFS, per-line frontier
// sizes.
//
// All limits route through Budget (budget_caps(), or the checker's
// CheckLimits under BFS); there is no private deadline arithmetic in this
// engine.
#pragma once

#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/model_checker.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"

namespace scv::spec
{
  /// Expander for one trace line: from a candidate spec state, emit every
  /// spec successor consistent with the line.
  template <SpecState S>
  struct TraceLineExpander
  {
    std::string description; // e.g. "sndAE node=1 peer=2"
    std::function<void(const S&, const Emit<S>&)> expand;
  };

  /// A state of the trace product spec (TraceValidator::product_spec()):
  /// the number of trace lines matched so far and the spec state reached.
  template <SpecState S>
  struct TraceState
  {
    uint32_t line = 0;
    S state;

    bool operator==(const TraceState&) const = default;

    void serialize(ByteSink& sink) const
    {
      sink.u32(line);
      state.serialize(sink);
    }

    [[nodiscard]] std::string to_string() const
    {
      return "line " + std::to_string(line) + ": " + state.to_string();
    }
  };

  enum class SearchMode
  {
    Bfs,
    Dfs,
  };

  template <SpecState S>
  struct ValidationResult : EngineReport
  {
    ValidationResult()
    {
      // A validation run is a search for a witness: it has not succeeded
      // until one is found.
      ok = false;
      engine = EngineId::Validator;
    }

    /// Number of trace lines successfully matched (== lines.size() iff ok).
    size_t lines_matched = 0;
    /// Candidate successors generated (BFS: the checker's transitions).
    /// DFS generates a frame's fault-closure successors only once its
    /// plain ones have all failed.
    uint64_t states_explored = 0;
    /// Mirror of stats.seconds (older callers).
    double seconds = 0.0;
    /// Candidate states at the deepest line reached (diagnostics), capped
    /// at ValidationOptions::max_diagnostic_states.
    std::vector<S> frontier_at_failure;
    /// Description of the first line that could not be matched.
    std::string failed_line;
    /// For BFS: states admitted after each line (|T| growth). The search
    /// stops at the first state past the last line, so on a match the
    /// last entry counts only what was admitted before the stop.
    std::vector<size_t> frontier_sizes;
    /// The witness behavior found: one state per line plus the initial
    /// state (DFS: the search path; BFS: the checker's counterexample,
    /// rebuilt by exact replay). Fault steps are folded into the line
    /// they precede.
    std::vector<S> witness;
    // Unified exploration-core statistics live in EngineReport::stats;
    // generated == states_explored, max_depth == lines_matched.
  };

  struct ValidationOptions : EngineOptions
  {
    SearchMode mode = SearchMode::Dfs;
    /// Maximum number of fault steps composed before each line.
    size_t max_faults_per_step = 0;
    /// Work cap. DFS: generated candidates. BFS: distinct (line, state)
    /// pairs, the checker's max_distinct_states.
    uint64_t max_states = UINT64_MAX;
    // threads (inherited): BFS runs the checker with that many workers;
    // DFS always runs on one worker and ignores it. See docs/SPEC.md
    // "threads semantics".
    /// Cap on the candidate states kept for the deepest-line diagnostics
    /// (the "unsatisfied breakpoint" view), in both modes.
    size_t max_diagnostic_states = 8;

    /// The DFS budget: work counter = generated candidates.
    [[nodiscard]] Budget::Caps budget_caps() const
    {
      return make_caps(max_states, UINT64_MAX);
    }
  };

  template <SpecState S>
  class TraceValidator
  {
  public:
    TraceValidator(
      std::vector<S> init,
      std::vector<TraceLineExpander<S>> lines,
      ValidationOptions options = {}) :
      init_(std::move(init)),
      lines_(std::move(lines)),
      options_(options)
    {}

    /// Optional fault expander (e.g. "drop any one in-flight message"),
    /// composed 0..max_faults_per_step times before each line. The
    /// Expander deduplicates the fault closure by fingerprint.
    void set_fault_expander(std::function<void(const S&, const Emit<S>&)> f)
    {
      expander_.set_fault(std::move(f), options_.max_faults_per_step);
    }

    /// Campaign mode: additionally admit every candidate state the search
    /// visits into `store` (shared with other engines, never cleared),
    /// keyed by the plain state fingerprint — so a state the checker,
    /// the simulator or an earlier line already found is deduplicated,
    /// not re-counted. Admissions are tagged `origin`; depth records the
    /// trace line. The validator's own search store/memo are unaffected.
    /// The store must be quiescent now and outlive the validator.
    void set_coverage_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Validator)
    {
      coverage_store_ = store;
      expander_.set_origin(static_cast<uint8_t>(origin));
    }

    /// The spec conjoined with the trace (§4, §6): the initial states at
    /// line 0, one action that takes line `s.line` on the fault closure of
    /// `s.state` and emits {line + 1, successor}, and one invariant,
    /// line < lines.size(), whose violation is a matched trace. The
    /// action also feeds the deepest-line diagnostics and the campaign
    /// coverage store. The spec refers to this validator, which must
    /// outlive it.
    [[nodiscard]] SpecDef<TraceState<S>> product_spec()
    {
      using P = TraceState<S>;
      SpecDef<P> def;
      def.name = "trace";
      for (const S& init : init_)
      {
        def.init.push_back({0, init});
      }
      def.actions.push_back(
        {"line", [this](const P& s, const Emit<P>& emit) {
           if (s.line >= lines_.size())
           {
             return;
           }
           note_candidate(s.state, s.line);
           expander_.with_faults(s.state, [&](const S& pre) {
             lines_[s.line].expand(pre, [&](S&& succ) {
               cover(succ, s.line + 1);
               emit(P{s.line + 1, std::move(succ)});
             });
           });
         }});
      def.invariants.push_back(
        {"TraceNotMatched",
         [n = lines_.size()](const P& s) { return s.line < n; }});
      return def;
    }

    ValidationResult<S> run()
    {
      budget_ = Budget(options_.budget_caps());
      result_ = {};
      deepest_line_ = 0;
      deepest_frontier_.clear();
      if (options_.mode == SearchMode::Bfs)
      {
        check_product();
      }
      else
      {
        run_dfs();
        result_.stats.complete =
          result_.ok || !budget_.exhausted(result_.states_explored);
      }
      result_.seconds = budget_.elapsed();
      result_.stats.seconds = result_.seconds;
      if (budget_.caps().time_budget_seconds < 1e17)
      {
        result_.stats.budget_seconds = budget_.caps().time_budget_seconds;
      }
      result_.stats.generated_states = result_.states_explored;
      result_.stats.max_depth = result_.lines_matched;
      result_.stats.fp_collision_probability = fp_collision_probability(
        result_.stats.distinct_states, result_.stats.duplicate_states);
      return result_;
    }

  private:
    using Store = ShardedStateStore<S>;

    /// Memoization key for a candidate state at a given trace position;
    /// the salt scopes each line's set separately.
    static uint64_t key(size_t line, uint64_t fp)
    {
      return hash_combine(static_cast<uint64_t>(line) + 1, fp);
    }

    /// Campaign coverage tap: admit a candidate the search just visited
    /// into the shared store (unsalted fingerprint — global dedup across
    /// lines and engines). Thread-safe; no-op outside campaigns.
    void cover(const S& state, size_t line)
    {
      if (coverage_store_ != nullptr)
      {
        (void)expander_.admit(
          *coverage_store_,
          state,
          Store::no_parent,
          Store::init_action,
          static_cast<uint32_t>(line));
      }
    }

    /// Deepest-line diagnostics for both searches: keeps the first
    /// max_diagnostic_states candidates asked to expand at the deepest
    /// line so far. BFS workers call it concurrently.
    void note_candidate(const S& state, size_t line)
    {
      const std::lock_guard<std::mutex> lock(diagnostics_mu_);
      if (line > deepest_line_)
      {
        deepest_line_ = line;
        deepest_frontier_.clear();
      }
      if (
        line == deepest_line_ &&
        deepest_frontier_.size() < options_.max_diagnostic_states)
      {
        deepest_frontier_.push_back(state);
      }
    }

    /// A failed search reports the deepest line it was asked to expand.
    void fail_at_deepest_line()
    {
      result_.ok = false;
      result_.lines_matched = deepest_line_;
      result_.frontier_at_failure = std::move(deepest_frontier_);
      if (deepest_line_ < lines_.size())
      {
        result_.failed_line = lines_[deepest_line_].description;
      }
    }

    // ---- BFS: model check of the trace product spec ----

    void check_product()
    {
      for (const S& init : init_)
      {
        cover(init, 0);
      }
      const SpecDef<TraceState<S>> product = product_spec();
      CheckLimits limits;
      limits.time_budget_seconds = options_.time_budget_seconds;
      limits.threads = options_.threads;
      limits.store = options_.store;
      limits.max_distinct_states = options_.max_states;
      CheckResult<TraceState<S>> checked = model_check(product, limits);

      result_.stats = std::move(checked.stats);
      result_.states_explored = result_.stats.transitions;
      const auto& levels = result_.stats.level_sizes;
      if (!levels.empty())
      {
        result_.frontier_sizes.assign(levels.begin() + 1, levels.end());
      }
      if (!checked.counterexample.has_value())
      {
        fail_at_deepest_line();
        return;
      }
      result_.ok = true;
      result_.stats.complete = true;
      result_.lines_matched = lines_.size();
      result_.witness.reserve(checked.counterexample->steps.size());
      for (auto& step : checked.counterexample->steps)
      {
        result_.witness.push_back(std::move(step.state.state));
      }
    }

    // ---- DFS: single-witness search on an explicit frame stack ----

    struct Frame
    {
      /// The state entered at `line`: an element of init_ for frame 0,
      /// else the parent frame's taken successor. Neither moves while this
      /// frame is live (a parent refills its successors only after every
      /// child frame has popped; moving a Frame keeps its vector's buffer).
      const S* state = nullptr;
      size_t line = 0;
      uint64_t fp = 0;
      std::vector<S> successors;
      size_t next = 0;
      /// Stage 1 ran: successors hold the line's successors from the
      /// fault closure of *state (stage 0 held those of *state itself).
      bool faulted = false;
    };

    enum class Enter
    {
      Matched, // line == lines.size(): the whole trace is matched
      Fail, // budget, or memoized dead end
      Entered, // frame pushed; successors expanded
    };

    void run_dfs()
    {
      // Memoize (line, state-fingerprint) pairs known to fail — the
      // "unsatisfied" states (§6.3).
      dead_.clear();

      // Frames are reused across descents and initial states, so their
      // successor vectors keep their capacity.
      std::vector<Frame> frames;
      for (const S& init : init_)
      {
        if (const auto depth = dfs_from(init, frames))
        {
          result_.ok = true;
          result_.lines_matched = lines_.size();
          // The witness is the initial state plus the successor each
          // frame on the matched path took.
          result_.witness.reserve(*depth + 1);
          result_.witness.push_back(init);
          for (size_t i = 0; i < *depth; ++i)
          {
            result_.witness.push_back(
              std::move(frames[i].successors[frames[i].next - 1]));
          }
          return;
        }
        if (budget_.exhausted(result_.states_explored))
        {
          break;
        }
      }
      fail_at_deepest_line();
    }

    /// Iterative depth-first search from one initial state on the frame
    /// stack frames[0, depth): frames[i] expanded the state entered at
    /// line i, and its last taken successor (successors[next - 1]) is the
    /// state entered at line i + 1. Returns the stack depth at which the
    /// whole trace matched — the witness is then init followed by each
    /// frame's last taken successor — or nullopt.
    std::optional<size_t> dfs_from(const S& init, std::vector<Frame>& frames)
    {
      if (frames.empty())
      {
        frames.emplace_back();
      }
      switch (enter(init, 0, frames[0]))
      {
        case Enter::Matched:
          return 0;
        case Enter::Fail:
          return std::nullopt;
        case Enter::Entered:
          break;
      }
      size_t depth = 1;
      while (depth > 0)
      {
        if (depth == frames.size())
        {
          // Grow before taking references into the stack.
          frames.emplace_back();
        }
        Frame& top = frames[depth - 1];
        if (top.next == top.successors.size())
        {
          if (!top.faulted && expand_fault_closure(top))
          {
            continue;
          }
          // Post-order: every successor failed. Memoize the dead end and
          // backtrack; the frame keeps its capacity but not its states.
          dead_.insert(key(top.line, top.fp));
          top.successors.clear();
          --depth;
          continue;
        }
        const S& succ = top.successors[top.next++];
        switch (enter(succ, top.line + 1, frames[depth]))
        {
          case Enter::Matched:
            return depth;
          case Enter::Fail:
            break;
          case Enter::Entered:
            ++depth;
            break;
        }
      }
      return std::nullopt;
    }

    /// The per-node prologue of the search: match/budget/dead checks,
    /// deepest-line diagnostics, and stage 0 of the successor expansion
    /// (the line on `state` itself). `state` must outlive the frame.
    Enter enter(const S& state, size_t line, Frame& out)
    {
      if (line == lines_.size())
      {
        // Matched end states count as visited coverage (BFS covers every
        // successor it emits; keep the DFS tap consistent).
        cover(state, line);
        return Enter::Matched;
      }
      if (budget_.exhausted(result_.states_explored))
      {
        return Enter::Fail;
      }
      const uint64_t fp = expander_.fingerprint_of(state);
      if (dead_.contains(key(line, fp)))
      {
        result_.stats.duplicate_states++;
        result_.stats.memo_hits++;
        return Enter::Fail;
      }
      note_candidate(state, line);
      result_.stats.distinct_states++;
      cover(state, line);
      out.state = &state;
      out.line = line;
      out.fp = fp;
      out.successors.clear();
      out.next = 0;
      out.faulted = false;
      expand_line(state, out);
      return Enter::Entered;
    }

    /// Stage 1, once every stage-0 successor of `f` failed: replaces them
    /// with the line's successors from each state of the fault closure of
    /// *f.state, in the closure's order — the tail the eager composition
    /// would have emitted after them. Returns whether there are any.
    bool expand_fault_closure(Frame& f)
    {
      f.faulted = true;
      f.successors.clear();
      f.next = 0;
      // Past the budget every successor fails on entry except one that
      // completes the trace, so only a last-line frame still needs its
      // closure.
      if (
        budget_.exhausted(result_.states_explored) &&
        f.line + 1 < lines_.size())
      {
        return false;
      }
      expander_.fault_closure(
        *f.state, [&](const S& pre) { expand_line(pre, f); });
      return !f.successors.empty();
    }

    /// Appends the successors of `pre` under f's line to f.successors.
    void expand_line(const S& pre, Frame& f)
    {
      lines_[f.line].expand(pre, [&](S&& succ) {
        result_.states_explored++;
        f.successors.push_back(std::move(succ));
      });
    }

    std::vector<S> init_;
    std::vector<TraceLineExpander<S>> lines_;
    ValidationOptions options_;

    Budget budget_;
    Expander<S> expander_;
    Store* coverage_store_ = nullptr;
    ValidationResult<S> result_;
    std::unordered_set<uint64_t> dead_;
    /// Deepest-line diagnostics (note_candidate()), guarded by the mutex.
    std::mutex diagnostics_mu_;
    size_t deepest_line_ = 0;
    std::vector<S> deepest_frontier_;
  };
}
