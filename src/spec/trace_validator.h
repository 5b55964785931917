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
//  * BFS computes the full frontier of candidate spec states line by line —
//    complete but can explode with nondeterminism. The frontier lives in a
//    ShardedStateStore (dedup scoped per line by salting the fingerprint
//    with the line number) whose predecessor links reconstruct a full
//    witness behavior on success; expansion of each line is split across a
//    WorkerPool (ValidationOptions::threads, same semantics as
//    CheckLimits::threads — threads=1 is one inline worker, bit-identical
//    run to run).
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
// max_diagnostic_states in DFS), and per-line frontier sizes.
//
// All limits route through Budget (budget_caps()); there is no private
// deadline arithmetic in this engine.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/worker_pool.h"

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
    /// Candidate successors generated (the budget's work counter). DFS
    /// generates a frame's fault-closure successors only once its plain
    /// ones have all failed.
    uint64_t states_explored = 0;
    /// Mirror of stats.seconds (older callers).
    double seconds = 0.0;
    /// Candidate states alive at the deepest line reached (diagnostics).
    std::vector<S> frontier_at_failure;
    /// Description of the first line that could not be matched.
    std::string failed_line;
    /// For BFS: frontier size after each line (|T| growth).
    std::vector<size_t> frontier_sizes;
    /// The witness behavior found: one state per line plus the initial
    /// state (DFS: the search path; BFS: reconstructed via the store's
    /// predecessor links). Fault steps are folded into the line they
    /// precede.
    std::vector<S> witness;
    // Unified exploration-core statistics live in EngineReport::stats;
    // generated == states_explored, max_depth == lines_matched.
  };

  struct ValidationOptions : EngineOptions
  {
    SearchMode mode = SearchMode::Dfs;
    /// Maximum number of fault steps composed before each line.
    size_t max_faults_per_step = 0;
    uint64_t max_states = UINT64_MAX;
    // threads (inherited): BFS splits each line's frontier across the
    // fork-join pool; DFS always runs on one worker and ignores it. See
    // docs/SPEC.md "threads semantics".
    /// BFS only: retain predecessor chains only for the live frontier
    /// (ROADMAP "store-backed BFS memory"). The sharded store is cleared
    /// after every line — it then holds one line's frontier instead of
    /// every line's — and witness reconstruction walks refcounted per-item
    /// parent chains, which free dead branches as the frontier moves on.
    /// Verdict, frontier sizes, work counts, and the witness are unchanged;
    /// memory on long chaotic traces is bounded by the live frontier.
    bool prune_bfs_store = false;
    /// Cap on the candidate states kept for the deepest-line diagnostics
    /// (the DFS "unsatisfied breakpoint" view).
    size_t max_diagnostic_states = 8;

    /// The exploration-core budget: work counter = emitted candidates.
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
      fault_ = std::move(f);
    }

    /// Campaign mode: additionally admit every *newly visited* candidate
    /// state into `store` (shared with other engines, never cleared),
    /// keyed by the plain state fingerprint — unsalted, so a state the
    /// checker or simulator already found is deduplicated, not re-counted.
    /// Admissions are tagged `origin`; depth records the trace line. The
    /// validator's own search store/memo are unaffected. The store must
    /// be quiescent now and outlive the validator.
    void set_coverage_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Validator)
    {
      coverage_store_ = store;
      expander_.set_origin(static_cast<uint8_t>(origin));
    }

    ValidationResult<S> run()
    {
      budget_ = Budget(options_.budget_caps());
      result_ = {};
      expander_.set_fault(fault_, options_.max_faults_per_step);
      if (options_.mode == SearchMode::Bfs)
      {
        run_bfs();
      }
      else
      {
        run_dfs();
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
      result_.stats.complete =
        result_.ok || !budget_.exhausted(result_.states_explored);
      return result_;
    }

  private:
    using Store = ShardedStateStore<S>;
    using Id = typename Store::Id;

    /// Dedup/memoization key for a candidate state at a given trace
    /// position; the salt scopes each line's set separately.
    static uint64_t key(size_t line, uint64_t fp)
    {
      return hash_combine(static_cast<uint64_t>(line) + 1, fp);
    }

    /// Campaign coverage tap: admit a candidate the search just visited
    /// into the shared store (unsalted fingerprint — global dedup across
    /// lines and engines). Thread-safe per worker; no-op outside campaigns.
    void cover(const S& state, size_t line, unsigned worker = 0)
    {
      if (coverage_store_ != nullptr)
      {
        (void)expander_.admit(
          *coverage_store_,
          state,
          Store::no_parent,
          Store::init_action,
          static_cast<uint32_t>(line),
          worker);
      }
    }

    // ---- BFS: full-frontier search, parallel across each line ----

    /// Node of a refcounted predecessor chain, used when prune_bfs_store
    /// retires store records: each live frontier item keeps its own path
    /// back to an initial state, shared prefixes are shared, and a dead
    /// branch's suffix frees as soon as its last descendant leaves the
    /// frontier.
    struct PathNode
    {
      S state;
      std::shared_ptr<PathNode> parent;
    };

    /// Releases a parent chain iteratively, stopping at the first node
    /// someone else still references. A plain drop of the last reference
    /// to a deep chain would run ~depth nested destructors (each node
    /// holds the shared_ptr to its parent) and overflow the C stack on
    /// ~100k-line traces — the exact failure mode the iterative DFS was
    /// built to avoid.
    static void release_chain(std::shared_ptr<PathNode>&& node)
    {
      while (node != nullptr && node.use_count() == 1)
      {
        std::shared_ptr<PathNode> parent = std::move(node->parent);
        node.reset();
        node = std::move(parent);
      }
      node.reset();
    }

    /// A frontier entry carries its state: the store keeps none.
    struct Item
    {
      S state;
      Id id;
      /// Only populated under prune_bfs_store.
      std::shared_ptr<PathNode> chain;
    };

    /// One worker's slice of a line, cache-line aligned against false sharing.
    struct alignas(64) Local
    {
      std::vector<Item> next;
      uint64_t duplicates = 0;
    };

    void run_bfs()
    {
      const WorkerPool pool(options_.threads);
      Store store(
        pool.size() == 1 ? 1 : 4 * static_cast<size_t>(pool.size()),
        options_.store);
      const auto snapshot_store = [&] {
        result_.stats.store_bytes = store.store_bytes();
        result_.stats.spilled_bytes = store.spilled_bytes();
        result_.stats.rehash_count = store.rehash_count();
      };
      const auto over_memory_budget = [&] {
        return options_.store.memory_budget_bytes > 0 &&
          store.store_bytes() > options_.store.memory_budget_bytes;
      };

      std::vector<Item> frontier;
      for (const S& init : init_)
      {
        const auto ins = store.insert(
          key(0, expander_.fingerprint_of(init)),
          Store::no_parent,
          Store::init_action,
          0,
          expander_.origin());
        if (ins.inserted)
        {
          cover(init, 0);
          frontier.push_back(
            {init,
             ins.id,
             options_.prune_bfs_store ?
               std::make_shared<PathNode>(PathNode{init, nullptr}) :
               nullptr});
        }
      }

      // Under prune_bfs_store the store is cleared per line; this
      // accumulates the per-line counts so distinct_states still reports
      // the whole run.
      uint64_t pruned_distinct = 0;
      std::atomic<uint64_t> explored{0};

      for (size_t line = 0; line < lines_.size(); ++line)
      {
        std::atomic<size_t> cursor{0};
        std::atomic<bool> stop{false};
        std::vector<Local> locals(pool.size());

        pool.run([&](unsigned w) {
          expand_line_worker(
            w, store, frontier, line, cursor, stop, explored, locals[w]);
        });

        result_.states_explored = explored.load(std::memory_order_relaxed);
        std::vector<Item> next;
        for (Local& local : locals)
        {
          result_.stats.duplicate_states += local.duplicates;
          next.insert(
            next.end(),
            std::make_move_iterator(local.next.begin()),
            std::make_move_iterator(local.next.end()));
        }
        result_.frontier_sizes.push_back(next.size());

        if (
          next.empty() || budget_.exhausted(result_.states_explored) ||
          over_memory_budget())
        {
          result_.ok = false;
          result_.lines_matched = line;
          result_.frontier_at_failure.reserve(frontier.size());
          for (Item& item : frontier)
          {
            result_.frontier_at_failure.push_back(std::move(item.state));
          }
          result_.failed_line = lines_[line].description;
          result_.stats.distinct_states = pruned_distinct + store.size();
          snapshot_store();
          release_frontier_chains(frontier);
          release_frontier_chains(next);
          return;
        }
        if (options_.prune_bfs_store)
        {
          // The dead lines' records have served their dedup purpose;
          // retire them. Surviving paths live on in the items' chains.
          pruned_distinct += store.size();
          store.clear();
          release_frontier_chains(frontier);
        }
        else
        {
          // Line barrier (pool joined, store quiescent): frozen record
          // blocks may spill.
          store.maybe_spill();
        }
        frontier = std::move(next);
      }

      result_.ok = true;
      result_.lines_matched = lines_.size();
      if (!frontier.empty())
      {
        // The witness behavior: predecessor links from the first surviving
        // candidate back to its initial state (pool joined — record() is
        // safe again). Pruned runs walk the item's own chain instead of
        // the retired store records; both paths are first-inserter-wins,
        // so threads = 1 yields the identical witness either way.
        if (options_.prune_bfs_store)
        {
          std::vector<S> reversed;
          for (const PathNode* node = frontier.front().chain.get();
               node != nullptr;
               node = node->parent.get())
          {
            reversed.push_back(node->state);
          }
          result_.witness.assign(reversed.rbegin(), reversed.rend());
        }
        else
        {
          // Exact replay of the recorded line chain from the initial
          // states, through the same fault-composed expansion and the
          // same line-salted key the search admitted with.
          auto path = store.reconstruct_path(
            frontier.front().id,
            init_,
            [&](const S& s, uint32_t action, const Emit<S>& emit) {
              expander_.with_faults(s, [&](const S& pre) {
                lines_[action].expand(pre, emit);
              });
            },
            [&](const S& s, uint32_t line) {
              return key(line, expander_.fingerprint_of(s));
            });
          if (path.has_value())
          {
            result_.witness = std::move(*path);
          }
        }
      }
      result_.stats.distinct_states = pruned_distinct + store.size();
      snapshot_store();
      release_frontier_chains(frontier);
    }

    /// Drops every item's chain without recursing down shared suffixes.
    void release_frontier_chains(std::vector<Item>& items)
    {
      for (Item& item : items)
      {
        release_chain(std::move(item.chain));
      }
    }

    void expand_line_worker(
      unsigned w,
      Store& store,
      const std::vector<Item>& frontier,
      size_t line,
      std::atomic<size_t>& cursor,
      std::atomic<bool>& stop,
      std::atomic<uint64_t>& explored,
      Local& local)
    {
      for (;;)
      {
        if (stop.load(std::memory_order_acquire))
        {
          return;
        }
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size())
        {
          return;
        }
        const Item& item = frontier[i];
        expander_.with_faults(item.state, [&](const S& pre) {
          lines_[line].expand(pre, [&](S&& succ) {
            explored.fetch_add(1, std::memory_order_relaxed);
            const auto ins = store.insert(
              key(line + 1, expander_.fingerprint_of(succ, w)),
              item.id,
              static_cast<uint32_t>(line),
              static_cast<uint32_t>(line + 1),
              expander_.origin());
            if (ins.inserted)
            {
              cover(succ, line + 1, w);
              std::shared_ptr<PathNode> chain = options_.prune_bfs_store ?
                std::make_shared<PathNode>(PathNode{succ, item.chain}) :
                nullptr;
              local.next.push_back(
                {std::move(succ), ins.id, std::move(chain)});
            }
            else
            {
              local.duplicates++;
            }
          });
        });
        if (budget_.exhausted(explored.load(std::memory_order_relaxed)))
        {
          stop.store(true, std::memory_order_release);
          return;
        }
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
      // "unsatisfied" states (§6.3). deepest_* provide the diagnostics.
      dead_.clear();
      deepest_line_ = 0;
      deepest_frontier_.clear();

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
      result_.ok = false;
      result_.lines_matched = deepest_line_;
      result_.frontier_at_failure = std::move(deepest_frontier_);
      if (deepest_line_ < lines_.size())
      {
        result_.failed_line = lines_[deepest_line_].description;
      }
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
        // Matched end states count as visited coverage (BFS admits its
        // whole final frontier; keep the DFS tap consistent).
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
    std::function<void(const S&, const Emit<S>&)> fault_;

    Budget budget_;
    Expander<S> expander_;
    Store* coverage_store_ = nullptr;
    ValidationResult<S> result_;
    std::unordered_set<uint64_t> dead_;
    size_t deepest_line_ = 0;
    std::vector<S> deepest_frontier_;
  };
}
