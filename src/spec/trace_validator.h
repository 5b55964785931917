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
//    so production traces of any length cannot overflow the C stack. At
//    threads > 1 the same search runs work-stealing: workers own deques of
//    unexplored subtrees (work_stealing_pool.h), the (line, fingerprint)
//    dead-end memo is a shared lock-striped StripedKeySet so one worker's
//    proven-dead subtree prunes everyone, and the first witness wins via
//    the Budget cooperative-stop flag. threads = 1 takes the sequential
//    code path unchanged — bit-identical verdicts, witness, and
//    diagnostics.
//
// On failure there is no counterexample (§6.3) — instead the result carries
// the paper's diagnostics: the deepest line matched, the candidate states
// at that line (the "unsatisfied breakpoint" view, capped by
// max_diagnostic_states in DFS), and per-line frontier sizes.
//
// All limits route through Budget (budget_caps()); there is no private
// deadline arithmetic in this engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/work_stealing_pool.h"
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
    // fork-join pool; DFS at threads > 1 runs a work-stealing search over
    // independent subtrees with a shared dead-end memo (first witness
    // wins — same verdict, possibly a different witness among equals).
    // See docs/SPEC.md "threads semantics".
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
      coverage_store_->reserve_arenas(resolve_worker_count(options_.threads));
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
      else if (resolve_worker_count(options_.threads) == 1)
      {
        run_dfs();
      }
      else
      {
        run_dfs_parallel();
      }
      result_.seconds = budget_.elapsed();
      result_.stats.seconds = result_.seconds;
      if (budget_.caps().time_budget_seconds < 1e17)
      {
        result_.stats.budget_seconds = budget_.caps().time_budget_seconds;
      }
      result_.stats.generated_states = result_.states_explored;
      result_.stats.max_depth = result_.lines_matched;
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
        const auto ins = expander_.admit(
          *coverage_store_,
          state,
          Store::no_parent,
          Store::init_action,
          static_cast<uint32_t>(line),
          worker);
        // Coverage admissions are pure membership: nothing ever walks
        // their (parentless) chains, so a fingerprint-only store can
        // retire the body immediately.
        if (ins.inserted && coverage_store_->fingerprint_only())
        {
          coverage_store_->drop_body(ins.id);
        }
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
    template <class Node>
    static void release_chain(std::shared_ptr<Node>&& node)
    {
      while (node != nullptr && node.use_count() == 1)
      {
        std::shared_ptr<Node> parent = std::move(node->parent);
        node.reset();
        node = std::move(parent);
      }
      node.reset();
    }

    /// A frontier entry carries a copy of the state so workers never read
    /// store records while siblings insert (the store's record() contract).
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
      store.reserve_arenas(pool.size());
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
        const auto ins = expander_.admit_keyed(
          store,
          init,
          key(0, expander_.fingerprint_of(init)),
          Store::no_parent,
          Store::init_action,
          0);
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
        else if (store.fingerprint_only())
        {
          // Line barrier (pool joined, store quiescent): the expanded
          // line's states leave the frontier; frozen arena blocks may
          // spill. The new frontier's bodies stay live — the witness
          // replay disambiguates against the final frontier.
          for (const Item& item : frontier)
          {
            store.drop_body(item.id);
          }
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
          // Full mode reads the chain's bodies directly (bit-identical
          // to the historical walk); a fingerprint-only store replays
          // the recorded line chain from the initial states through the
          // same fault-composed expansion, disambiguated by the
          // surviving candidate itself (its body never left the
          // frontier).
          auto path = store.reconstruct_path(
            frontier.front().id,
            init_,
            [&](
              const S& s, uint32_t action, uint32_t, const Emit<S>& emit) {
              expander_.with_faults(s, [&](const S& pre) {
                lines_[action].expand(pre, emit);
              });
            },
            &frontier.front().state);
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
            const auto ins = expander_.admit_keyed(
              store,
              succ,
              key(line + 1, expander_.fingerprint_of(succ, w)),
              item.id,
              static_cast<uint32_t>(line),
              static_cast<uint32_t>(line + 1),
              w);
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
      size_t line = 0;
      uint64_t fp = 0;
      std::vector<S> successors;
      size_t next = 0;
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
    /// deepest-line diagnostics, successor expansion.
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
      out.line = line;
      out.fp = fp;
      out.successors.clear();
      out.next = 0;
      expander_.with_faults(state, [&](const S& pre) {
        lines_[line].expand(pre, [&](S&& succ) {
          result_.states_explored++;
          out.successors.push_back(std::move(succ));
        });
      });
      return Enter::Entered;
    }

    // ---- DFS, threads > 1: work-stealing search over independent
    // subtrees. Each worker's deque bottom is its DFS stack; idle workers
    // steal the shallowest (largest) subtree from a victim's top. The
    // dead-end memo is the shared StripedKeySet, so a subtree proven dead
    // by one worker prunes every other worker's search, and the first
    // witness wins through the Budget cooperative-stop flag. ----

    /// A node of the parallel search tree: the state reached after
    /// matching `line` lines, linked to the path that got there. Tasks
    /// are the unit of stealing; the parent chain doubles as the witness
    /// path and as the completion tree for dead-end detection.
    struct Task
    {
      S state;
      size_t line = 0;
      std::shared_ptr<Task> parent;
      /// Set by the expanding worker before any child is published; the
      /// deque mutex orders it for whichever worker later resolves the
      /// subtree.
      uint64_t fp = 0;
      /// Children whose subtrees are still unresolved. The worker that
      /// fails the last one proves this node dead, memoizes it, and
      /// propagates upward — the parallel analogue of the sequential
      /// post-order memoization.
      std::atomic<size_t> pending{0};
    };
    using TaskPtr = std::shared_ptr<Task>;

    struct DfsShared
    {
      WorkStealingDeques<TaskPtr> deques;
      StripedKeySet dead;
      std::atomic<uint64_t> explored{0};
      /// Root subtrees (one per initial state) not yet failed; at zero
      /// the whole search space is exhausted.
      std::atomic<size_t> roots_pending;
      std::atomic<bool> done;
      /// First-witness-wins cooperative stop (wired into the Budget).
      std::atomic<bool> stop{false};
      std::atomic<bool> witness_claimed{false};

      DfsShared(unsigned workers, size_t stripes, size_t roots) :
        deques(workers),
        dead(stripes),
        roots_pending(roots),
        done(roots == 0)
      {}
    };

    /// Per-worker slice, merged after the pool joins.
    struct DfsLocal
    {
      size_t deepest_line = 0;
      std::vector<S> deepest_frontier;
      uint64_t distinct = 0;
      uint64_t memo_hits = 0;
      uint64_t steals = 0;
      /// Only the worker that claimed the witness fills this.
      std::vector<S> witness;
    };

    void run_dfs_parallel()
    {
      const WorkerPool pool(options_.threads);
      DfsShared shared(
        pool.size(), 4 * static_cast<size_t>(pool.size()), init_.size());
      budget_.set_stop_flag(&shared.stop);

      for (size_t i = 0; i < init_.size(); ++i)
      {
        auto root = std::make_shared<Task>();
        root->state = init_[i];
        shared.deques.push(
          static_cast<unsigned>(i % pool.size()), std::move(root));
      }

      std::vector<DfsLocal> locals(pool.size());
      pool.run([&](unsigned w) { dfs_worker(shared, w, locals[w]); });
      // The stop flag dies with this frame; detach it before run() makes
      // its final exhausted() check.
      budget_.set_stop_flag(nullptr);

      // Drain tasks abandoned by the early stop (witness or budget) so
      // their parent chains are torn down iteratively.
      TaskPtr leftover;
      bool stole = false;
      for (unsigned w = 0; w < pool.size(); ++w)
      {
        while (shared.deques.pop_or_steal(w, leftover, stole))
        {
          release_chain(std::move(leftover));
        }
      }

      result_.states_explored =
        shared.explored.load(std::memory_order_relaxed);
      for (DfsLocal& local : locals)
      {
        result_.stats.distinct_states += local.distinct;
        result_.stats.duplicate_states += local.memo_hits;
        result_.stats.memo_hits += local.memo_hits;
        result_.stats.steals += local.steals;
        if (!local.witness.empty())
        {
          result_.ok = true;
          result_.witness = std::move(local.witness);
        }
      }
      if (result_.ok)
      {
        result_.lines_matched = lines_.size();
        return;
      }

      // Merge the per-worker unsatisfied-breakpoint diagnostics: deepest
      // line over all workers, candidates concatenated in worker order up
      // to the configured cap.
      size_t deepest = 0;
      for (const DfsLocal& local : locals)
      {
        deepest = std::max(deepest, local.deepest_line);
      }
      for (DfsLocal& local : locals)
      {
        if (local.deepest_line != deepest)
        {
          continue;
        }
        for (S& s : local.deepest_frontier)
        {
          if (
            result_.frontier_at_failure.size() <
            options_.max_diagnostic_states)
          {
            result_.frontier_at_failure.push_back(std::move(s));
          }
        }
      }
      result_.lines_matched = deepest;
      if (deepest < lines_.size())
      {
        result_.failed_line = lines_[deepest].description;
      }
    }

    void dfs_worker(DfsShared& shared, unsigned w, DfsLocal& local)
    {
      for (;;)
      {
        if (
          shared.stop.load(std::memory_order_acquire) ||
          shared.done.load(std::memory_order_acquire))
        {
          return;
        }
        if (budget_.exhausted(
              shared.explored.load(std::memory_order_relaxed)))
        {
          return;
        }
        TaskPtr task;
        bool stole = false;
        if (!shared.deques.pop_or_steal(w, task, stole))
        {
          // Empty everywhere but the search is not done: siblings are
          // still expanding. Yield until work appears or the run ends.
          std::this_thread::yield();
          continue;
        }
        if (stole)
        {
          local.steals++;
        }
        dfs_process(shared, w, std::move(task), local);
      }
    }

    /// The parallel counterpart of enter(): match/budget/memo checks,
    /// diagnostics, expansion — publishing children instead of pushing a
    /// frame.
    void dfs_process(DfsShared& shared, unsigned w, TaskPtr task, DfsLocal& local)
    {
      if (task->line == lines_.size())
      {
        cover(task->state, task->line, w);
        if (!shared.witness_claimed.exchange(
              true, std::memory_order_acq_rel))
        {
          for (const Task* t = task.get(); t != nullptr;
               t = t->parent.get())
          {
            local.witness.push_back(t->state);
          }
          std::reverse(local.witness.begin(), local.witness.end());
          shared.stop.store(true, std::memory_order_release);
        }
        release_chain(std::move(task));
        return;
      }
      if (budget_.exhausted(shared.explored.load(std::memory_order_relaxed)))
      {
        // Not a proven dead end — but once the budget is exhausted every
        // path fails the same way, exactly like the sequential wind-down.
        subtree_failed(shared, std::move(task), false);
        return;
      }
      const uint64_t fp = expander_.fingerprint_of(task->state, w);
      if (shared.dead.contains(key(task->line, fp)))
      {
        local.memo_hits++;
        subtree_failed(shared, std::move(task), false);
        return;
      }
      if (task->line > local.deepest_line)
      {
        local.deepest_line = task->line;
        local.deepest_frontier.clear();
      }
      if (
        task->line == local.deepest_line &&
        local.deepest_frontier.size() < options_.max_diagnostic_states)
      {
        local.deepest_frontier.push_back(task->state);
      }
      local.distinct++;
      cover(task->state, task->line, w);
      task->fp = fp;
      std::vector<S> successors;
      expander_.with_faults(task->state, [&](const S& pre) {
        lines_[task->line].expand(pre, [&](S&& succ) {
          successors.push_back(std::move(succ));
        });
      });
      shared.explored.fetch_add(
        successors.size(), std::memory_order_relaxed);
      if (successors.empty())
      {
        subtree_failed(shared, std::move(task), true);
        return;
      }
      // pending must cover every child before the first one is published —
      // a thief may fail a stolen child while we are still pushing.
      task->pending.store(successors.size(), std::memory_order_relaxed);
      // Push in reverse: pop_bottom is LIFO, so the owner descends into
      // the first successor next (the sequential sibling order) while
      // thieves take later siblings from the top.
      for (size_t i = successors.size(); i-- > 0;)
      {
        auto child = std::make_shared<Task>();
        child->state = std::move(successors[i]);
        child->line = task->line + 1;
        child->parent = task;
        shared.deques.push(w, std::move(child));
      }
      release_chain(std::move(task));
    }

    /// Resolves a subtree that was exhausted without finding a witness.
    /// `dead` is true when the exhaustion proves (line, fp) unsatisfiable
    /// (no successors, or every child subtree failed) — those keys go into
    /// the shared memo; budget cuts and memo hits do not re-memoize.
    /// Walks up the completion tree: failing the last outstanding child of
    /// a node proves that node dead in turn.
    void subtree_failed(DfsShared& shared, TaskPtr task, bool dead)
    {
      for (;;)
      {
        if (dead)
        {
          shared.dead.insert(key(task->line, task->fp));
        }
        TaskPtr parent = task->parent;
        release_chain(std::move(task));
        if (parent == nullptr)
        {
          if (
            shared.roots_pending.fetch_sub(1, std::memory_order_acq_rel) ==
            1)
          {
            shared.done.store(true, std::memory_order_release);
          }
          return;
        }
        if (parent->pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
        {
          release_chain(std::move(parent));
          return;
        }
        task = std::move(parent);
        dead = true;
      }
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
