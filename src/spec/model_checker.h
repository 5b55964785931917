// Explicit-state model checking (the TLC analogue, §3/§4).
//
// Breadth-first exhaustive exploration of a SpecDef's reachable state
// space, checking every invariant on every distinct state and every action
// property on every transition. Counterexamples are reconstructed by
// walking the predecessor graph, so a violation comes with the shortest
// action sequence that reaches it — the same workflow the paper describes
// for translating spec counterexamples into functional tests (§7).
//
// One kernel, one entry point: ModelChecker::check() (and the free
// function model_check()) run frontier-batched BFS over a WorkerPool of
// CheckLimits::threads workers and a sharded fingerprint store — TLC's
// multi-worker exploration model. The store keeps fingerprints and
// predecessor links only; the frontier owns the state bodies. Each worker
// admits successors into its own level arena (one for even depths, one
// for odd) and lists them in its own item vector. The states at depth d
// are the workers' depth-d vectors read in worker order through prefix
// offsets; workers claim them with an atomic cursor. When level d + 1
// starts, each worker resets its level-d arena and keeps the chunks, so a
// body lives for two levels in warm, reused memory.
//   * threads = 1 is one worker inline on the caller over one dense
//     shard: each level drains in insertion order, the classic FIFO BFS
//     queue — shortest counterexamples, bit-identical results.
//   * threads = N: the first violation wins (a stop flag drains the other
//     workers) and, because levels are processed in order, the reported
//     trace is *level-minimal*. The explored set does not depend on N.
//
// Counterexamples are rebuilt by exact replay of the recorded action
// chain (ShardedStateStore::reconstruct_path), as TLC does.
//
// Campaign mode (campaign.h): attach_store() points the checker at a
// shared, empty ShardedStateStore instead of its private one. Every
// admission is tagged with the checker's EngineId, and the unexpanded
// frontier of a budget-cut run is exported for the next engine to seed
// from (take_frontier()); a standalone check exports nothing.
//
// BFS trace validation (trace_validator.h) is this kernel run on the
// trace product spec: levels are trace lines, ExplorationStats::level_sizes
// are its per-line frontier sizes, and the counterexample is the witness.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/worker_pool.h"
#include "util/check.h"

namespace scv::spec
{
  struct CheckLimits : EngineOptions
  {
    /// Work-counter cap: distinct states admitted to the store.
    uint64_t max_distinct_states = UINT64_MAX;
    uint64_t max_depth = UINT64_MAX;
    /// Soft ceiling on resident bytes: the store's plus the level
    /// arenas' chunks (docs/SPEC.md "State store"). 0 = unlimited.
    /// Crossing it ends the run like an exhausted work budget.
    size_t memory_budget_bytes = 0;

    /// The exploration-core budget: work counter = distinct states.
    [[nodiscard]] Budget::Caps budget_caps() const
    {
      return make_caps(max_distinct_states, max_depth);
    }
  };

  template <SpecState S>
  struct CheckResult : EngineReport
  {
    CheckResult()
    {
      engine = EngineId::Checker;
    }

    std::optional<Counterexample<S>> counterexample;
  };

  /// One checker worker's state bodies for one BFS level, constructed in
  /// place in chunks of raw storage (1024 bodies per chunk, so one
  /// allocation per 1024 states) that never move: frontier items carry
  /// plain pointers. reset() destroys the bodies and keeps the chunks for
  /// the level after next.
  template <class S>
  class LevelArena
  {
  public:
    static constexpr size_t chunk_bodies = 1024;
    static constexpr size_t chunk_bytes = chunk_bodies * sizeof(S);

    LevelArena() = default;
    LevelArena(const LevelArena&) = delete;
    LevelArena& operator=(const LevelArena&) = delete;

    ~LevelArena()
    {
      release();
    }

    S* emplace(S&& state)
    {
      if (size_ == chunks_.size() * chunk_bodies)
      {
        chunks_.push_back(std::allocator<S>{}.allocate(chunk_bodies));
        bytes_.store(chunks_.size() * chunk_bytes, std::memory_order_relaxed);
      }
      S* slot = chunks_[size_ / chunk_bodies] + size_ % chunk_bodies;
      std::construct_at(slot, std::move(state));
      ++size_;
      return slot;
    }

    /// Bodies constructed since the last reset().
    [[nodiscard]] size_t size() const
    {
      return size_;
    }

    /// Chunk bytes held. Wait-free, so other workers may poll it.
    [[nodiscard]] size_t bytes() const
    {
      return bytes_.load(std::memory_order_relaxed);
    }

    /// Destroys every body; the chunks stay for reuse.
    void reset()
    {
      for (size_t c = 0; c * chunk_bodies < size_; ++c)
      {
        std::destroy_n(
          chunks_[c], std::min(chunk_bodies, size_ - c * chunk_bodies));
      }
      size_ = 0;
    }

    /// Destroys every body and frees every chunk.
    void release()
    {
      reset();
      for (S* chunk : chunks_)
      {
        std::allocator<S>{}.deallocate(chunk, chunk_bodies);
      }
      std::vector<S*>().swap(chunks_);
      bytes_.store(0, std::memory_order_relaxed);
    }

  private:
    std::vector<S*> chunks_;
    size_t size_ = 0;
    std::atomic<size_t> bytes_{0};
  };

  template <SpecState S>
  class ModelChecker
  {
  public:
    explicit ModelChecker(const SpecDef<S>& spec, CheckLimits limits = {}) :
      spec_(spec),
      limits_(limits),
      expander_(&spec_)
    {
      expander_.enable_symmetry(limits_.symmetry);
    }

    /// Campaign mode: run over `store` (shared with other engines, never
    /// cleared) instead of a private store; admissions are tagged
    /// `origin`. The store must be empty: it keeps no bodies, so states
    /// another engine admitted could not be expanded, and the BFS would
    /// report a complete check of a space it never explored. Throws
    /// CheckFailure on a non-empty store. The store must outlive the
    /// checker, and no other engine may touch it before check() returns.
    void attach_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Checker)
    {
      require_empty(*store);
      external_ = store;
      expander_.set_origin(static_cast<uint8_t>(origin));
    }

    /// Runs the search with CheckLimits::threads workers (see docs/SPEC.md
    /// "threads semantics").
    CheckResult<S> check()
    {
      frontier_out_.clear();
      const WorkerPool pool(limits_.threads);
      if (external_ == nullptr)
      {
        owned_ = std::make_unique<Store>(
          Store::shards_for_workers(pool.size()));
      }
      else
      {
        require_empty(*external_);
      }
      CheckResult<S> result = search(pool);
      owned_.reset();
      return result;
    }

    /// After an incomplete check() over an attached store: the unexpanded
    /// BFS frontier — states admitted but never expanded before the
    /// budget cut the run. A campaign seeds the simulator's walk starts
    /// from these. Empty after a standalone check, which copies no
    /// frontier out.
    [[nodiscard]] std::vector<S> take_frontier()
    {
      return std::move(frontier_out_);
    }

  private:
    using Store = ShardedStateStore<S>;
    using Id = typename Store::Id;

    [[nodiscard]] Store& store()
    {
      return external_ != nullptr ? *external_ : *owned_;
    }

    static void require_empty(const Store& store)
    {
      SCV_CHECK_MSG(
        store.size() == 0,
        "the checker needs an empty store, found " << store.size()
                                                   << " states");
    }

    /// A frontier entry: the state's body in its worker's level arena.
    struct Item
    {
      const S* body;
      Id id;
      uint32_t depth;
    };

    /// One worker's slice of the run, merged at the end; aligned so
    /// neighbouring workers' counters never share a cache line.
    struct alignas(64) WorkerLocal
    {
      /// Bodies and items by depth parity: level d is read from slot
      /// d & 1 while level d + 1 is built in the other.
      std::array<LevelArena<S>, 2> arenas;
      std::array<std::vector<Item>, 2> items;
      uint64_t generated = 0;
      uint64_t transitions = 0;
      uint64_t duplicates = 0;
      uint64_t inserted = 0;
      uint64_t max_depth = 0;
      std::vector<uint64_t> coverage; // indexed by action
    };

    /// The level being expanded: worker w's items of this parity hold
    /// global indices [offsets[w], offsets[w + 1]).
    struct Level
    {
      unsigned parity = 0;
      std::vector<size_t> offsets;

      [[nodiscard]] size_t size() const
      {
        return offsets.back();
      }
    };

    struct Violation
    {
      std::string property;
      /// Invariant: the violating state's ID. Action property: the
      /// predecessor's ID (the successor is carried separately because it
      /// was never inserted).
      Id at;
      uint32_t action = 0;
      std::optional<S> successor;
    };

    /// Resident bytes the memory budget covers: the store plus every
    /// worker's level-arena chunks. Wait-free, so workers poll it.
    [[nodiscard]] size_t resident_bytes(
      const std::vector<WorkerLocal>& locals)
    {
      return store().store_bytes() + frontier_bytes(locals);
    }

    [[nodiscard]] static size_t frontier_bytes(
      const std::vector<WorkerLocal>& locals)
    {
      size_t total = 0;
      for (const WorkerLocal& local : locals)
      {
        total += local.arenas[0].bytes() + local.arenas[1].bytes();
      }
      return total;
    }

    CheckResult<S> search(const WorkerPool& pool)
    {
      Budget budget(limits_.budget_caps());
      CheckResult<S> result;
      violation_.reset();
      std::atomic<bool> stop{false};
      std::atomic<bool> out_of_budget{false};
      std::vector<WorkerLocal> locals(pool.size());
      for (auto& local : locals)
      {
        local.coverage.assign(spec_.actions.size(), 0);
      }

      // Initial states are admitted and checked by worker 0 (the caller),
      // in spec order.
      for (const S& init : spec_.init)
      {
        const auto ins = expander_.admit(
          store(), init, Store::no_parent, Store::init_action, 0);
        if (!ins.inserted)
        {
          locals[0].duplicates++;
          continue;
        }
        locals[0].inserted++;
        locals[0].generated++;
        if (!invariants_hold(init, ins.id, stop))
        {
          break;
        }
        locals[0].items[0].push_back(
          {locals[0].arenas[0].emplace(S(init)), ins.id, 0});
      }

      Level level;
      level.offsets.resize(pool.size() + 1);
      uint64_t admitted_before = 0;
      for (;; level.parity ^= 1)
      {
        // Every state admitted since the last barrier is at this depth,
        // a violating one too, though it joins no frontier.
        uint64_t admitted = 0;
        for (size_t w = 0; w < locals.size(); ++w)
        {
          level.offsets[w + 1] =
            level.offsets[w] + locals[w].items[level.parity].size();
          admitted += locals[w].inserted;
        }
        result.stats.level_sizes.push_back(admitted - admitted_before);
        admitted_before = admitted;
        if (level.size() == 0 || stop.load(std::memory_order_acquire))
        {
          break;
        }
        std::atomic<size_t> cursor{0};
        pool.run([&](unsigned w) {
          // The level before this one is dead: each worker retires its
          // own bodies, in parallel, and keeps the chunks.
          locals[w].items[level.parity ^ 1].clear();
          locals[w].arenas[level.parity ^ 1].reset();
          run_worker(
            w, level, locals, cursor, stop, out_of_budget, budget);
        });

        // Budget cut over an attached store: the leftover frontier is
        // everything admitted but never expanded — the unclaimed tail of
        // this level (workers check the budget *before* claiming) plus
        // the level the workers were building.
        if (
          external_ != nullptr &&
          out_of_budget.load(std::memory_order_acquire))
        {
          const size_t claimed =
            std::min(cursor.load(std::memory_order_relaxed), level.size());
          for (size_t w = 0; w < locals.size(); ++w)
          {
            const auto& items = locals[w].items[level.parity];
            for (size_t i = std::max(claimed, level.offsets[w]);
                 i < level.offsets[w + 1];
                 ++i)
            {
              frontier_out_.push_back(*items[i - level.offsets[w]].body);
            }
          }
          for (const WorkerLocal& local : locals)
          {
            for (const Item& item : local.items[level.parity ^ 1])
            {
              frontier_out_.push_back(*item.body);
            }
          }
        }
      }

      uint64_t inserted = 0;
      for (const WorkerLocal& local : locals)
      {
        result.stats.generated_states += local.generated;
        result.stats.transitions += local.transitions;
        result.stats.duplicate_states += local.duplicates;
        inserted += local.inserted;
        result.stats.max_depth =
          std::max(result.stats.max_depth, local.max_depth);
        for (size_t a = 0; a < local.coverage.size(); ++a)
        {
          if (local.coverage[a] > 0)
          {
            result.stats.action_coverage[spec_.actions[a].name] +=
              local.coverage[a];
          }
        }
      }
      result.stats.peak_frontier_bytes = frontier_bytes(locals);
      // Teardown in parallel: each worker frees its arenas' chunks on the
      // thread whose allocator cache they came from.
      pool.run([&](unsigned w) {
        locals[w].arenas[0].release();
        locals[w].arenas[1].release();
      });
      // Read before the replay below fingerprints the chain again.
      result.stats.canonicalized_states = expander_.canonicalized_count();
      result.stats.symmetry_hits = expander_.symmetry_hit_count();

      if (violation_.has_value())
      {
        const Violation& v = *violation_;
        result.counterexample = counterexample(v.at, v.property);
        if (v.successor.has_value())
        {
          result.counterexample->steps.push_back(
            {spec_.actions[v.action].name, *v.successor});
        }
      }
      finish(
        result,
        budget,
        !violation_.has_value() &&
          !out_of_budget.load(std::memory_order_acquire),
        inserted);
      return result;
    }

    void run_worker(
      unsigned w,
      const Level& level,
      std::vector<WorkerLocal>& locals,
      std::atomic<size_t>& cursor,
      std::atomic<bool>& stop,
      std::atomic<bool>& out_of_budget,
      const Budget& budget)
    {
      WorkerLocal& local = locals[w];
      const unsigned next_parity = level.parity ^ 1;
      // size() sums every shard's published counter: poll it only when a
      // state cap is set.
      const bool capped = budget.caps().max_states != UINT64_MAX;
      const size_t memory_budget = limits_.memory_budget_bytes;
      // Claims only grow, so the worker whose items hold the claimed
      // index only moves forward.
      size_t owner = 0;
      for (;;)
      {
        if (stop.load(std::memory_order_acquire))
        {
          return;
        }
        // Check the budget before claiming, so an unexpanded item stays
        // in the frontier's unclaimed tail for the leftover export.
        if (
          budget.exhausted(capped ? store().size() : 0) ||
          (memory_budget > 0 && resident_bytes(locals) > memory_budget))
        {
          out_of_budget.store(true, std::memory_order_release);
          stop.store(true, std::memory_order_release);
          return;
        }
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= level.size())
        {
          return;
        }
        while (i >= level.offsets[owner + 1])
        {
          ++owner;
        }
        const Item item =
          locals[owner].items[level.parity][i - level.offsets[owner]];
        const S& state = *item.body;

        local.max_depth = std::max<uint64_t>(local.max_depth, item.depth);
        if (!expander_.within_constraint(state) ||
            budget.depth_exceeded(item.depth))
        {
          continue;
        }

        bool violated = false;
        for (size_t a = 0; a < spec_.actions.size() && !violated; ++a)
        {
          spec_.actions[a].expand(state, [&](S&& next) {
            if (violated || stop.load(std::memory_order_relaxed))
            {
              return;
            }
            local.generated++;
            local.transitions++;
            local.coverage[a]++;
            for (const auto& prop : spec_.action_properties)
            {
              if (!prop.check(*item.body, next))
              {
                report_violation(
                  stop,
                  {prop.name,
                   item.id,
                   static_cast<uint32_t>(a),
                   std::move(next)});
                violated = true;
                return;
              }
            }
            const auto ins = expander_.admit(
              store(),
              next,
              item.id,
              static_cast<uint32_t>(a),
              item.depth + 1,
              w);
            if (!ins.inserted)
            {
              local.duplicates++;
              return;
            }
            local.inserted++;
            if (!invariants_hold(next, ins.id, stop))
            {
              violated = true;
              return;
            }
            local.items[next_parity].push_back(
              {local.arenas[next_parity].emplace(std::move(next)),
               ins.id,
               item.depth + 1});
          });
        }
        if (violated)
        {
          return;
        }
      }
    }

    /// Rebuilds the path from an initial state to `id` as a
    /// counterexample, by exact replay of the recorded action chain with
    /// the admission key (canonical under symmetry). Pool joined, store
    /// quiescent.
    Counterexample<S> counterexample(Id id, const std::string& property)
    {
      auto path = store().reconstruct_path(
        id,
        spec_.init,
        [&](const S& s, uint32_t action, const Emit<S>& emit) {
          spec_.actions[action].expand(s, emit);
        },
        [&](const S& s, uint32_t) { return expander_.fingerprint_of(s); });
      SCV_CHECK_MSG(
        path.has_value(), "counterexample replay diverged for " << property);
      Counterexample<S> cex;
      cex.property = property;
      std::vector<uint32_t> actions;
      for (Id cur = id; cur != Store::no_parent;)
      {
        const auto r = store().record(cur);
        actions.push_back(r.action);
        cur = r.parent;
      }
      for (size_t i = 0; i < path->size(); ++i)
      {
        const uint32_t action = actions[actions.size() - 1 - i];
        cex.steps.push_back(
          {action == Store::init_action ? "<init>" :
                                          spec_.actions[action].name,
           std::move((*path)[i])});
      }
      return cex;
    }

    /// Checks every invariant on a freshly admitted state; on a violation
    /// reports it and returns false.
    bool invariants_hold(const S& state, Id id, std::atomic<bool>& stop)
    {
      for (const auto& inv : spec_.invariants)
      {
        if (!inv.check(state))
        {
          report_violation(stop, {inv.name, id, 0, std::nullopt});
          return false;
        }
      }
      return true;
    }

    /// First violation wins; later reports are dropped.
    void report_violation(std::atomic<bool>& stop, Violation v)
    {
      std::lock_guard<std::mutex> lock(violation_mu_);
      if (!violation_.has_value())
      {
        violation_ = std::move(v);
      }
      stop.store(true, std::memory_order_release);
    }

    /// `inserted` is the number of states this run admitted. The store
    /// starts empty (attach_store()), so it equals store().size().
    void finish(
      CheckResult<S>& result,
      const Budget& budget,
      bool complete,
      uint64_t inserted)
    {
      result.stats.distinct_states = inserted;
      result.stats.store_bytes = store().store_bytes();
      result.stats.rehash_count = store().rehash_count();
      result.stats.seconds = budget.elapsed();
      result.stats.fp_collision_probability =
        fp_collision_probability(inserted, result.stats.duplicate_states);
      if (budget.caps().time_budget_seconds < 1e17)
      {
        result.stats.budget_seconds = budget.caps().time_budget_seconds;
      }
      result.stats.complete = complete;
      if (result.counterexample)
      {
        result.ok = false;
      }
    }

    const SpecDef<S>& spec_;
    CheckLimits limits_;
    Expander<S> expander_;
    Store* external_ = nullptr;
    std::unique_ptr<Store> owned_;
    std::vector<S> frontier_out_;
    std::mutex violation_mu_;
    std::optional<Violation> violation_;
  };

  /// Entry point: one check() with CheckLimits::threads workers.
  template <SpecState S>
  CheckResult<S> model_check(const SpecDef<S>& spec, CheckLimits limits = {})
  {
    ModelChecker<S> checker(spec, limits);
    return checker.check();
  }

  template <SpecState S>
  struct ReachabilityResult
  {
    /// Whether a state satisfying the predicate is reachable.
    bool reachable = false;
    /// The shortest action sequence to such a state (when reachable).
    std::vector<TraceStep<S>> witness;
    ExplorationStats stats;
    /// Exploration exhausted the bounded space: unreachable is definitive.
    bool definitive = false;
  };

  /// Searches for a reachable state satisfying `goal` — the standard trick
  /// of model checking ¬goal as an invariant, packaged. BFS returns the
  /// shortest witness.
  template <SpecState S>
  ReachabilityResult<S> find_reachable(
    const SpecDef<S>& spec,
    const std::string& goal_name,
    std::function<bool(const S&)> goal,
    CheckLimits limits = {})
  {
    SpecDef<S> probe = spec;
    probe.invariants.clear();
    probe.action_properties.clear();
    probe.invariants.push_back(
      {goal_name, [goal](const S& s) { return !goal(s); }});
    const auto result = model_check(probe, limits);
    ReachabilityResult<S> out;
    out.stats = result.stats;
    if (!result.ok && result.counterexample.has_value())
    {
      out.reachable = true;
      out.definitive = true;
      out.witness = result.counterexample->steps;
    }
    else
    {
      out.reachable = false;
      out.definitive = result.stats.complete;
    }
    return out;
  }
}
