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
// multi-worker exploration model. All states at depth d form one work
// vector of pointers to the bodies the store holds; workers claim items
// with an atomic cursor, expand actions, admit successors into their own
// body arenas, and collect the next frontier in per-worker vectors
// concatenated at the level barrier.
//   * threads = 1 is one worker inline on the caller over one dense
//     shard: each level drains in insertion order, the classic FIFO BFS
//     queue — shortest counterexamples, bit-identical results.
//   * threads = N: the first violation wins (a stop flag drains the other
//     workers) and, because levels are processed in order, the reported
//     trace is *level-minimal*. The explored set does not depend on N.
//
// Campaign mode (campaign.h): attach_store() points the checker at a
// shared ShardedStateStore instead of its private one. States already in
// the store (another engine's discoveries) seed the BFS frontier, every
// admission is tagged with the checker's EngineId, and the unexpanded
// frontier of a budget-cut run is exported for the next engine to seed
// from (take_frontier()).
#pragma once

#include <algorithm>
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

namespace scv::spec
{
  struct CheckLimits : EngineOptions
  {
    /// Work-counter cap: distinct states admitted to the store.
    uint64_t max_distinct_states = UINT64_MAX;
    uint64_t max_depth = UINT64_MAX;

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

  /// Rebuilds the path from an initial state to `id` as a counterexample.
  /// Full-mode stores read the predecessor chain's bodies directly (the
  /// historical behavior, bit-identical); fingerprint-only stores replay
  /// the recorded action chain from spec.init through the spec's actions
  /// (ShardedStateStore::reconstruct_path). When the replay cannot
  /// reproduce the chain — e.g. a campaign chain rooted at another
  /// engine's seed rather than an initial state — the counterexample
  /// falls back to the deepest suffix whose bodies are still live (at
  /// minimum the violating state itself, which never left the frontier).
  /// Callers must ensure no concurrent inserts (see ShardedStateStore's
  /// contract).
  template <SpecState S>
  Counterexample<S> reconstruct_counterexample(
    const ShardedStateStore<S>& store,
    const SpecDef<S>& spec,
    typename ShardedStateStore<S>::Id id,
    const std::string& property)
  {
    using Store = ShardedStateStore<S>;
    Counterexample<S> cex;
    cex.property = property;

    // The chain target first: each step's action name, and the bodies
    // still live from the target back (all of them in full mode).
    std::vector<std::string> names;
    std::vector<const S*> live;
    for (auto cur = id;;)
    {
      const auto r = store.record(cur);
      names.push_back(
        r.action == Store::init_action ? "<init>" :
                                         spec.actions[r.action].name);
      if (r.body != nullptr && live.size() + 1 == names.size())
      {
        live.push_back(r.body);
      }
      if (r.parent == Store::no_parent)
      {
        break;
      }
      cur = r.parent;
    }

    const auto path = store.reconstruct_path(
      id,
      spec.init,
      [&](const S& s, uint32_t action, uint32_t, const Emit<S>& emit) {
        spec.actions[action].expand(s, emit);
      });
    if (path.has_value() && path->size() == names.size())
    {
      for (size_t i = 0; i < names.size(); ++i)
      {
        cex.steps.push_back({names[names.size() - 1 - i], (*path)[i]});
      }
      return cex;
    }
    // Fallback: the live-body suffix of the chain.
    for (size_t i = live.size(); i-- > 0;)
    {
      cex.steps.push_back({names[i], *live[i]});
    }
    return cex;
  }

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
    /// cleared) instead of a private store. Existing records seed the BFS
    /// frontier; admissions are tagged `origin`. The store must outlive
    /// the checker, and no other engine may touch it during check().
    void attach_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Checker)
    {
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
        // Over-provision shards (16x workers) so two workers rarely hash
        // to the same stripe; one worker keeps a single dense shard.
        owned_ = std::make_unique<Store>(
          pool.size() == 1 ? 1 : 16 * static_cast<size_t>(pool.size()),
          store_options());
      }
      store().reserve_arenas(pool.size());
      CheckResult<S> result = search(pool);
      if (owned_ != nullptr)
      {
        // Teardown in parallel: each worker frees the bodies it admitted,
        // on the thread whose allocator cache they came from.
        pool.run([&](unsigned w) { owned_->release_arena(w); });
        owned_.reset();
      }
      return result;
    }

    /// After an incomplete check(): the unexpanded BFS frontier — states
    /// admitted but never expanded before the budget cut the run. A
    /// campaign seeds the simulator's walk starts from these.
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

    /// Store options for the private store. With symmetry on, orbit
    /// siblings share a canonical fingerprint but differ under
    /// operator==, so full mode must dedup by fingerprint alone or the
    /// collision fallback re-admits every sibling (store_options.h).
    [[nodiscard]] StoreOptions store_options() const
    {
      StoreOptions opts = limits_.store;
      if (expander_.symmetry_enabled())
      {
        opts.dedup_by_fingerprint = true;
      }
      return opts;
    }

    /// The store's byte ceiling, treated like an exhausted work budget
    /// (store_bytes() is wait-free, so workers poll it).
    [[nodiscard]] bool over_memory_budget()
    {
      return limits_.store.memory_budget_bytes > 0 &&
        store().store_bytes() > limits_.store.memory_budget_bytes;
    }

    /// A frontier entry refers to the state's body in the store, which
    /// stays put until the level barrier drops it (store contract).
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
      std::vector<Item> next;
      uint64_t generated = 0;
      uint64_t transitions = 0;
      uint64_t duplicates = 0;
      uint64_t inserted = 0;
      uint64_t max_depth = 0;
      std::vector<uint64_t> coverage; // indexed by action
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

      std::vector<Item> frontier;

      // Campaign seeding: every state another engine already admitted to
      // the shared store joins the initial frontier (its depth is the
      // depth recorded at admission).
      if (external_ != nullptr)
      {
        store().for_each(
          [&](Id id, const typename Store::RecordView& r) {
            // A fingerprint-only store has dropped expanded states'
            // bodies; only body-live records can seed the frontier (the
            // rest still deduplicate, which is their whole job).
            if (r.body != nullptr)
            {
              frontier.push_back({r.body, id, r.depth});
            }
          });
        result.stats.seeded_states = frontier.size();
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
        frontier.push_back({ins.body, ins.id, 0});
      }

      while (!frontier.empty() && !stop.load(std::memory_order_acquire))
      {
        std::atomic<size_t> cursor{0};
        pool.run([&](unsigned w) {
          run_worker(
            w, frontier, cursor, stop, out_of_budget, budget, locals[w]);
        });

        // Level barrier: splice the next frontier (worker order, then
        // generation order within a worker — one worker's level is in ID
        // order, the classic FIFO queue).
        std::vector<Item> next;
        for (WorkerLocal& local : locals)
        {
          next.insert(next.end(), local.next.begin(), local.next.end());
          local.next.clear();
        }

        // Budget cut: the leftover frontier is everything admitted but
        // never expanded — the unclaimed tail of this level (workers
        // check the budget *before* claiming) plus the level the workers
        // were building.
        if (out_of_budget.load(std::memory_order_acquire))
        {
          const size_t claimed =
            std::min(cursor.load(std::memory_order_relaxed), frontier.size());
          for (size_t i = claimed; i < frontier.size(); ++i)
          {
            frontier_out_.push_back(*frontier[i].body);
          }
          for (const Item& item : next)
          {
            frontier_out_.push_back(*item.body);
          }
        }
        // Level barrier (workers parked, store quiescent): the expanded
        // level's states leave the frontier, and frozen arena blocks may
        // spill. Skipped on stop so a violation target's body stays live
        // for reconstruction.
        if (!stop.load(std::memory_order_acquire))
        {
          for (const Item& item : frontier)
          {
            store().drop_body(item.id);
          }
          store().maybe_spill();
        }
        frontier = std::move(next);
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

      if (violation_.has_value())
      {
        const Violation& v = *violation_;
        result.counterexample =
          reconstruct_counterexample(store(), spec_, v.at, v.property);
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
      const std::vector<Item>& frontier,
      std::atomic<size_t>& cursor,
      std::atomic<bool>& stop,
      std::atomic<bool>& out_of_budget,
      const Budget& budget,
      WorkerLocal& local)
    {
      // size() sums every shard's published counter: poll it only when a
      // state cap is set.
      const bool capped = budget.caps().max_states != UINT64_MAX;
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
          over_memory_budget())
        {
          out_of_budget.store(true, std::memory_order_release);
          stop.store(true, std::memory_order_release);
          return;
        }
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size())
        {
          return;
        }
        const Item item = frontier[i];
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
              if (!prop.check(state, next))
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
              std::move(next),
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
            if (!invariants_hold(*ins.body, ins.id, stop))
            {
              violated = true;
              return;
            }
            local.next.push_back({ins.body, ins.id, item.depth + 1});
          });
        }
        if (violated)
        {
          return;
        }
      }
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

    /// `inserted` is the number of states this run admitted itself —
    /// equal to store().size() for a private store, but a shared store
    /// also holds other engines' discoveries, which must not be
    /// re-counted as this engine's coverage.
    void finish(
      CheckResult<S>& result,
      const Budget& budget,
      bool complete,
      uint64_t inserted)
    {
      result.stats.distinct_states =
        external_ != nullptr ? inserted : store().size();
      result.stats.store_bytes = store().store_bytes();
      result.stats.spilled_bytes = store().spilled_bytes();
      result.stats.rehash_count = store().rehash_count();
      result.stats.seconds = budget.elapsed();
      result.stats.canonicalized_states = expander_.canonicalized_count();
      result.stats.symmetry_hits = expander_.symmetry_hit_count();
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
