// Successor expansion layer shared by the exploration engines.
//
// Between "the spec's actions" and "the engine's search loop" sits a thin
// layer every engine was reimplementing: checking the state constraint
// before expanding, fingerprinting states for dedup, and composing the
// optional fault expander (the paper's IsFault · Next, Listing 5) before a
// trace line. Expander<S> owns all three.
//
// Fault composition is fingerprint-deduplicated per source state: each
// distinct state in the closure of up to max_fault_layers fault
// applications is emitted exactly once. (The pre-core validator re-emitted
// states reached by different fault orders — e.g. drop A then B vs drop B
// then A — inflating states_explored and DFS branching quadratically with
// max_faults_per_step >= 2.)
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <unordered_set>
#include <vector>

#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/symmetry.h"

namespace scv::spec
{
  template <SpecState S>
  class Expander
  {
  public:
    Expander() = default;

    /// Binds the spec whose constraint gates expansion. The spec must
    /// outlive the Expander.
    explicit Expander(const SpecDef<S>* spec) : spec_(spec) {}

    /// State constraint (§4): successors of states violating it are not
    /// explored. An unbound Expander (trace validation) has no constraint.
    [[nodiscard]] bool within_constraint(const S& s) const
    {
      return spec_ == nullptr || spec_->within_constraint(s);
    }

    /// Symmetry reduction (docs/SPEC.md): when enabled, fingerprint_of()
    /// keys states by their canonical orbit representative, so every
    /// admit() dedups modulo the spec's symmetry group. Bodies stay
    /// concrete — only the dedup key canonicalizes. No-op without a
    /// bound spec carrying a Symmetry hook.
    void enable_symmetry(bool on)
    {
      symmetry_on_ = on && spec_ != nullptr && spec_->has_symmetry();
    }

    [[nodiscard]] bool symmetry_enabled() const
    {
      return symmetry_on_;
    }

    /// Canonicalizer invocations (== fingerprints taken with symmetry on).
    [[nodiscard]] uint64_t canonicalized_count() const
    {
      return sum(&Slot::canonicalized);
    }

    /// Canonicalizations that actually relabeled (non-identity orbit
    /// representative) — the states symmetry folded onto a sibling.
    [[nodiscard]] uint64_t symmetry_hit_count() const
    {
      return sum(&Slot::hits);
    }

    /// The dedup key of `s`. `worker` picks the symmetry counter slot, so
    /// parallel workers count without sharing a cache line.
    [[nodiscard]] uint64_t fingerprint_of(const S& s, unsigned worker = 0) const
    {
      if (!symmetry_on_)
      {
        return fingerprint(s);
      }
      bool changed = false;
      const uint64_t fp = canonical_fingerprint(spec_->symmetry, s, &changed);
      Slot& slot = slots_[worker % counter_slots];
      slot.canonicalized.fetch_add(1, std::memory_order_relaxed);
      if (changed)
      {
        slot.hits.fetch_add(1, std::memory_order_relaxed);
      }
      return fp;
    }

    /// Tags every subsequent admission with the discovering engine — set
    /// by campaign runs sharing one store across engines (the store
    /// reports per-origin first-discovery counts). Standalone engines
    /// leave the default 0.
    void set_origin(uint8_t origin)
    {
      origin_ = origin;
    }

    [[nodiscard]] uint8_t origin() const
    {
      return origin_;
    }

    /// Fingerprint-first insert into a store: dedup and predecessor
    /// bookkeeping in one call. `worker` is the caller's worker index
    /// (the store's body arena and the symmetry counter slot).
    [[nodiscard]] typename ShardedStateStore<S>::InsertResult admit(
      ShardedStateStore<S>& store,
      const S& state,
      typename ShardedStateStore<S>::Id parent,
      uint32_t action,
      uint32_t depth,
      unsigned worker = 0) const
    {
      return store.insert(
        state,
        fingerprint_of(state, worker),
        parent,
        action,
        depth,
        origin_,
        worker);
    }

    /// Same, but keyed by a caller-salted fingerprint (the trace validator
    /// scopes dedup per line by salting with the line number).
    [[nodiscard]] typename ShardedStateStore<S>::InsertResult admit_keyed(
      ShardedStateStore<S>& store,
      const S& state,
      uint64_t key,
      typename ShardedStateStore<S>::Id parent,
      uint32_t action,
      uint32_t depth,
      unsigned worker = 0) const
    {
      return store.insert(state, key, parent, action, depth, origin_, worker);
    }

    /// Fault expander (e.g. "drop any one in-flight message"), composed
    /// 0..max_layers times before each expansion. Pass an empty function to
    /// disable.
    void set_fault(
      std::function<void(const S&, const Emit<S>&)> fault, size_t max_layers)
    {
      fault_ = std::move(fault);
      max_fault_layers_ = max_layers;
    }

    [[nodiscard]] bool has_fault() const
    {
      return static_cast<bool>(fault_) && max_fault_layers_ > 0;
    }

    /// Emits `state` and every *distinct* state reachable from it by up to
    /// max_layers applications of the fault expander (deduplicated by
    /// fingerprint across the whole closure, including `state` itself).
    ///
    /// The base state is emitted unconditionally — callers gate it
    /// themselves before asking for the closure (the trace validator's
    /// searches must consider the un-faulted state even where an engine
    /// would prune it). Fault-generated states, by contrast, honor the
    /// bound spec's state constraint: a closure step that leaves the
    /// constraint is neither emitted nor expanded further, exactly as the
    /// engines never expand out-of-constraint states. An unbound Expander
    /// (trace validation) has no constraint, so nothing is gated there.
    ///
    /// Not reentrant: the emit callback must not call with_faults() on
    /// the same thread (the per-thread scratch below is reused across
    /// calls; no caller nests closures).
    void with_faults(const S& state, const Emit<S>& emit) const
    {
      emit(state);
      if (!has_fault())
      {
        return;
      }
      // Per-thread scratch: the closure runs per trace line in DFS
      // validation, so the set and layer vectors must not reallocate
      // from scratch on every call.
      thread_local std::unordered_set<uint64_t> seen;
      thread_local std::vector<S> layer;
      thread_local std::vector<S> next_layer;
      seen.clear();
      layer.clear();
      seen.insert(fingerprint_of(state));
      layer.push_back(state);
      for (size_t k = 0; k < max_fault_layers_; ++k)
      {
        next_layer.clear();
        for (const S& s : layer)
        {
          fault_(s, [&](const S& f) {
            if (!within_constraint(f))
            {
              return;
            }
            if (seen.insert(fingerprint_of(f)).second)
            {
              next_layer.push_back(f);
              emit(f);
            }
          });
        }
        if (next_layer.empty())
        {
          break;
        }
        layer.swap(next_layer);
      }
      layer.clear();
      next_layer.clear();
    }

  private:
    /// One worker's symmetry counters, alone on its cache line.
    struct alignas(64) Slot
    {
      std::atomic<uint64_t> canonicalized{0};
      std::atomic<uint64_t> hits{0};
    };

    /// Workers beyond this share slots: still exact, the adds are atomic.
    static constexpr size_t counter_slots = 64;

    [[nodiscard]] uint64_t sum(std::atomic<uint64_t> Slot::*field) const
    {
      uint64_t total = 0;
      for (const Slot& slot : slots_)
      {
        total += (slot.*field).load(std::memory_order_relaxed);
      }
      return total;
    }

    const SpecDef<S>* spec_ = nullptr;
    std::function<void(const S&, const Emit<S>&)> fault_;
    size_t max_fault_layers_ = 0;
    uint8_t origin_ = 0;
    bool symmetry_on_ = false;
    mutable std::array<Slot, counter_slots> slots_;
  };
}
