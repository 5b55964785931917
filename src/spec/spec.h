// Specification framework: guarded-action transition systems.
//
// This is the C++ analogue of the paper's TLA+ layer (§3). A specification
// is Init ∧ □[Next]_vars where Next is a disjunction of named actions; here
// a SpecDef<S> holds initial states and a list of Actions, each of which
// enumerates the successors it can produce from a given state. Safety
// invariants are predicates over states; action properties (like
// AppendOnlyProp) are predicates over state *pairs*.
//
// State type requirements:
//   * bool operator==(const S&) const
//   * void serialize(ByteSink&) const   — canonical; equal states produce
//                                         equal bytes (used to fingerprint)
//   * std::string to_string() const     — for counterexample printing
#pragma once

#include <concepts>
#include <cstddef>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace scv::spec
{
  template <class S>
  concept SpecState = requires(const S& s, ByteSink& sink) {
    { s == s } -> std::convertible_to<bool>;
    { s.serialize(sink) };
    { s.to_string() } -> std::convertible_to<std::string>;
  };

  /// digest64() of the state's serialized bytes (util/hash.h).
  template <SpecState S>
  uint64_t fingerprint(const S& state)
  {
    // Reused per thread: clear() keeps the buffer's capacity, so
    // steady-state fingerprinting allocates nothing. serialize() must not
    // fingerprint other states re-entrantly (none do — they only append
    // bytes).
    thread_local ByteSink sink;
    sink.clear();
    state.serialize(sink);
    return sink.digest();
  }

  /// A permutation of identity indices 0..k-1: perm[i] is the new index
  /// of identity i.
  using Perm = std::vector<uint8_t>;

  /// Symmetry hook (TLC symmetry sets): a permutation group over the
  /// spec's interchangeable identities (node ids, transaction ids) under
  /// which the transition relation, the invariants, the action properties
  /// and the state constraint are all equivariant. Initial states need
  /// NOT be symmetric. When a SpecDef carries one and an engine enables
  /// EngineOptions::symmetry, the Expander fingerprints the canonical
  /// orbit representative (symmetry.h), so orbit-equivalent states dedup
  /// to one — up to |G| (= k! for the full group) fewer distinct states.
  template <SpecState S>
  struct Symmetry
  {
    /// Number of permutable identities in this state (may vary per state,
    /// e.g. "transaction ids assigned so far").
    std::function<size_t(const S&)> domain;
    /// Applies a permutation: every occurrence of identity i in the state
    /// is relabeled to perm[i], and any identity-indexed containers are
    /// re-normalized (sorted multisets re-sorted, arrays re-permuted).
    std::function<S(const S&, const Perm&)> apply;
    /// Optional label-invariant per-identity signature enabling the
    /// sorted fast path: sig(apply(s, p), p[i]) == sig(s, i) must hold
    /// for every permutation in the group. A weak signature only costs
    /// speed (ties fall back to enumeration), never correctness.
    std::function<uint64_t(const S&, size_t)> signature;
    /// Explicit group elements (each of size >= any state's domain;
    /// identities beyond a state's domain must be fixed points). Empty
    /// means the full symmetric group on the state's domain, which is
    /// what enables the sorted-by-signature fast path.
    std::vector<Perm> group;

    [[nodiscard]] bool enabled() const
    {
      return static_cast<bool>(apply);
    }
  };

  /// Callback receiving each successor produced by an action
  /// (docs/SPEC.md "The Emit contract"). Actions hand over the successor
  /// they built: emit(std::move(s2)). The receiver takes it by S&& and
  /// moves it into the store or a successor vector only if it keeps it.
  ///
  /// Emit is on the per-transition path, so it never allocates. It holds
  /// an inline copy of a small, trivially copyable callable, typically a
  /// lambda that captures by reference, and calls it through one function
  /// pointer. It owns that copy: an Emit built from a temporary lambda
  /// and stored in a local stays callable, which a non-owning reference
  /// would not. Larger or non-trivial callables fail a static_assert;
  /// capture them by reference instead.
  ///
  /// Emitting an lvalue calls the const S& overload, which copies it.
  template <class S>
  class Emit
  {
  public:
    /// Bytes of callable held inline: eight captured references.
    static constexpr size_t inline_bytes = 64;

    template <class F>
      requires(
        !std::same_as<std::remove_cvref_t<F>, Emit> &&
        std::invocable<const std::remove_cvref_t<F>&, S &&>)
    Emit(F&& fn) // NOLINT(google-explicit-constructor): lambdas convert
    {
      using Fn = std::remove_cvref_t<F>;
      static_assert(
        sizeof(Fn) <= inline_bytes && alignof(Fn) <= alignof(void*),
        "Emit callable too large: capture by reference");
      static_assert(
        std::is_trivially_copyable_v<Fn> &&
          std::is_trivially_destructible_v<Fn>,
        "Emit callable must be trivially copyable: capture by reference");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      call_ = [](const void* stored, S&& s) {
        (*static_cast<const Fn*>(stored))(std::move(s));
      };
    }

    void operator()(S&& s) const
    {
      call_(storage_, std::move(s));
    }

    /// Copies `s` and emits the copy; `s` is left as it was.
    void operator()(const S& s) const
    {
      S copy = s;
      call_(storage_, std::move(copy));
    }

  private:
    alignas(void*) unsigned char storage_[inline_bytes];
    void (*call_)(const void*, S&&);
  };

  /// A named guarded action: from a state, emits zero or more successors.
  /// Emitting nothing means the action is disabled in that state.
  template <SpecState S>
  struct Action
  {
    std::string name;
    std::function<void(const S&, const Emit<S>&)> expand;
    /// Relative likelihood of being picked during simulation; the paper
    /// manually down-weights failure actions to bias simulation toward
    /// forward progress (§4).
    double weight = 1.0;
  };

  template <SpecState S>
  struct Invariant
  {
    std::string name;
    std::function<bool(const S&)> check;
  };

  /// Property over a transition (s, s'); e.g. AppendOnlyProp.
  template <SpecState S>
  struct ActionProperty
  {
    std::string name;
    std::function<bool(const S&, const S&)> check;
  };

  template <SpecState S>
  struct SpecDef
  {
    std::string name;
    std::vector<S> init;
    std::vector<Action<S>> actions;
    std::vector<Invariant<S>> invariants;
    std::vector<ActionProperty<S>> action_properties;
    /// State constraint (§4): successors of states violating it are not
    /// explored. Used to bound the unbounded spec for exhaustive checking.
    std::function<bool(const S&)> constraint;
    /// Optional symmetry group (docs/SPEC.md "Symmetry reduction").
    /// Inert unless an engine turns on EngineOptions::symmetry.
    Symmetry<S> symmetry;

    [[nodiscard]] bool within_constraint(const S& s) const
    {
      return !constraint || constraint(s);
    }

    [[nodiscard]] bool has_symmetry() const
    {
      return symmetry.enabled();
    }
  };

  /// One step of a counterexample: the action taken and the state reached.
  template <SpecState S>
  struct TraceStep
  {
    std::string action;
    S state;
  };

  template <SpecState S>
  struct Counterexample
  {
    /// Violated invariant or action property.
    std::string property;
    /// steps[0].action is "<init>".
    std::vector<TraceStep<S>> steps;

    [[nodiscard]] std::string to_string() const
    {
      std::string out = "violation of " + property + "\n";
      for (size_t i = 0; i < steps.size(); ++i)
      {
        out += "  [" + std::to_string(i) + "] " + steps[i].action + "\n";
        out += "      " + steps[i].state.to_string() + "\n";
      }
      return out;
    }
  };
}
