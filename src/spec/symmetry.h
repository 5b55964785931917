// Canonicalization under a Symmetry<S> group (docs/SPEC.md "Symmetry
// reduction").
//
// canonical_fingerprint() maps every member of a state's orbit to the same
// 64-bit fingerprint by picking a canonical representative: the orbit
// member with the lexicographically-least serialized bytes (among the
// candidates considered). The Expander fingerprints that representative,
// so every engine dedups modulo symmetry without touching concrete state
// bodies — stored bodies, predecessor links and counterexamples stay
// concrete.
//
// Two regimes:
//   * Full symmetric group (Symmetry::group empty): the fast path sorts
//     identities by their label-invariant signature — distinct signatures
//     pin a unique canonical relabeling with ONE apply+serialize. Tied
//     signatures form blocks; only permutations within tie blocks are
//     enumerated (product of block factorials, not domain!), and the
//     lexicographically-least serialization wins.
//   * Restricted group (Symmetry::group non-empty): every group element
//     is applied and the least serialization wins. Groups are small in
//     practice (<= 5 permutable nodes => <= 120 elements).
//
// Orbit-invariance of the result only needs the signature to be
// covariant (sig(apply(s, p), p[i]) == sig(s, i)): both s and apply(s, p)
// then yield the same candidate set, hence the same least serialization.
// A weak (collision-prone) signature merely enlarges tie blocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "spec/spec.h"
#include "util/check.h"

namespace scv::spec
{
  namespace symmetry_detail
  {
    template <SpecState S>
    void serialize_into(const S& state, ByteSink& sink)
    {
      sink.clear();
      state.serialize(sink);
    }

    using Bytes = std::span<const uint8_t>;

    inline bool lex_less(Bytes a, Bytes b)
    {
      return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end());
    }

    inline bool differs(Bytes a, Bytes b)
    {
      return !std::ranges::equal(a, b);
    }

    inline bool is_identity(const Perm& perm)
    {
      for (size_t i = 0; i < perm.size(); ++i)
      {
        if (perm[i] != i)
        {
          return false;
        }
      }
      return true;
    }

    /// Shared implementation: computes the canonical representative's
    /// serialized bytes (into `best`) and optionally the representative
    /// itself (into *best_state when non-null). Returns true when the
    /// representative differs from the input state.
    ///
    /// The representative is the lexicographic minimum over the CANDIDATE
    /// set only — the input itself participates exactly when the identity
    /// is a candidate. (Seeding `best` with the input unconditionally
    /// would break orbit invariance: the sorted-signature fast path
    /// considers a single relabeling, which is the identity for the orbit
    /// member that is already sorted but not for its siblings, so the
    /// siblings would keep their own bytes whenever those happen to
    /// compare lower.)
    template <SpecState S>
    bool canonical_bytes(
      const Symmetry<S>& sym,
      const S& state,
      std::vector<uint8_t>& best,
      S* best_state)
    {
      // Scratch reused per thread: canonicalization runs on every
      // generated state, so serialization must not allocate in steady
      // state. The input keeps its own sink, so candidates never copy it.
      thread_local ByteSink input_sink;
      thread_local ByteSink scratch;

      serialize_into(state, input_sink);
      const Bytes input = input_sink.bytes();
      best.clear();
      bool have = false;

      const auto consider = [&](const Perm& perm) {
        if (is_identity(perm))
        {
          // The identity's candidate is the input itself — no apply.
          if (!have || lex_less(input, best))
          {
            best.assign(input.begin(), input.end());
            if (best_state != nullptr)
            {
              *best_state = state;
            }
          }
          have = true;
          return;
        }
        const S candidate = sym.apply(state, perm);
        serialize_into(candidate, scratch);
        const Bytes bytes = scratch.bytes();
        if (!have || lex_less(bytes, best))
        {
          best.assign(bytes.begin(), bytes.end());
          have = true;
          if (best_state != nullptr)
          {
            *best_state = candidate;
          }
        }
      };

      if (!sym.group.empty())
      {
        // Restricted group: every element is a candidate (a group always
        // contains the identity, so the input is too).
        for (const Perm& perm : sym.group)
        {
          consider(perm);
        }
        return differs(best, input);
      }

      const size_t k = sym.domain ? sym.domain(state) : 0;
      if (k <= 1)
      {
        best.assign(input.begin(), input.end());
        return false;
      }
      SCV_CHECK(k <= 16); // enumeration fallback is factorial in ties

      // Full symmetric group: sort identities by covariant signature.
      std::vector<uint64_t> sig(k, 0);
      if (sym.signature)
      {
        for (size_t i = 0; i < k; ++i)
        {
          sig[i] = sym.signature(state, i);
        }
      }
      std::vector<uint8_t> order(k);
      std::iota(order.begin(), order.end(), uint8_t{0});
      std::stable_sort(order.begin(), order.end(), [&](uint8_t a, uint8_t b) {
        return sig[a] < sig[b];
      });

      bool ties = false;
      for (size_t p = 0; p + 1 < k && !ties; ++p)
      {
        ties = sig[order[p]] == sig[order[p + 1]];
      }

      Perm perm(k);
      if (!ties)
      {
        // Distinct signatures pin the canonical relabeling: identity
        // order[p] takes position p.
        for (size_t p = 0; p < k; ++p)
        {
          perm[order[p]] = static_cast<uint8_t>(p);
        }
        consider(perm);
        return differs(best, input);
      }

      // Tie blocks: enumerate permutations of identities *within* each
      // block of equal signatures (an odometer of per-block
      // next_permutation sweeps), never across blocks.
      std::vector<std::pair<size_t, size_t>> blocks; // [start, end)
      for (size_t p = 0; p < k;)
      {
        size_t q = p + 1;
        while (q < k && sig[order[q]] == sig[order[p]])
        {
          ++q;
        }
        blocks.emplace_back(p, q);
        p = q;
      }
      // Canonical start point for enumeration: sort each block's
      // identities ascending so the sweep is the same from every orbit
      // member.
      for (const auto& [start, end] : blocks)
      {
        std::sort(order.begin() + start, order.begin() + end);
      }
      for (;;)
      {
        for (size_t p = 0; p < k; ++p)
        {
          perm[order[p]] = static_cast<uint8_t>(p);
        }
        consider(perm);
        // Odometer step: advance the first block with a next permutation,
        // resetting the blocks before it.
        size_t b = 0;
        for (; b < blocks.size(); ++b)
        {
          const auto [start, end] = blocks[b];
          if (std::next_permutation(
                order.begin() + start, order.begin() + end))
          {
            break;
          }
          // next_permutation wrapped this block back to sorted order.
        }
        if (b == blocks.size())
        {
          break;
        }
      }
      return differs(best, input);
    }
  }

  /// The canonical orbit representative of `state`. Sets *changed (when
  /// non-null) to whether the representative differs from the input.
  template <SpecState S>
  S canonicalize(const Symmetry<S>& sym, const S& state, bool* changed = nullptr)
  {
    S best = state;
    std::vector<uint8_t> bytes;
    const bool c =
      sym.enabled() ?
      symmetry_detail::canonical_bytes(sym, state, bytes, &best) :
      false;
    if (changed != nullptr)
    {
      *changed = c;
    }
    return best;
  }

  /// Fingerprint of the canonical representative — equal for every member
  /// of an orbit. The representative itself is never materialized beyond
  /// its serialization.
  template <SpecState S>
  uint64_t canonical_fingerprint(
    const Symmetry<S>& sym, const S& state, bool* changed = nullptr)
  {
    if (!sym.enabled())
    {
      if (changed != nullptr)
      {
        *changed = false;
      }
      return fingerprint(state);
    }
    // Per-thread, like the scratch inside canonical_bytes: this runs once
    // per generated state under symmetry.
    thread_local std::vector<uint8_t> bytes;
    const bool c =
      symmetry_detail::canonical_bytes<S>(sym, state, bytes, nullptr);
    if (changed != nullptr)
    {
      *changed = c;
    }
    return digest64(bytes.data(), bytes.size());
  }
}
