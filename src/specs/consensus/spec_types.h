// State space of the consensus specification (§4).
//
// This is the C++ rendering of the paper's TLA+ consensus spec: per-node
// variables (role, currentTerm, votedFor, votesGranted, log, commitIndex,
// sentIndex, matchIndex, membership) plus one global variable modeling the
// network as a *multiset* of in-transit messages (§6.2 motivates the
// multiset so resends are visible). Everything is packed into small integer
// types: node ids fit in a uint8_t, node sets are bitmasks, and log indices
// are bounded by the model constraints — the paper's models cap terms,
// client requests and reconfigurations the same way (§4).
//
// The variable inventory matches the paper's "13 variables": 12 local
// (9 listed here, plus the derived configurations, committable indices and
// retired-node sets which CCF's spec tracks explicitly but we derive from
// the log to keep states canonical) and the network.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/hash.h"
#include "util/small_vec.h"

namespace scv::specs::ccfraft
{
  constexpr size_t kMaxNodes = 7;

  /// Inline capacities of the state's small vectors. They cover the
  /// Table-1 and symmetry models (logs of at most max_log_len + 1 <= 8
  /// entries, AE windows and snapshot prefixes of at most 4, up to three
  /// nodes and two distinct in-flight messages), so copying one of their
  /// states allocates nothing; longer logs and larger networks (trace
  /// validation) spill to the heap.
  constexpr size_t kInlineLog = 8;
  constexpr size_t kInlineEntries = 4;
  constexpr size_t kInlineNodes = 3;
  constexpr size_t kInlineNetwork = 2;

  using Nid = uint8_t; // 1-based node id; 0 = none
  using Bits = uint8_t; // node-set bitmask; bit (n-1) = node n

  constexpr bool has_node(Bits set, Nid n)
  {
    return (set & (1u << (n - 1))) != 0;
  }

  constexpr Bits with_node(Bits set, Nid n)
  {
    return static_cast<Bits>(set | (1u << (n - 1)));
  }

  constexpr Bits without_node(Bits set, Nid n)
  {
    return static_cast<Bits>(set & ~(1u << (n - 1)));
  }

  constexpr int count_nodes(Bits set)
  {
    int c = 0;
    for (Bits b = set; b != 0; b &= static_cast<Bits>(b - 1))
    {
      ++c;
    }
    return c;
  }

  /// Majority of `config` is contained in `have`.
  constexpr bool majority(Bits config, Bits have)
  {
    return count_nodes(static_cast<Bits>(config & have)) >=
      count_nodes(config) / 2 + 1;
  }

  std::string bits_to_string(Bits set);

  enum class EType : uint8_t
  {
    Data,
    Sig,
    Reconfig,
    Retire,
  };

  struct SpecEntry
  {
    uint8_t term = 0;
    EType type = EType::Data;
    /// Request id for Data; retiring node for Retire.
    uint8_t payload = 0;
    /// Node set for Reconfig entries.
    Bits config = 0;

    auto operator<=>(const SpecEntry&) const = default;
  };

  static_assert(
    sizeof(SpecEntry) == 4 && std::is_trivially_copyable_v<SpecEntry> &&
    std::is_standard_layout_v<SpecEntry> && offsetof(SpecEntry, term) == 0 &&
    offsetof(SpecEntry, type) == 1 && offsetof(SpecEntry, payload) == 2 &&
    offsetof(SpecEntry, config) == 3 && sizeof(EType) == 1 &&
    sizeof(Bits) == 1);

  /// Serializes a run of entries with one raw() call. An entry encodes as
  /// its four one-byte fields in declaration order, which is exactly its
  /// object representation (asserted above).
  inline void serialize_entries(
    ByteSink& sink, std::span<const SpecEntry> entries)
  {
    sink.raw(
      reinterpret_cast<const uint8_t*>(entries.data()),
      sizeof(SpecEntry) * entries.size());
  }

  enum class MType : uint8_t
  {
    AeReq,
    AeResp,
    RvReq,
    RvResp,
    ProposeVote,
    /// Leader -> lagging follower whose next entry fell below the
    /// leader's compaction point. Uses last_idx = snapshot index,
    /// prev_term = snapshot term, commit = snapshot index; entries carry
    /// the ghost prefix [1, last_idx] (the spec retains compacted content
    /// to state invariants over it — the implementation ships a KV image).
    InstallSnap,
  };

  struct SpecMessage
  {
    MType type = MType::AeReq;
    Nid from = 0;
    Nid to = 0;
    uint8_t term = 0;
    // AeReq fields.
    uint8_t prev_idx = 0;
    uint8_t prev_term = 0;
    uint8_t commit = 0;
    SmallVec<SpecEntry, kInlineEntries> entries;
    // AeResp: success + last_idx; RvResp: success = granted.
    bool success = false;
    uint8_t last_idx = 0;
    // RvReq fields.
    uint8_t last_log_idx = 0;
    uint8_t last_log_term = 0;

    auto operator<=>(const SpecMessage&) const = default;

    void serialize(ByteSink& sink) const
    {
      const uint8_t head[] = {
        static_cast<uint8_t>(type),
        from,
        to,
        term,
        prev_idx,
        prev_term,
        commit,
        static_cast<uint8_t>(entries.size())};
      sink.raw(head, sizeof(head));
      serialize_entries(sink, entries);
      const uint8_t tail[] = {
        static_cast<uint8_t>(success ? 1 : 0),
        last_idx,
        last_log_idx,
        last_log_term};
      sink.raw(tail, sizeof(tail));
    }

    [[nodiscard]] std::string to_string() const;
  };

  enum class SRole : uint8_t
  {
    Follower,
    Candidate,
    Leader,
    Retired,
  };

  enum class SMembership : uint8_t
  {
    Active,
    Ordered, // removal reconfiguration in local log
    Committed, // removal committed; awaiting retirement commit
    Completed, // retirement committed; node may switch off
  };

  struct SpecNode
  {
    SRole role = SRole::Follower;
    uint8_t current_term = 1;
    Nid voted_for = 0;
    Bits votes_granted = 0;
    SmallVec<SpecEntry, kInlineLog> log;
    uint8_t commit_index = 0;
    /// Ghost-log compaction watermark: entries at or below snap_idx are
    /// physically dropped by the implementation but retained here so the
    /// invariants keep quantifying over them (the ghost-variable technique
    /// of Gu et al.). snap_idx = 0 means nothing compacted; otherwise
    /// log[snap_idx - 1] is the covering signature with term snap_term.
    uint8_t snap_idx = 0;
    uint8_t snap_term = 0;
    std::array<uint8_t, kMaxNodes> sent_index{};
    std::array<uint8_t, kMaxNodes> match_index{};
    SMembership membership = SMembership::Active;

    auto operator<=>(const SpecNode&) const = default;

    void serialize(ByteSink& sink) const
    {
      const uint8_t head[] = {
        static_cast<uint8_t>(role),
        current_term,
        voted_for,
        votes_granted,
        static_cast<uint8_t>(log.size())};
      sink.raw(head, sizeof(head));
      serialize_entries(sink, log);
      static_assert(
        sizeof(sent_index) == kMaxNodes && sizeof(match_index) == kMaxNodes);
      uint8_t tail[3 + 2 * kMaxNodes + 1] = {commit_index, snap_idx, snap_term};
      std::memcpy(tail + 3, sent_index.data(), kMaxNodes);
      std::memcpy(tail + 3 + kMaxNodes, match_index.data(), kMaxNodes);
      tail[3 + 2 * kMaxNodes] = static_cast<uint8_t>(membership);
      sink.raw(tail, sizeof(tail));
    }

    // --- log helpers (1-based indices, 0 = none) -------------------------

    [[nodiscard]] uint8_t len() const
    {
      return static_cast<uint8_t>(log.size());
    }

    [[nodiscard]] uint8_t term_at(uint8_t idx) const
    {
      return (idx == 0 || idx > log.size()) ? 0 : log[idx - 1].term;
    }

    [[nodiscard]] const SpecEntry& at(uint8_t idx) const
    {
      SCV_CHECK(idx >= 1 && idx <= log.size());
      return log[idx - 1];
    }

    [[nodiscard]] uint8_t last_term() const
    {
      return term_at(len());
    }

    [[nodiscard]] uint8_t last_sig_at_or_before(uint8_t idx) const;

    /// Express catch-up estimate; mirrors Ledger::agreement_estimate.
    [[nodiscard]] uint8_t agreement_estimate(
      uint8_t bound, uint8_t max_term) const;
  };

  /// One configuration discovered in a log.
  struct SpecConfig
  {
    uint8_t idx = 0;
    Bits nodes = 0;
  };

  struct State
  {
    uint8_t n_nodes = 0;
    /// Exactly n_nodes entries (initial_state sizes it), so copies and
    /// comparisons touch only the model's nodes.
    SmallVec<SpecNode, kInlineNodes> nodes;
    /// Multiset of in-transit messages: sorted unique messages with counts.
    SmallVec<std::pair<SpecMessage, uint8_t>, kInlineNetwork> network;
    /// Next client-request payload id (bounded by the model).
    uint8_t next_request = 1;

    bool operator==(const State&) const = default;

    void serialize(ByteSink& sink) const
    {
      sink.u8(n_nodes);
      for (uint8_t i = 0; i < n_nodes; ++i)
      {
        nodes[i].serialize(sink);
      }
      sink.u8(static_cast<uint8_t>(network.size()));
      for (const auto& [msg, count] : network)
      {
        msg.serialize(sink);
        sink.u8(count);
      }
      sink.u8(next_request);
    }

    [[nodiscard]] std::string to_string() const;

    [[nodiscard]] const SpecNode& node(Nid n) const
    {
      SCV_CHECK(n >= 1 && n <= n_nodes);
      return nodes[n - 1];
    }

    [[nodiscard]] SpecNode& node(Nid n)
    {
      SCV_CHECK(n >= 1 && n <= n_nodes);
      return nodes[n - 1];
    }

    // --- network multiset ops ---------------------------------------------

    void add_message(const SpecMessage& msg, uint8_t copies = 1);

    /// Decrements one copy; returns false if absent.
    bool remove_message(const SpecMessage& msg);

    [[nodiscard]] uint8_t message_count(const SpecMessage& msg) const;

    [[nodiscard]] size_t network_size() const;
  };

  // --- derived (log-scanned) views ------------------------------------------
  //
  // Every view scans the log in place and allocates nothing; they run on
  // every expanded state. consensus_spec_test checks them against an
  // oracle that lists the log's configurations.

  /// Union of active-configuration node sets.
  Bits active_nodes(const SpecNode& node);

  /// Intersection of active-configuration node sets.
  Bits common_active_nodes(const SpecNode& node);

  /// The current (highest committed) configuration.
  SpecConfig current_config(const SpecNode& node);

  /// Node set of the last configuration in the log, committed or not.
  Bits latest_config(const SpecNode& node);

  /// Nodes whose Retire entry has committed in this node's view.
  Bits retired_nodes(const SpecNode& node);

  /// Union of every configuration the log has ever contained.
  Bits known_nodes(const SpecNode& node);

  /// Quorum of each active configuration satisfies `have` (a bitmask).
  bool quorum_in_each(const SpecNode& node, Bits have);

  /// The bug-1 variant: one majority over the union.
  bool quorum_in_union(const SpecNode& node, Bits have);
}
