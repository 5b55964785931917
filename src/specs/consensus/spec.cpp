#include "specs/consensus/spec.h"

#include <algorithm>
#include <bitset>

#include "specs/consensus/symmetry.h"

namespace scv::specs::ccfraft
{
  State initial_state(const Params& params)
  {
    SCV_CHECK(params.n_nodes >= 1 && params.n_nodes <= kMaxNodes);
    const Bits init_cfg = params.initial_bits();
    SCV_CHECK(has_node(init_cfg, params.initial_leader));

    State s;
    s.n_nodes = params.n_nodes;
    s.nodes.resize(params.n_nodes);
    for (Nid n = 1; n <= params.n_nodes; ++n)
    {
      SpecNode& nd = s.node(n);
      nd.current_term = 1;
      nd.log.push_back({1, EType::Reconfig, 0, init_cfg});
      nd.log.push_back({1, EType::Sig, 0, 0});
      nd.commit_index = 2;
      if (n == params.initial_leader)
      {
        nd.role = SRole::Leader;
        nd.voted_for = n;
        // Replication state exists only for current targets (mirrors the
        // implementation; joiners get theirs when a reconfiguration first
        // names them).
        for (Nid j = 1; j <= params.n_nodes; ++j)
        {
          nd.sent_index[j - 1] =
            has_node(init_cfg, j) && j != n ? nd.len() : 0;
          nd.match_index[j - 1] = 0;
        }
      }
      // Nodes outside the initial configuration exist but are passive
      // joiners until a reconfiguration includes them.
    }
    return s;
  }

  std::vector<State> all_initial_states(const Params& params)
  {
    std::vector<State> out;
    const Bits universe = params.initial_bits();
    for (Bits subset = 1; subset < (1u << params.n_nodes); ++subset)
    {
      if ((subset & ~universe) != 0)
      {
        continue; // only subsets of the configured initial nodes
      }
      for (Nid leader = 1; leader <= params.n_nodes; ++leader)
      {
        if (!has_node(subset, leader))
        {
          continue;
        }
        Params variant = params;
        variant.initial_config = subset;
        variant.initial_leader = leader;
        out.push_back(initial_state(variant));
      }
    }
    return out;
  }

  bool participating(const Params& params, const SpecNode& node)
  {
    if (node.role == SRole::Retired)
    {
      return false;
    }
    if (node.membership == SMembership::Completed)
    {
      return false;
    }
    if (
      params.bugs.premature_retirement &&
      node.membership != SMembership::Active)
    {
      return false;
    }
    return true;
  }

  namespace
  {
    Bits targets_of(const SpecNode& node, Nid self)
    {
      // The spec over-approximates the implementation's target set: the
      // implementation keeps contacting a retired node only until it has
      // told it that its retirement committed, a bookkeeping detail the
      // spec abstracts by allowing sends to every known node. Retired
      // nodes are silent either way (participating() is false).
      return without_node(known_nodes(node), self);
    }

    void note_membership_on_append(SpecNode& nd, Nid self, const SpecEntry& e)
    {
      if (e.type != EType::Reconfig)
      {
        return;
      }
      if (nd.membership == SMembership::Completed)
      {
        return;
      }
      const bool in_latest = has_node(e.config, self);
      if (!in_latest && nd.membership == SMembership::Active)
      {
        nd.membership = SMembership::Ordered;
      }
      else if (in_latest && nd.membership == SMembership::Ordered)
      {
        nd.membership = SMembership::Active;
      }
    }

    void append_to(SpecNode& nd, Nid self, const SpecEntry& e)
    {
      nd.log.push_back(e);
      note_membership_on_append(nd, self, e);
    }

    /// Effects of commit moving from old_commit to nd.commit_index, for
    /// node `self`: membership transitions and retirement processing.
    /// Leaders defer their own role change to the ProposeVote action.
    void commit_effects(SpecNode& nd, Nid self, uint8_t old_commit)
    {
      for (uint8_t v = old_commit + 1; v <= nd.commit_index; ++v)
      {
        const SpecEntry& e = nd.log[v - 1];
        if (e.type == EType::Retire && e.payload == self)
        {
          nd.membership = SMembership::Completed;
          if (nd.role != SRole::Leader)
          {
            nd.role = SRole::Retired;
          }
        }
      }
      if (
        nd.membership == SMembership::Ordered &&
        !has_node(current_config(nd).nodes, self))
      {
        nd.membership = SMembership::Committed;
      }
    }

    bool log_up_to_date(const SpecNode& nd, uint8_t idx, uint8_t term)
    {
      if (term != nd.last_term())
      {
        return term > nd.last_term();
      }
      return idx >= nd.len();
    }

    void clear_leader_state(SpecNode& nd)
    {
      nd.votes_granted = 0;
      nd.sent_index.fill(0);
      nd.match_index.fill(0);
    }
  }

  void rollback_node(const Params& params, SpecNode& node, uint8_t new_last)
  {
    (void)params;
    SCV_CHECK(new_last >= node.commit_index);
    node.log.resize(new_last);
  }

  namespace actions
  {
    void timeout(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd))
      {
        return;
      }
      if (nd.role != SRole::Follower && nd.role != SRole::Candidate)
      {
        return;
      }
      if (!has_node(active_nodes(nd), i))
      {
        return;
      }

      State s2 = s;
      SpecNode& n2 = s2.node(i);
      if (!p.bugs.clear_committable_on_election)
      {
        const uint8_t k = std::max(
          n2.last_sig_at_or_before(n2.len()), n2.commit_index);
        if (k < n2.len())
        {
          rollback_node(p, n2, k);
          // Membership may revert if a pending removal was rolled back.
          if (
            n2.membership == SMembership::Ordered &&
            has_node(common_active_nodes(n2), i))
          {
            n2.membership = SMembership::Active;
          }
        }
      }
      n2.role = SRole::Candidate;
      n2.current_term += 1;
      n2.voted_for = i;
      n2.votes_granted = with_node(0, i);
      emit(std::move(s2));
    }

    void request_vote(
      const Params& p, const State& s, Nid i, Nid j, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (
        !participating(p, nd) || nd.role != SRole::Candidate ||
        !has_node(targets_of(nd, i), j))
      {
        return;
      }
      SpecMessage m;
      m.type = MType::RvReq;
      m.from = i;
      m.to = j;
      m.term = nd.current_term;
      m.last_log_idx = nd.len();
      m.last_log_term = nd.last_term();
      if (s.message_count(m) > 0)
      {
        return; // candidates request each vote once per term
      }
      State s2 = s;
      s2.add_message(m);
      emit(std::move(s2));
    }

    void become_leader(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd) || nd.role != SRole::Candidate)
      {
        return;
      }
      const bool q = p.bugs.quorum_union_tally ?
        quorum_in_union(nd, nd.votes_granted) :
        quorum_in_each(nd, nd.votes_granted);
      if (!q)
      {
        return;
      }
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      n2.role = SRole::Leader;
      const Bits targets = targets_of(n2, i);
      for (Nid j = 1; j <= s2.n_nodes; ++j)
      {
        n2.sent_index[j - 1] = has_node(targets, j) ? n2.len() : 0;
        n2.match_index[j - 1] = 0;
      }
      emit(std::move(s2));
    }

    void client_request(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (
        !participating(p, nd) || nd.role != SRole::Leader ||
        nd.membership != SMembership::Active ||
        s.next_request > p.max_requests)
      {
        return;
      }
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      append_to(n2, i, {n2.current_term, EType::Data, s2.next_request, 0});
      s2.next_request += 1;
      emit(std::move(s2));
    }

    void sign(const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd) || nd.role != SRole::Leader)
      {
        return;
      }
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      append_to(n2, i, {n2.current_term, EType::Sig, 0, 0});
      emit(std::move(s2));
    }

    void change_configuration(
      const Params& p,
      const State& s,
      Nid i,
      Bits cfg,
      const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (
        !participating(p, nd) || nd.role != SRole::Leader ||
        nd.membership != SMembership::Active || cfg == 0)
      {
        return;
      }
      if (latest_config(nd) == cfg)
      {
        return; // no-op reconfiguration
      }
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      const Bits known_before = targets_of(n2, i);
      append_to(n2, i, {n2.current_term, EType::Reconfig, 0, cfg});
      // Newly named nodes get replication state initialized at the
      // configuration entry (mirrors the implementation).
      const Bits known_after = targets_of(n2, i);
      for (Nid j = 1; j <= s2.n_nodes; ++j)
      {
        if (has_node(known_after, j) && !has_node(known_before, j))
        {
          n2.sent_index[j - 1] = n2.len();
          n2.match_index[j - 1] = 0;
        }
      }
      emit(std::move(s2));
    }

    void append_entries(
      const Params& p,
      const State& s,
      Nid i,
      Nid j,
      int forced_entries,
      const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (
        !participating(p, nd) || nd.role != SRole::Leader ||
        !has_node(targets_of(nd, i), j))
      {
        return;
      }
      const uint8_t start = std::min(nd.sent_index[j - 1], nd.len());
      if (start < nd.snap_idx)
      {
        // The window opens below the compaction point: those bodies are
        // gone on the implementation side, so the leader must offer the
        // snapshot instead (SendSnapshot).
        return;
      }
      const uint8_t max_end = std::min<uint8_t>(
        nd.len(), static_cast<uint8_t>(start + p.max_batch));

      const auto send_window = [&](uint8_t end) {
        SpecMessage m;
        m.type = MType::AeReq;
        m.from = i;
        m.to = j;
        m.term = nd.current_term;
        m.prev_idx = start;
        m.prev_term = nd.term_at(start);
        m.commit = nd.commit_index;
        for (uint8_t k = start + 1; k <= end; ++k)
        {
          m.entries.push_back(nd.at(k));
        }
        if (s.message_count(m) >= p.max_copies)
        {
          return;
        }
        State s2 = s;
        // Optimistic acknowledgement: sent index advances at send (§2.1).
        s2.node(i).sent_index[j - 1] = end;
        s2.add_message(m);
        emit(std::move(s2));
      };

      if (forced_entries >= 0)
      {
        const uint8_t end =
          static_cast<uint8_t>(start + static_cast<uint8_t>(forced_entries));
        if (end >= start && end <= nd.len())
        {
          send_window(end);
        }
        return;
      }
      for (uint8_t end = start; end <= max_end; ++end)
      {
        send_window(end);
      }
    }

    void compact_log(
      const Params& p,
      const State& s,
      Nid i,
      uint8_t idx,
      const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd))
      {
        return;
      }
      // Any committed signature above the current compaction point may
      // become the new one; the log content stays (ghost variables), only
      // the watermark moves — mirroring Ledger::compact, which drops entry
      // bodies but keeps the per-index metadata and Merkle leaves.
      if (
        idx == 0 || idx > nd.commit_index || idx <= nd.snap_idx ||
        nd.at(idx).type != EType::Sig)
      {
        return;
      }
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      n2.snap_idx = idx;
      n2.snap_term = nd.term_at(idx);
      emit(std::move(s2));
    }

    void send_snapshot(
      const Params& p, const State& s, Nid i, Nid j, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (
        !participating(p, nd) || nd.role != SRole::Leader ||
        !has_node(targets_of(nd, i), j))
      {
        return;
      }
      // Enabled exactly when AppendEntries is not: the follower's next
      // entry fell below the leader's compaction point.
      if (nd.snap_idx == 0 || nd.sent_index[j - 1] >= nd.snap_idx)
      {
        return;
      }
      SpecMessage m;
      m.type = MType::InstallSnap;
      m.from = i;
      m.to = j;
      m.term = nd.current_term;
      m.last_idx = nd.snap_idx;
      m.prev_term = nd.snap_term;
      m.commit = nd.snap_idx;
      for (uint8_t k = 1; k <= nd.snap_idx; ++k)
      {
        m.entries.push_back(nd.at(k));
      }
      if (s.message_count(m) >= p.max_copies)
      {
        return;
      }
      State s2 = s;
      // Optimistic acknowledgement, like AppendEntries: the send window
      // advances to the snapshot index; a NACK rolls it back.
      s2.node(i).sent_index[j - 1] = nd.snap_idx;
      s2.add_message(m);
      emit(std::move(s2));
    }

    void handle_install_snapshot(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::InstallSnap || m.to != to ||
        s.message_count(m) == 0 || !participating(p, s.node(to)))
      {
        return;
      }
      const SpecNode& nd = s.node(to);
      if (m.term > nd.current_term)
      {
        return; // UpdateTerm must fire first
      }

      State s2 = s;
      s2.remove_message(m);
      SpecNode& n2 = s2.node(to);

      const auto reply = [&](bool success, uint8_t last_idx) {
        SpecMessage r;
        r.type = MType::AeResp;
        r.from = to;
        r.to = m.from;
        r.term = n2.current_term;
        r.success = success;
        r.last_idx = last_idx;
        s2.add_message(r);
      };

      if (m.term < n2.current_term)
      {
        reply(false, 0);
        emit(std::move(s2));
        return;
      }
      if (n2.role == SRole::Leader)
      {
        emit(std::move(s2)); // same-term snapshot to a leader: consumed, ignored
        return;
      }
      if (n2.role == SRole::Candidate)
      {
        n2.role = SRole::Follower;
        clear_leader_state(n2);
      }

      if (m.last_idx <= n2.commit_index)
      {
        // Already covered: acknowledge progress without installing
        // (mirrors the implementation, which keeps its longer prefix).
        reply(true, n2.commit_index);
        emit(std::move(s2));
        return;
      }

      // Install: the snapshot prefix replaces the log wholesale —
      // committed prefixes agree across nodes (LogInv), so this only
      // rewrites uncommitted divergence. Membership is replayed from the
      // installed prefix, exactly as the implementation reseeds its
      // retired set and configurations from the snapshot artifact.
      n2.log.assign(m.entries.begin(), m.entries.end());
      n2.membership = SMembership::Active;
      bool ever_member = false;
      for (const SpecEntry& e : n2.log)
      {
        note_membership_on_append(n2, to, e);
        if (e.type == EType::Reconfig && has_node(e.config, to))
        {
          ever_member = true;
        }
      }
      const uint8_t old_commit = 0;
      n2.commit_index = m.last_idx;
      n2.snap_idx = m.last_idx;
      n2.snap_term = m.prev_term;
      commit_effects(n2, to, old_commit);
      if (!ever_member)
      {
        // A joiner that appears in no configuration of the prefix is not
        // in the retirement pipeline — it simply is not a member yet. The
        // replay above would have parked it at Ordered/Committed via the
        // configs that exclude it; a passive joiner is Active (the same
        // state initial_state gives nodes outside the initial config).
        n2.membership = SMembership::Active;
      }
      reply(true, m.last_idx);
      emit(std::move(s2));
    }

    void handle_ae_request(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::AeReq || m.to != to || s.message_count(m) == 0 ||
        !participating(p, s.node(to)))
      {
        return;
      }
      const SpecNode& nd = s.node(to);
      if (m.term > nd.current_term)
      {
        return; // UpdateTerm must fire first (separate grain of atomicity)
      }

      State s2 = s;
      s2.remove_message(m);
      SpecNode& n2 = s2.node(to);

      const auto reply = [&](bool success, uint8_t last_idx) {
        SpecMessage r;
        r.type = MType::AeResp;
        r.from = to;
        r.to = m.from;
        r.term = n2.current_term;
        r.success = success;
        r.last_idx = last_idx;
        s2.add_message(r);
      };

      if (m.term < n2.current_term)
      {
        reply(false, 0);
        emit(std::move(s2));
        return;
      }
      if (n2.role == SRole::Leader)
      {
        emit(std::move(s2)); // same-term AE to a leader: consumed, ignored
        return;
      }
      if (n2.role == SRole::Candidate)
      {
        n2.role = SRole::Follower;
        clear_leader_state(n2);
      }

      const bool have_prev = m.prev_idx == 0 ||
        (m.prev_idx <= n2.len() && n2.term_at(m.prev_idx) == m.prev_term);

      if (!have_prev)
      {
        uint8_t bound = std::min(m.prev_idx, n2.len());
        if (
          bound == m.prev_idx && bound >= 1 &&
          n2.term_at(bound) <= m.prev_term)
        {
          bound -= 1;
        }
        reply(false, n2.agreement_estimate(bound, m.prev_term));
        emit(std::move(s2));
        return;
      }

      if (p.bugs.truncate_on_early_ae && n2.len() > m.prev_idx)
      {
        // Bug 4: optimistic rollback on any early AE; may truncate
        // committed entries.
        if (m.prev_idx < n2.commit_index)
        {
          n2.commit_index = m.prev_idx;
        }
        rollback_node(p, n2, m.prev_idx);
      }

      uint8_t idx = m.prev_idx;
      for (const SpecEntry& e : m.entries)
      {
        idx += 1;
        if (idx <= n2.len())
        {
          if (n2.term_at(idx) != e.term)
          {
            rollback_node(p, n2, idx - 1);
            append_to(n2, to, e);
          }
        }
        else
        {
          append_to(n2, to, e);
        }
      }

      const uint8_t ae_end =
        static_cast<uint8_t>(m.prev_idx + m.entries.size());
      // Commit snaps to the last signature within the confirmed window.
      const uint8_t commit_target =
        n2.last_sig_at_or_before(std::min(m.commit, ae_end));
      if (commit_target > n2.commit_index)
      {
        const uint8_t old = n2.commit_index;
        n2.commit_index = commit_target;
        commit_effects(n2, to, old);
      }

      reply(true, p.bugs.ack_local_last_idx ? n2.len() : ae_end);
      emit(std::move(s2));
    }

    void handle_ae_response(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::AeResp || m.to != to || s.message_count(m) == 0 ||
        !participating(p, s.node(to)))
      {
        return;
      }
      const SpecNode& nd = s.node(to);
      if (m.term > nd.current_term)
      {
        return; // UpdateTerm first
      }
      State s2 = s;
      s2.remove_message(m);
      SpecNode& n2 = s2.node(to);
      if (m.term < n2.current_term || n2.role != SRole::Leader)
      {
        emit(std::move(s2)); // stale or not leading: consumed, ignored
        return;
      }
      const Nid j = m.from;
      if (m.success)
      {
        n2.match_index[j - 1] = std::max(n2.match_index[j - 1], m.last_idx);
        n2.sent_index[j - 1] = std::max(n2.sent_index[j - 1], m.last_idx);
      }
      else
      {
        if (p.bugs.nack_overwrites_match_index)
        {
          // Bug 3: the NACK estimate overwrites match_index.
          n2.match_index[j - 1] = m.last_idx;
        }
        n2.sent_index[j - 1] = std::min(m.last_idx, n2.len());
      }
      emit(std::move(s2));
    }

    void handle_rv_request(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::RvReq || m.to != to || s.message_count(m) == 0 ||
        !participating(p, s.node(to)))
      {
        return;
      }
      const SpecNode& nd = s.node(to);
      if (m.term > nd.current_term)
      {
        return; // UpdateTerm first
      }
      State s2 = s;
      s2.remove_message(m);
      SpecNode& n2 = s2.node(to);
      const bool grant = m.term == n2.current_term &&
        (n2.voted_for == 0 || n2.voted_for == m.from) &&
        log_up_to_date(n2, m.last_log_idx, m.last_log_term);
      if (grant)
      {
        n2.voted_for = m.from;
      }
      SpecMessage r;
      r.type = MType::RvResp;
      r.from = to;
      r.to = m.from;
      r.term = n2.current_term;
      r.success = grant;
      s2.add_message(r);
      emit(std::move(s2));
    }

    void handle_rv_response(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::RvResp || m.to != to || s.message_count(m) == 0 ||
        !participating(p, s.node(to)))
      {
        return;
      }
      const SpecNode& nd = s.node(to);
      if (m.term > nd.current_term)
      {
        return; // UpdateTerm first
      }
      State s2 = s;
      s2.remove_message(m);
      SpecNode& n2 = s2.node(to);
      if (
        m.term == n2.current_term && n2.role == SRole::Candidate && m.success)
      {
        n2.votes_granted = with_node(n2.votes_granted, m.from);
      }
      emit(std::move(s2));
    }

    void update_term(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd))
      {
        return;
      }
      // One successor per distinct higher term observable in the network,
      // in first-occurrence order (the order successors, and so store ids,
      // come out in). Terms are 8-bit: a 256-bit seen-set dedups them
      // without allocating.
      SmallVec<uint8_t, 16> terms;
      std::bitset<256> seen;
      for (const auto& [msg, count] : s.network)
      {
        if (msg.to == i && msg.term > nd.current_term && !seen[msg.term])
        {
          seen.set(msg.term);
          terms.push_back(msg.term);
        }
      }
      for (const uint8_t t : terms)
      {
        State s2 = s;
        SpecNode& n2 = s2.node(i);
        n2.current_term = t;
        n2.voted_for = 0;
        if (n2.role == SRole::Leader || n2.role == SRole::Candidate)
        {
          n2.role = SRole::Follower;
          clear_leader_state(n2);
        }
        emit(std::move(s2));
      }
    }

    void check_quorum(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd) || nd.role != SRole::Leader)
      {
        return;
      }
      // Listing 3: the spec abstracts timeouts — a leader may abdicate at
      // any moment.
      State s2 = s;
      SpecNode& n2 = s2.node(i);
      n2.role = SRole::Follower;
      clear_leader_state(n2);
      emit(std::move(s2));
    }

    void propose_vote(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      (void)p;
      const SpecNode& nd = s.node(i);
      if (nd.role != SRole::Leader || nd.membership != SMembership::Completed)
      {
        return;
      }
      // Nominate any member of the surviving configuration, or retire
      // without nominating (no eligible successor).
      const Bits config = current_config(nd).nodes;
      for (Nid j = 1; j <= s.n_nodes; ++j)
      {
        if (j == i || !has_node(config, j))
        {
          continue;
        }
        State s2 = s;
        SpecMessage m;
        m.type = MType::ProposeVote;
        m.from = i;
        m.to = j;
        m.term = nd.current_term;
        s2.add_message(m);
        s2.node(i).role = SRole::Retired;
        emit(std::move(s2));
      }
      State s2 = s;
      s2.node(i).role = SRole::Retired;
      emit(std::move(s2));
    }

    void handle_propose_vote(
      const Params& p,
      const State& s,
      Nid to,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      if (
        m.type != MType::ProposeVote || m.to != to ||
        s.message_count(m) == 0 || !participating(p, s.node(to)))
      {
        return;
      }
      // ProposeVote only fast-tracks an election the always-enabled
      // Timeout action can take anyway (§4: no clock-synchrony
      // assumptions), so the spec models its receipt as consumption; the
      // recipient's candidacy is a separate Timeout step. This also keeps
      // the grain of atomicity aligned with the implementation trace,
      // which logs recvPV and becomeCandidate as two events.
      State s2 = s;
      s2.remove_message(m);
      emit(std::move(s2));
    }

    void advance_commit(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd) || nd.role != SRole::Leader)
      {
        return;
      }
      for (uint8_t idx = nd.commit_index + 1; idx <= nd.len(); ++idx)
      {
        if (nd.log[idx - 1].type != EType::Sig)
        {
          continue;
        }
        Bits have = with_node(0, i);
        for (Nid j = 1; j <= s.n_nodes; ++j)
        {
          if (j != i && nd.match_index[j - 1] >= idx)
          {
            have = with_node(have, j);
          }
        }
        const bool q = p.bugs.quorum_union_tally ?
          quorum_in_union(nd, have) :
          quorum_in_each(nd, have);
        if (!q)
        {
          continue;
        }
        if (!p.bugs.commit_prev_term && nd.term_at(idx) != nd.current_term)
        {
          // Raft §5.4.2: only entries from the current term advance commit.
          continue;
        }
        State s2 = s;
        SpecNode& n2 = s2.node(i);
        const uint8_t old = n2.commit_index;
        n2.commit_index = idx;
        commit_effects(n2, i, old);
        emit(std::move(s2));
      }
    }

    void append_retirement(
      const Params& p, const State& s, Nid i, const Emit<State>& emit)
    {
      const SpecNode& nd = s.node(i);
      if (!participating(p, nd) || nd.role != SRole::Leader)
      {
        return;
      }
      const Bits removed =
        static_cast<Bits>(known_nodes(nd) & ~active_nodes(nd));
      for (Nid n = 1; n <= s.n_nodes; ++n)
      {
        if (!has_node(removed, n))
        {
          continue;
        }
        bool exists = false;
        for (const SpecEntry& e : nd.log)
        {
          if (e.type == EType::Retire && e.payload == n)
          {
            exists = true;
            break;
          }
        }
        if (exists)
        {
          continue;
        }
        State s2 = s;
        append_to(s2.node(i), i, {nd.current_term, EType::Retire, n, 0});
        emit(std::move(s2));
      }
    }

    void drop_message(
      const State& s, const SpecMessage& m, const Emit<State>& emit)
    {
      if (s.message_count(m) == 0)
      {
        return;
      }
      State s2 = s;
      s2.remove_message(m);
      emit(std::move(s2));
    }

    void duplicate_message(
      const Params& p,
      const State& s,
      const SpecMessage& m,
      const Emit<State>& emit)
    {
      const uint8_t copies = s.message_count(m);
      if (
        copies == 0 || copies >= p.max_copies ||
        s.network_size() >= p.max_network)
      {
        return;
      }
      State s2 = s;
      s2.add_message(m);
      emit(std::move(s2));
    }
  }

  spec::SpecDef<State> build_spec(const Params& params)
  {
    using spec::Action;
    using spec::Emit;
    namespace a = actions;

    spec::SpecDef<State> def;
    def.name = "ccfraft";
    def.init.push_back(initial_state(params));

    const Params p = params; // captured by value in every action

    const auto for_each_node = [p](auto fn) {
      return [p, fn](const State& s, const Emit<State>& emit) {
        for (Nid i = 1; i <= s.n_nodes; ++i)
        {
          fn(p, s, i, emit);
        }
      };
    };

    const auto for_each_message =
      [p](MType type, auto fn) {
        return [p, type, fn](const State& s, const Emit<State>& emit) {
          // Snapshot: handlers mutate copies, not s.
          for (const auto& [msg, count] : s.network)
          {
            if (msg.type == type)
            {
              fn(p, s, msg.to, msg, emit);
            }
          }
        };
      };

    def.actions.push_back(
      {"Timeout", for_each_node(a::timeout), p.failure_weight});
    def.actions.push_back(
      {"RequestVote",
       [p](const State& s, const Emit<State>& emit) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (Nid j = 1; j <= s.n_nodes; ++j)
           {
             if (i != j)
             {
               a::request_vote(p, s, i, j, emit);
             }
           }
         }
       },
       1.0});
    def.actions.push_back(
      {"BecomeLeader", for_each_node(a::become_leader), 1.0});
    def.actions.push_back(
      {"ClientRequest", for_each_node(a::client_request), 1.0});
    def.actions.push_back(
      {"SignCommittableMessages", for_each_node(a::sign), 1.0});
    def.actions.push_back(
      {"ChangeConfiguration",
       [p](const State& s, const Emit<State>& emit) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (const Bits cfg : p.allowed_reconfigs)
           {
             a::change_configuration(p, s, i, cfg, emit);
           }
         }
       },
       1.0});
    def.actions.push_back(
      {"AppendEntries",
       [p](const State& s, const Emit<State>& emit) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (Nid j = 1; j <= s.n_nodes; ++j)
           {
             if (i != j)
             {
               a::append_entries(p, s, i, j, -1, emit);
             }
           }
         }
       },
       1.0});
    if (params.enable_snapshots)
    {
      def.actions.push_back(
        {"CompactLog",
         [p](const State& s, const Emit<State>& emit) {
           for (Nid i = 1; i <= s.n_nodes; ++i)
           {
             const SpecNode& nd = s.node(i);
             for (uint8_t idx = nd.snap_idx + 1; idx <= nd.commit_index;
                  ++idx)
             {
               if (idx <= nd.len() && nd.at(idx).type == EType::Sig)
               {
                 a::compact_log(p, s, i, idx, emit);
               }
             }
           }
         },
         p.failure_weight});
      def.actions.push_back(
        {"SendSnapshot",
         [p](const State& s, const Emit<State>& emit) {
           for (Nid i = 1; i <= s.n_nodes; ++i)
           {
             for (Nid j = 1; j <= s.n_nodes; ++j)
             {
               if (i != j)
               {
                 a::send_snapshot(p, s, i, j, emit);
               }
             }
           }
         },
         1.0});
      def.actions.push_back(
        {"HandleInstallSnapshotRequest",
         for_each_message(MType::InstallSnap, a::handle_install_snapshot),
         1.0});
    }
    def.actions.push_back(
      {"HandleAppendEntriesRequest",
       for_each_message(MType::AeReq, a::handle_ae_request),
       1.0});
    def.actions.push_back(
      {"HandleAppendEntriesResponse",
       for_each_message(MType::AeResp, a::handle_ae_response),
       1.0});
    def.actions.push_back(
      {"HandleRequestVoteRequest",
       for_each_message(MType::RvReq, a::handle_rv_request),
       1.0});
    def.actions.push_back(
      {"HandleRequestVoteResponse",
       for_each_message(MType::RvResp, a::handle_rv_response),
       1.0});
    def.actions.push_back(
      {"UpdateTerm", for_each_node(a::update_term), 1.0});
    def.actions.push_back(
      {"CheckQuorum", for_each_node(a::check_quorum), p.failure_weight});
    def.actions.push_back(
      {"ProposeVote", for_each_node(a::propose_vote), 1.0});
    def.actions.push_back(
      {"HandleProposeVote",
       for_each_message(MType::ProposeVote, a::handle_propose_vote),
       1.0});
    def.actions.push_back(
      {"AdvanceCommitIndex", for_each_node(a::advance_commit), 1.0});
    def.actions.push_back(
      {"AppendRetirement", for_each_node(a::append_retirement), 1.0});

    // Network module faults (§4: weighted down for simulation coverage).
    def.actions.push_back(
      {"DropMessage",
       [](const State& s, const Emit<State>& emit) {
         for (const auto& [msg, count] : s.network)
         {
           a::drop_message(s, msg, emit);
         }
       },
       p.failure_weight});
    def.actions.push_back(
      {"DuplicateMessage",
       [p](const State& s, const Emit<State>& emit) {
         for (const auto& [msg, count] : s.network)
         {
           a::duplicate_message(p, s, msg, emit);
         }
       },
       p.failure_weight});

    def.invariants = build_invariants(params);
    def.action_properties = build_action_properties(params);

    def.constraint = [p](const State& s) {
      if (s.network_size() > p.max_network)
      {
        return false;
      }
      for (Nid i = 1; i <= s.n_nodes; ++i)
      {
        if (
          s.node(i).current_term > p.max_term ||
          s.node(i).len() > p.max_log_len)
        {
          return false;
        }
      }
      return true;
    };

    // Node-permutation symmetry (inert unless an engine opts in via
    // EngineOptions::symmetry).
    def.symmetry = node_symmetry(params);

    return def;
  }
}
