#include "trace/consensus_binding.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "trace/preprocess.h"

namespace scv::trace
{
  using specs::ccfraft::Bits;
  using specs::ccfraft::MType;
  using specs::ccfraft::Nid;
  using specs::ccfraft::Params;
  using specs::ccfraft::SpecMessage;
  using specs::ccfraft::SpecNode;
  using specs::ccfraft::SRole;
  using specs::ccfraft::State;
  using spec::Emit;
  using spec::TraceLineExpander;
  namespace actions = specs::ccfraft::actions;

  specs::ccfraft::Params validation_params(
    const std::vector<uint64_t>& initial_config,
    uint64_t initial_leader,
    uint8_t n_nodes,
    consensus::BugFlags spec_bugs)
  {
    Params p;
    p.n_nodes = n_nodes;
    Bits bits = 0;
    for (const uint64_t n : initial_config)
    {
      bits = specs::ccfraft::with_node(bits, static_cast<Nid>(n));
    }
    p.initial_config = bits;
    p.initial_leader = static_cast<Nid>(initial_leader);
    p.bugs = spec_bugs;
    // Trace validation needs no model bounds: the trace itself constrains
    // the reachable states. Guards that exist purely for state-space
    // control (resend caps) are effectively disabled.
    p.max_term = 255;
    p.max_requests = 250;
    p.max_log_len = 255;
    p.max_batch = 255;
    p.max_network = 255;
    p.max_copies = 200;
    return p;
  }

  namespace
  {
    std::string describe(const TraceEvent& e)
    {
      std::ostringstream os;
      os << to_string(e.kind) << " node=" << e.node;
      if (e.peer != 0)
      {
        os << " peer=" << e.peer;
      }
      os << " term=" << e.term << " len=" << e.log_len
         << " commit=" << e.commit_idx;
      if (e.msg_term != 0)
      {
        os << " msg_term=" << e.msg_term;
      }
      return os.str();
    }

    /// Enablement condition on the current state (recv-style events log
    /// the pre-state): the acting node's recorded variables must match.
    bool pre_state_matches(const State& s, const TraceEvent& e)
    {
      const SpecNode& n = s.node(static_cast<Nid>(e.node));
      return n.current_term == e.term && n.len() == e.log_len &&
        n.commit_index == e.commit_idx;
    }

    /// Assertion on a successor state (snd/internal events log the
    /// post-state).
    bool post_state_matches(const State& s, const TraceEvent& e)
    {
      return pre_state_matches(s, e);
    }

    /// All in-flight messages matching a predicate (the trace identifies
    /// messages by their logged fields, not by identity).
    template <class Pred>
    std::vector<SpecMessage> matching_messages(const State& s, Pred pred)
    {
      std::vector<SpecMessage> out;
      for (const auto& [msg, count] : s.network)
      {
        if (pred(msg))
        {
          out.push_back(msg);
        }
      }
      return out;
    }

    /// Composes UpdateTerm(node) with a handler when the message term is
    /// above the node's current term — the piggybacked-term grain of
    /// atomicity (§6.2.1). Calls `next` on each state in which the
    /// handler is enabled term-wise.
    template <class Next>
    void with_update_term(
      const Params& p, const State& s, Nid node, uint64_t msg_term, Next&& next)
    {
      if (s.node(node).current_term >= msg_term)
      {
        next(s);
        return;
      }
      actions::update_term(p, s, node, [&](State&& s2) {
        if (s2.node(node).current_term >= msg_term)
        {
          next(s2);
        }
      });
    }

    TraceLineExpander<State> bind_line(
      const TraceEvent& e,
      const Params& p,
      const std::optional<TraceEvent>& reply_lookahead)
    {
      const Nid node = static_cast<Nid>(e.node);
      const Nid peer = static_cast<Nid>(e.peer);

      TraceLineExpander<State> line;
      line.description = describe(e);

      switch (e.kind)
      {
        case EventKind::SendAppendEntries:
          // IsSendAppendEntries (Listing 5): enablement on current state,
          // reuse AppendEntries, assert the network gained a matching
          // request.
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            if (e.prev_idx + e.n_entries > s.node(node).len())
            {
              return; // the logged window does not exist in the spec log
            }
            SpecMessage m;
            m.type = MType::AeReq;
            m.from = node;
            m.to = peer;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.prev_idx = static_cast<uint8_t>(e.prev_idx);
            m.prev_term = static_cast<uint8_t>(e.prev_term);
            m.commit = static_cast<uint8_t>(e.last_idx);
            for (uint64_t k = 0; k < e.n_entries; ++k)
            {
              m.entries.push_back(
                s.node(node).at(static_cast<uint8_t>(e.prev_idx + 1 + k)));
            }
            actions::append_entries(
              p, s, node, peer, static_cast<int>(e.n_entries),
              [&](State&& s2) {
                if (s2.message_count(m) > s.message_count(m))
                {
                  emit(std::move(s2));
                }
              });
          };
          break;

        case EventKind::RecvAppendEntries:
          // `reply` (when the trace shows the node answering next) pins
          // the handler's response — the Network!OneMoreMessage(m)
          // assertion of Listing 5 — so a stale identical ack elsewhere
          // in the network cannot mask a divergent reply.
          line.expand = [e, p, node, peer, reply = reply_lookahead](
                          const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            const auto candidates = matching_messages(s, [&](const SpecMessage& m) {
              return m.type == MType::AeReq && m.from == peer &&
                m.to == node && m.term == e.msg_term &&
                m.prev_idx == e.prev_idx && m.prev_term == e.prev_term &&
                m.entries.size() == e.n_entries && m.commit == e.last_idx;
            });
            for (const SpecMessage& m : candidates)
            {
              with_update_term(p, s, node, e.msg_term, [&](const State& s1) {
                actions::handle_ae_request(p, s1, node, m, [&](State&& s2) {
                  if (reply.has_value())
                  {
                    SpecMessage r;
                    r.type = MType::AeResp;
                    r.from = node;
                    r.to = static_cast<Nid>(reply->peer);
                    r.term = static_cast<uint8_t>(reply->msg_term);
                    r.success = reply->success;
                    r.last_idx = static_cast<uint8_t>(reply->last_idx);
                    if (s2.message_count(r) <= s1.message_count(r))
                    {
                      return; // the spec's reply differs from the trace's
                    }
                  }
                  emit(std::move(s2));
                });
              });
            }
          };
          break;

        case EventKind::SendAppendEntriesResponse:
          // IsSendAppendEntriesResponse: finite stuttering — the response
          // entered the network during the receive handling; assert it is
          // there and the node state matches (UNCHANGED vars).
          line.expand = [e, node, peer](const State& s, const Emit<State>& emit) {
            if (!post_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::AeResp;
            m.from = node;
            m.to = peer;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.success = e.success;
            m.last_idx = static_cast<uint8_t>(e.last_idx);
            if (s.message_count(m) > 0)
            {
              emit(s);
            }
          };
          break;

        case EventKind::RecvAppendEntriesResponse:
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::AeResp;
            m.from = peer;
            m.to = node;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.success = e.success;
            m.last_idx = static_cast<uint8_t>(e.last_idx);
            if (s.message_count(m) == 0)
            {
              return;
            }
            with_update_term(p, s, node, e.msg_term, [&](const State& s1) {
              actions::handle_ae_response(p, s1, node, m, emit);
            });
          };
          break;

        case EventKind::SendRequestVote:
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            actions::request_vote(p, s, node, peer, [&](State&& s2) {
              SpecMessage m;
              m.type = MType::RvReq;
              m.from = node;
              m.to = peer;
              m.term = static_cast<uint8_t>(e.msg_term);
              m.last_log_idx = static_cast<uint8_t>(e.prev_idx);
              m.last_log_term = static_cast<uint8_t>(e.prev_term);
              if (s2.message_count(m) > s.message_count(m))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::RecvRequestVote:
          line.expand = [e, p, node, peer, reply = reply_lookahead](
                          const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::RvReq;
            m.from = peer;
            m.to = node;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.last_log_idx = static_cast<uint8_t>(e.prev_idx);
            m.last_log_term = static_cast<uint8_t>(e.prev_term);
            if (s.message_count(m) == 0)
            {
              return;
            }
            with_update_term(p, s, node, e.msg_term, [&](const State& s1) {
              actions::handle_rv_request(p, s1, node, m, [&](State&& s2) {
                if (reply.has_value())
                {
                  SpecMessage r;
                  r.type = MType::RvResp;
                  r.from = node;
                  r.to = static_cast<Nid>(reply->peer);
                  r.term = static_cast<uint8_t>(reply->msg_term);
                  r.success = reply->success;
                  if (s2.message_count(r) <= s1.message_count(r))
                  {
                    return;
                  }
                }
                emit(std::move(s2));
              });
            });
          };
          break;

        case EventKind::SendRequestVoteResponse:
          line.expand = [e, node, peer](const State& s, const Emit<State>& emit) {
            if (!post_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::RvResp;
            m.from = node;
            m.to = peer;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.success = e.success;
            if (s.message_count(m) > 0)
            {
              emit(s);
            }
          };
          break;

        case EventKind::RecvRequestVoteResponse:
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::RvResp;
            m.from = peer;
            m.to = node;
            m.term = static_cast<uint8_t>(e.msg_term);
            m.success = e.success;
            if (s.message_count(m) == 0)
            {
              return;
            }
            with_update_term(p, s, node, e.msg_term, [&](const State& s1) {
              actions::handle_rv_response(p, s1, node, m, emit);
            });
          };
          break;

        case EventKind::SendProposeVote:
          // The retiring leader's ProposeVote action both sends and
          // retires.
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            actions::propose_vote(p, s, node, [&](State&& s2) {
              SpecMessage m;
              m.type = MType::ProposeVote;
              m.from = node;
              m.to = peer;
              m.term = static_cast<uint8_t>(e.msg_term);
              if (s2.message_count(m) > s.message_count(m))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::RecvProposeVote:
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            SpecMessage m;
            m.type = MType::ProposeVote;
            m.from = peer;
            m.to = node;
            m.term = static_cast<uint8_t>(e.msg_term);
            if (s.message_count(m) == 0)
            {
              return;
            }
            actions::handle_propose_vote(p, s, node, m, emit);
          };
          break;

        case EventKind::BecomeCandidate:
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            actions::timeout(p, s, node, [&](State&& s2) {
              if (post_state_matches(s2, e))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::BecomeLeader:
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            actions::become_leader(p, s, node, [&](State&& s2) {
              if (post_state_matches(s2, e))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::BecomeFollower:
          // Stuttering: the role change happened inside UpdateTerm /
          // HandleAppendEntriesRequest / CheckQuorum. The event is logged
          // at the moment of the role change, which can precede appends
          // and commit advancement within the same handler, so the log
          // length and commit index are lower bounds on the spec state.
          line.expand = [e, node](const State& s, const Emit<State>& emit) {
            const SpecNode& n = s.node(node);
            if (
              n.current_term == e.term && n.len() >= e.log_len &&
              n.commit_index >= e.commit_idx &&
              n.role != SRole::Leader && n.role != SRole::Candidate)
            {
              emit(s);
            }
          };
          break;

        case EventKind::ClientRequest:
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            actions::client_request(p, s, node, [&](State&& s2) {
              if (post_state_matches(s2, e))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::EmitSignature:
          // A signature may follow retirement transactions the
          // implementation appended in the same commit step: compose
          // (AppendRetirement)* · Sign until the logged log length is
          // reached.
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            const auto try_sign =
              [&](const State& s1) {
                actions::sign(p, s1, node, [&](State&& s2) {
                  if (post_state_matches(s2, e))
                  {
                    emit(std::move(s2));
                  }
                });
              };
            // Direct signature.
            try_sign(s);
            // With up to n_nodes retirement appends composed in front.
            std::vector<State> layer = {s};
            for (uint8_t k = 0; k < s.n_nodes; ++k)
            {
              std::vector<State> next_layer;
              for (const State& s1 : layer)
              {
                actions::append_retirement(p, s1, node, [&](State&& s2) {
                  try_sign(s2);
                  next_layer.push_back(std::move(s2));
                });
              }
              if (next_layer.empty())
              {
                break;
              }
              layer = std::move(next_layer);
            }
          };
          break;

        case EventKind::AdvanceCommit:
          // On a leader this is the AdvanceCommitIndex action; on a
          // follower the commit moved inside the AE receive handling and
          // this line is stuttering. Emit both possibilities.
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            if (pre_state_matches(s, e))
            {
              emit(s); // already advanced during a receive: stutter
            }
            actions::advance_commit(p, s, node, [&](State&& s2) {
              if (post_state_matches(s2, e))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::ChangeConfiguration:
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            Bits cfg = 0;
            for (const uint64_t n : e.config)
            {
              cfg = specs::ccfraft::with_node(cfg, static_cast<Nid>(n));
            }
            actions::change_configuration(
              p, s, node, cfg, [&](State&& s2) {
                if (post_state_matches(s2, e))
                {
                  emit(std::move(s2));
                }
              });
          };
          break;

        case EventKind::CheckQuorumStepDown:
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            actions::check_quorum(p, s, node, [&](State&& s2) {
              if (post_state_matches(s2, e))
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::Rollback:
          // Rollback happens inside Timeout (before the becomeCandidate
          // line) or inside AE receive handling (after the recvAE line,
          // between the truncation and the re-append, so the recorded log
          // length is a lower bound on the atomic spec state). Accept as
          // stuttering with the soundly comparable fields only.
          line.expand = [e, node](const State& s, const Emit<State>& emit) {
            const SpecNode& n = s.node(node);
            if (
              n.current_term <= e.term && n.commit_index >= e.commit_idx &&
              n.len() >= e.last_idx)
            {
              emit(s);
            }
          };
          break;

        case EventKind::Retire:
          // Usually stuttering (commit_effects retired the node); a
          // leader with no nominee retires via the message-less
          // ProposeVote variant.
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            if (s.node(node).role == SRole::Retired && post_state_matches(s, e))
            {
              emit(s);
            }
            if (s.node(node).role == SRole::Leader)
            {
              actions::propose_vote(p, s, node, [&](State&& s2) {
                if (
                  s2.network_size() == s.network_size() &&
                  post_state_matches(s2, e))
                {
                  emit(std::move(s2));
                }
              });
            }
          };
          break;

        case EventKind::SendInstallSnapshot:
          // Like IsSendAppendEntries: enablement on current state, reuse
          // SendSnapshot, assert the network gained the matching offer
          // (last_idx = snapshot index, prev_term = snapshot term).
          line.expand = [e, p, node, peer](const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            actions::send_snapshot(p, s, node, peer, [&](State&& s2) {
              const auto gained = matching_messages(s2, [&](const SpecMessage& m) {
                return m.type == MType::InstallSnap && m.from == node &&
                  m.to == peer && m.term == e.msg_term &&
                  m.last_idx == e.last_idx && m.prev_term == e.prev_term &&
                  s2.message_count(m) > s.message_count(m);
              });
              if (!gained.empty())
              {
                emit(std::move(s2));
              }
            });
          };
          break;

        case EventKind::RecvInstallSnapshot:
          // Mirrors RecvAppendEntries: the handler answers with an
          // ordinary AppendEntries response, which the trace's next
          // sndAER line pins.
          line.expand = [e, p, node, peer, reply = reply_lookahead](
                          const State& s, const Emit<State>& emit) {
            if (!pre_state_matches(s, e))
            {
              return;
            }
            const auto candidates = matching_messages(s, [&](const SpecMessage& m) {
              return m.type == MType::InstallSnap && m.from == peer &&
                m.to == node && m.term == e.msg_term &&
                m.last_idx == e.last_idx && m.prev_term == e.prev_term;
            });
            for (const SpecMessage& m : candidates)
            {
              with_update_term(p, s, node, e.msg_term, [&](const State& s1) {
                actions::handle_install_snapshot(
                  p, s1, node, m, [&](State&& s2) {
                    if (reply.has_value())
                    {
                      SpecMessage r;
                      r.type = MType::AeResp;
                      r.from = node;
                      r.to = static_cast<Nid>(reply->peer);
                      r.term = static_cast<uint8_t>(reply->msg_term);
                      r.success = reply->success;
                      r.last_idx = static_cast<uint8_t>(reply->last_idx);
                      if (s2.message_count(r) <= s1.message_count(r))
                      {
                        return;
                      }
                    }
                    emit(std::move(s2));
                  });
              });
            }
          };
          break;

        case EventKind::CompactLedger:
          // CompactLog only moves the ghost watermark; the logged
          // post-state (term, log length, commit) is unchanged by it.
          line.expand = [e, p, node](const State& s, const Emit<State>& emit) {
            actions::compact_log(
              p, s, node, static_cast<uint8_t>(e.last_idx),
              [&](State&& s2) {
                if (post_state_matches(s2, e))
                {
                  emit(std::move(s2));
                }
              });
            // Stuttering variant: an install (recvIS) both sets the
            // watermark and logs a separate compact line on some hosts;
            // accept the already-compacted state.
            if (
              s.node(node).snap_idx >= e.last_idx && pre_state_matches(s, e))
            {
              emit(s);
            }
          };
          break;

        case EventKind::Bootstrap:
          // Preprocessing strips these; tolerate as stuttering if present.
          line.expand = [](const State& s, const Emit<State>& emit) {
            emit(s);
          };
          break;
      }
      return line;
    }
  }

  namespace
  {
    /// The response a receive handler emits shows up as the acting node's
    /// next sndAER/sndRVR line (internal transitions logged in between —
    /// becomeFollower, rollback, advanceCommit, retire — happen within
    /// the same implementation step).
    std::optional<TraceEvent> reply_lookahead_for(
      const std::vector<TraceEvent>& events, size_t index)
    {
      const TraceEvent& e = events[index];
      // Snapshot installs are acknowledged with an ordinary
      // AppendEntries response, so recvIS expects the same reply kind.
      const EventKind wanted = e.kind == EventKind::RecvRequestVote ?
        EventKind::SendRequestVoteResponse :
        EventKind::SendAppendEntriesResponse;
      for (size_t k = index + 1; k < events.size(); ++k)
      {
        if (events[k].node != e.node)
        {
          continue;
        }
        switch (events[k].kind)
        {
          case EventKind::BecomeFollower:
          case EventKind::Rollback:
          case EventKind::AdvanceCommit:
          case EventKind::Retire:
            continue; // same implementation step
          default:
            break;
        }
        if (events[k].kind == wanted)
        {
          return events[k];
        }
        return std::nullopt; // the handler produced no reply
      }
      return std::nullopt;
    }

    /// The spec keeps terms, log indices and its request counter in 8
    /// bits, bounded by Params (validation_params sets each bound to its
    /// 8-bit maximum). Names the first event of a preprocessed trace whose
    /// values lie beyond those bounds, with the field and the bound, or
    /// returns nullopt when the whole trace fits. Such a trace has no
    /// verdict: the spec cannot represent it, let alone reject it.
    std::optional<std::string> first_out_of_domain(
      const std::vector<TraceEvent>& events, const Params& p)
    {
      uint64_t requests = 0;
      for (size_t i = 0; i < events.size(); ++i)
      {
        const TraceEvent& e = events[i];
        const auto beyond =
          [&](const char* field, uint64_t value, uint64_t bound)
          -> std::optional<std::string> {
          if (value <= bound)
          {
            return std::nullopt;
          }
          std::ostringstream os;
          os << "line " << i << " (" << describe(e) << "): " << field
             << " = " << value << " exceeds the spec's bound " << bound;
          return os.str();
        };
        // Clamped so that the sum cannot wrap; prev_idx is checked first.
        const uint64_t window_end = e.prev_idx +
          std::min<uint64_t>(e.n_entries, uint64_t{p.max_log_len} + 1);
        if (e.kind == EventKind::ClientRequest)
        {
          ++requests;
        }
        for (const auto& why :
             {beyond("term", e.term, p.max_term),
              beyond("msg_term", e.msg_term, p.max_term),
              beyond("prev_term", e.prev_term, p.max_term),
              beyond("log_len", e.log_len, p.max_log_len),
              beyond("commit_idx", e.commit_idx, p.max_log_len),
              beyond("prev_idx", e.prev_idx, p.max_log_len),
              beyond("last_idx", e.last_idx, p.max_log_len),
              beyond("prev_idx + n_entries", window_end, p.max_log_len),
              beyond("client requests", requests, p.max_requests)})
        {
          if (why.has_value())
          {
            return why;
          }
        }
      }
      return std::nullopt;
    }
  }

  std::vector<TraceLineExpander<State>> bind_consensus_trace(
    const std::vector<TraceEvent>& events, const Params& params)
  {
    std::vector<TraceLineExpander<State>> out;
    out.reserve(events.size());
    for (size_t i = 0; i < events.size(); ++i)
    {
      std::optional<TraceEvent> reply;
      if (
        events[i].kind == EventKind::RecvAppendEntries ||
        events[i].kind == EventKind::RecvRequestVote ||
        events[i].kind == EventKind::RecvInstallSnapshot)
      {
        reply = reply_lookahead_for(events, i);
      }
      out.push_back(bind_line(events[i], params, reply));
    }
    return out;
  }

  spec::ValidationResult<State> validate_consensus_trace(
    const std::vector<TraceEvent>& raw_events,
    const Params& params,
    ConsensusValidationOptions options)
  {
    const auto events = preprocess(raw_events);
    if (auto why = first_out_of_domain(events, params))
    {
      // Inconclusive, never a rejection: ok = false with the search
      // reported incomplete, as when a budget runs out.
      spec::ValidationResult<State> result;
      result.failed_line = std::move(*why);
      result.stats.complete = false;
      return result;
    }
    spec::ValidationOptions search = options.search;
    if (options.fault_composition && search.max_faults_per_step == 0)
    {
      // The caller asked for fault composition but left the bound at
      // zero; one fault per line is the paper's default shape.
      search.max_faults_per_step = 1;
    }
    spec::TraceValidator<State> validator(
      {specs::ccfraft::initial_state(params)},
      bind_consensus_trace(events, params),
      search);
    if (options.fault_composition)
    {
      const Params p = params;
      validator.set_fault_expander(
        [p](const State& s, const Emit<State>& emit) {
          // IsFault (Listing 5): the network may lose or duplicate any
          // in-flight message between logged events.
          for (const auto& [msg, count] : s.network)
          {
            actions::drop_message(s, msg, emit);
            actions::duplicate_message(p, s, msg, emit);
          }
        });
    }
    return validator.run();
  }
}
