#include "trace/consistency_binding.h"

#include <algorithm>
#include <sstream>

namespace scv::trace
{
  using driver::ClientEvent;
  using driver::ClientEventKind;
  using spec::Emit;
  using spec::TraceLineExpander;
  using specs::consistency::Event;
  using specs::consistency::EvType;
  using specs::consistency::Params;
  using specs::consistency::State;
  using specs::consistency::TxId8;
  using specs::consistency::TxSt;

  namespace
  {
    /// Transaction identity on the spec side: (term = earliest branch
    /// containing the tx, index = its position there).
    struct Identity
    {
      uint8_t term = 0;
      uint8_t index = 0;

      bool operator==(const Identity&) const = default;
    };

    std::optional<Identity> spec_identity(const State& s, TxId8 tx)
    {
      for (size_t b = 0; b < s.branches.size(); ++b)
      {
        for (size_t i = 0; i < s.branches[b].size(); ++i)
        {
          if (s.branches[b][i] == tx)
          {
            return Identity{
              static_cast<uint8_t>(b + 1), static_cast<uint8_t>(i + 1)};
          }
        }
      }
      return std::nullopt;
    }

    /// The spec tx carrying the given identity, if executed.
    std::optional<TxId8> tx_with_identity(const State& s, Identity id)
    {
      if (id.term == 0 || id.term > s.branches.size())
      {
        return std::nullopt;
      }
      // The tx at (term, index) is identified by position in the earliest
      // branch: check the tx at that position and confirm its identity.
      const auto& branch = s.branches[id.term - 1];
      if (id.index == 0 || id.index > branch.size())
      {
        return std::nullopt;
      }
      const TxId8 tx = branch[id.index - 1];
      const auto actual = spec_identity(s, tx);
      if (actual && *actual == id)
      {
        return tx;
      }
      return std::nullopt;
    }

    Identity identity_of(const consensus::TxId& txid)
    {
      return Identity{
        static_cast<uint8_t>(txid.term), static_cast<uint8_t>(txid.index)};
    }

    /// The branch content (as identities) a response implies: observed
    /// predecessors followed (for read-write transactions) by the tx
    /// itself.
    std::vector<Identity> implied_content(const ClientEvent& e)
    {
      std::vector<Identity> out;
      for (const auto& o : e.observed)
      {
        out.push_back(identity_of(o));
      }
      if (e.kind == ClientEventKind::RwRes)
      {
        out.push_back(identity_of(e.txid));
      }
      return out;
    }

    /// Goal-directed reconstruction (§6.5): from `s`, emit every state in
    /// which branch `term` exists and its content realizes
    /// `target[0..target.size())` as identities — inserting NewBranch
    /// steps (elections this client never saw) and RwTxRequest+RwTxExecute
    /// pairs (other clients' transactions) as needed. Bounded by the
    /// target length.
    void reconstruct(
      const Params& p,
      const State& s,
      uint8_t term,
      const std::vector<Identity>& target,
      size_t depth,
      const std::function<void(const State&)>& done)
    {
      if (depth > 2 * target.size() + 8)
      {
        return;
      }

      // Create missing branches up to `term`, choosing only prefixes
      // consistent with the target content.
      if (s.branches.size() < term)
      {
        if (s.branches.size() >= p.max_branches)
        {
          return;
        }
        // NewBranch: any prefix of any branch containing the committed
        // prefix; keep only prefixes of the target.
        const auto consistent = [&](const State& s2) {
          const auto& nb = s2.branches.back();
          if (s2.branches.size() == term && nb.size() > target.size())
          {
            return false;
          }
          for (size_t k = 0; k < nb.size(); ++k)
          {
            const auto id = spec_identity(s2, nb[k]);
            if (
              s2.branches.size() == term &&
              (k >= target.size() || !id || !(*id == target[k])))
            {
              return false;
            }
          }
          return true;
        };
        // Enumerate NewBranch successors directly.
        std::vector<std::vector<TxId8>> seen;
        for (const auto& b : s.branches)
        {
          for (size_t len = 0; len <= b.size(); ++len)
          {
            std::vector<TxId8> prefix(
              b.begin(), b.begin() + static_cast<ptrdiff_t>(len));
            if (
              len < s.committed.size() ||
              !std::equal(
                s.committed.begin(), s.committed.end(), prefix.begin()))
            {
              continue;
            }
            if (std::find(seen.begin(), seen.end(), prefix) != seen.end())
            {
              continue;
            }
            seen.push_back(prefix);
            State s2 = s;
            s2.branches.push_back(prefix);
            if (consistent(s2))
            {
              reconstruct(p, s2, term, target, depth + 1, done);
            }
          }
        }
        return;
      }

      const auto& branch = s.branches[term - 1];
      // Verify what exists so far matches the target.
      if (branch.size() > target.size())
      {
        return;
      }
      for (size_t k = 0; k < branch.size(); ++k)
      {
        const auto id = spec_identity(s, branch[k]);
        if (!id || !(*id == target[k]))
        {
          return;
        }
      }
      if (branch.size() == target.size())
      {
        done(s);
        return;
      }

      // Fill the next position. Two cases: the needed tx already exists on
      // an earlier branch (then branch `term` should have forked with it —
      // unreachable here since forks copy prefixes; bail), or it is an
      // unknown tx executed on THIS branch.
      const Identity next = target[branch.size()];
      if (next.term != term)
      {
        // A tx inherited from an earlier branch must already be in the
        // prefix (forks copy prefixes); reaching here means the fork
        // point was wrong — dead end.
        return;
      }
      if (tx_with_identity(s, next).has_value())
      {
        return; // identity already taken elsewhere: inconsistent
      }
      // Reconstruct an unobserved client's transaction: request + execute.
      State s2 = s;
      const TxId8 fresh = s2.next_tx;
      s2.history.push_back({EvType::RwReq, fresh, 0, 0, 0, {}});
      s2.next_tx += 1;
      s2.branches[term - 1].push_back(fresh);
      reconstruct(p, s2, term, target, depth + 2, done);
    }

    /// Composes AdvanceCommit steps (0..k) before `done`, since commit
    /// movement is not logged in client histories.
    void with_commit_advance(
      const State& s,
      size_t max_steps,
      const std::function<void(const State&)>& done)
    {
      done(s);
      if (max_steps == 0)
      {
        return;
      }
      for (const auto& b : s.branches)
      {
        if (
          b.size() < s.committed.size() ||
          !std::equal(s.committed.begin(), s.committed.end(), b.begin()))
        {
          continue;
        }
        for (size_t len = s.committed.size() + 1; len <= b.size(); ++len)
        {
          State s2 = s;
          s2.committed.assign(
            b.begin(), b.begin() + static_cast<ptrdiff_t>(len));
          with_commit_advance(s2, max_steps - 1, done);
        }
      }
    }

    std::string describe(const ClientEvent& e)
    {
      std::ostringstream os;
      os << driver::to_string(e.kind) << " seq=" << e.client_seq;
      if (e.kind != ClientEventKind::RwReq && e.kind != ClientEventKind::RoReq)
      {
        os << " @" << e.txid.term << "." << e.txid.index;
      }
      if (e.kind == ClientEventKind::Status)
      {
        os << " " << consensus::to_string(e.status);
      }
      return os.str();
    }

    TraceLineExpander<State> bind_event(const ClientEvent& e, const Params& p)
    {
      TraceLineExpander<State> line;
      line.description = describe(e);

      switch (e.kind)
      {
        case ClientEventKind::RwReq:
          line.expand = [](const State& s, const Emit<State>& emit) {
            State s2 = s;
            s2.history.push_back({EvType::RwReq, s2.next_tx, 0, 0, 0, {}});
            s2.next_tx += 1;
            emit(std::move(s2));
          };
          break;

        case ClientEventKind::RoReq:
          line.expand = [](const State& s, const Emit<State>& emit) {
            State s2 = s;
            s2.history.push_back({EvType::RoReq, s2.next_tx, 0, 0, 0, {}});
            s2.next_tx += 1;
            emit(std::move(s2));
          };
          break;

        case ClientEventKind::RwRes:
          line.expand = [e, p](const State& s, const Emit<State>& emit) {
            const auto target = implied_content(e);
            const uint8_t term = static_cast<uint8_t>(e.txid.term);
            // The responding tx is the most recent *requested but not yet
            // executed* tx of this client — the last RwReq in the spec
            // history without an execution.
            TxId8 mine = 0;
            for (const Event& h : s.history)
            {
              if (h.type != EvType::RwReq)
              {
                continue;
              }
              bool executed = false;
              for (const auto& b : s.branches)
              {
                executed = executed ||
                  std::find(b.begin(), b.end(), h.tx) != b.end();
              }
              if (!executed)
              {
                mine = h.tx;
              }
            }
            if (mine == 0)
            {
              return;
            }
            // Reconstruct everything before this tx, then execute it and
            // respond.
            std::vector<Identity> prefix(target.begin(), target.end() - 1);
            reconstruct(p, s, term, prefix, 0, [&](const State& s1) {
              State s2 = s1;
              s2.branches[term - 1].push_back(mine);
              // The identity must come out right.
              const auto id = spec_identity(s2, mine);
              if (!id || !(*id == identity_of(e.txid)))
              {
                return;
              }
              Event res;
              res.type = EvType::RwRes;
              res.tx = mine;
              res.term = term;
              res.index = static_cast<uint8_t>(e.txid.index);
              for (const auto& o : e.observed)
              {
                const auto otx = tx_with_identity(s2, identity_of(o));
                if (!otx)
                {
                  return;
                }
                res.observed = specs::consistency::with_tx(res.observed, *otx);
              }
              s2.history.push_back(res);
              emit(std::move(s2));
            });
          };
          break;

        case ClientEventKind::RoRes:
          line.expand = [e, p](const State& s, const Emit<State>& emit) {
            const auto target = implied_content(e);
            const uint8_t term = static_cast<uint8_t>(e.txid.term);
            TxId8 mine = 0;
            for (const Event& h : s.history)
            {
              if (h.type != EvType::RoReq)
              {
                continue;
              }
              bool responded = false;
              for (const Event& h2 : s.history)
              {
                responded = responded ||
                  (h2.type == EvType::RoRes && h2.tx == h.tx);
              }
              if (!responded)
              {
                mine = h.tx;
              }
            }
            if (mine == 0)
            {
              return;
            }
            reconstruct(p, s, term, target, 0, [&](const State& s1) {
              State s2 = s1;
              Event res;
              res.type = EvType::RoRes;
              res.tx = mine;
              res.term = term;
              res.index = static_cast<uint8_t>(e.txid.index);
              for (const auto& o : e.observed)
              {
                const auto otx = tx_with_identity(s2, identity_of(o));
                if (!otx)
                {
                  return;
                }
                res.observed = specs::consistency::with_tx(res.observed, *otx);
              }
              s2.history.push_back(res);
              emit(std::move(s2));
            });
          };
          break;

        case ClientEventKind::Status:
          line.expand = [e](const State& s, const Emit<State>& emit) {
            // Commit movement is unlogged: compose AdvanceCommit steps
            // before the status message.
            with_commit_advance(s, 2, [&](const State& s1) {
              // Find the tx this status refers to by its response in the
              // spec history.
              for (const Event& h : s1.history)
              {
                if (
                  (h.type != EvType::RwRes && h.type != EvType::RoRes) ||
                  h.term != e.txid.term || h.index != e.txid.index)
                {
                  continue;
                }
                // Already has a status?
                bool done_already = false;
                for (const Event& h2 : s1.history)
                {
                  done_already = done_already ||
                    (h2.type == EvType::Status && h2.tx == h.tx);
                }
                if (done_already)
                {
                  continue;
                }
                // Apply the matching status rule.
                const auto& branch = s1.branches[h.term - 1];
                const bool covered = s1.committed.size() >= h.index;
                bool matches = covered;
                for (size_t k = 0; k < h.index && matches; ++k)
                {
                  matches = k < branch.size() &&
                    k < s1.committed.size() &&
                    branch[k] == s1.committed[k];
                }
                const bool want_committed =
                  e.status == consensus::TxStatus::Committed;
                if (!covered || (matches != want_committed))
                {
                  continue;
                }
                State s2 = s1;
                s2.history.push_back(
                  {EvType::Status,
                   h.tx,
                   0,
                   h.term,
                   h.index,
                   want_committed ? TxSt::Committed : TxSt::Invalid});
                emit(std::move(s2));
              }
            });
          };
          break;
      }
      return line;
    }
  }

  Params consistency_validation_params(const std::vector<ClientEvent>& events)
  {
    Params p;
    // Size the model to the history: the reconstruction may add as many
    // transactions as were ever observed.
    uint8_t max_term = 1;
    size_t txs = 0;
    for (const auto& e : events)
    {
      max_term = std::max(max_term, static_cast<uint8_t>(e.txid.term));
      if (
        e.kind == ClientEventKind::RwReq || e.kind == ClientEventKind::RoReq)
      {
        ++txs;
      }
      txs += e.observed.size();
    }
    p.max_rw_txs = static_cast<uint8_t>(std::min<size_t>(txs + 4, 14));
    p.max_ro_txs = p.max_rw_txs;
    p.max_branches = static_cast<uint8_t>(max_term + 1);
    p.include_observed_ro = false;
    return p;
  }

  std::vector<TraceLineExpander<State>> bind_consistency_trace(
    const std::vector<ClientEvent>& events, const Params& params)
  {
    std::vector<TraceLineExpander<State>> out;
    out.reserve(events.size());
    for (const auto& e : events)
    {
      out.push_back(bind_event(e, params));
    }
    return out;
  }

  spec::ValidationResult<State> validate_consistency_trace(
    const std::vector<ClientEvent>& events, spec::ValidationOptions options)
  {
    const Params p = consistency_validation_params(events);
    spec::TraceValidator<State> validator(
      {specs::consistency::initial_state()},
      bind_consistency_trace(events, p),
      options);
    return validator.run();
  }
}
