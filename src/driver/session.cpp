#include "driver/session.h"

#include <algorithm>
#include <memory>

namespace scv::driver
{
  using consensus::EntryType;
  using consensus::Index;
  using consensus::Role;
  using consensus::TxId;
  using consensus::TxStatus;

  const char* to_string(ClientEventKind kind)
  {
    switch (kind)
    {
      case ClientEventKind::RwReq:
        return "rwReq";
      case ClientEventKind::RwRes:
        return "rwRes";
      case ClientEventKind::RoReq:
        return "roReq";
      case ClientEventKind::RoRes:
        return "roRes";
      case ClientEventKind::Status:
        return "status";
    }
    return "unknown";
  }

  consensus::TxIdRuns Session::app_txids_upto(
    const consensus::RaftNode& node, Index upto)
  {
    // The ledger's Data-entry ids are exact below a compaction hole, so
    // the id list is identical whether the prefix was replayed or
    // snapshotted away.
    const auto& ledger = node.ledger();
    return ledger.data_txids().prefix(ledger.data_count_upto(upto));
  }

  Session::Pending* Session::find(uint64_t client_seq)
  {
    const auto& self = *this;
    return const_cast<Pending*>(self.find(client_seq));
  }

  const Session::Pending* Session::find(uint64_t client_seq) const
  {
    const auto it = std::lower_bound(
      pending_.begin(),
      pending_.end(),
      client_seq,
      [](const Pending& p, uint64_t seq) { return p.client_seq < seq; });
    return it != pending_.end() && it->client_seq == client_seq ? &*it :
                                                                  nullptr;
  }

  std::optional<uint64_t> Session::submit_rw(
    std::string payload, std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }

    const uint64_t seq = next_seq_++;
    ClientEvent req;
    req.kind = ClientEventKind::RwReq;
    req.client_seq = seq;
    history_.push_back(req);

    const auto raw = cluster_.submit(Target(*target), std::move(payload));
    if (!raw)
    {
      return seq; // requested but never executed (the node refused)
    }
    const auto& node = cluster_.node(*target);

    // The response carries the application-level tx id: (term, position
    // among application transactions) — and everything observed before it.
    ClientEvent res;
    res.kind = ClientEventKind::RwRes;
    res.client_seq = seq;
    res.observed = app_txids_upto(node, raw->index - 1);
    res.txid = TxId{raw->term, static_cast<Index>(res.observed.size() + 1)};
    pending_.push_back({seq, false, res.txid, *raw, history_.size()});
    history_.push_back(std::move(res));
    note_batched_submit();
    return seq;
  }

  AppSubmitResult Session::submit_app(const std::function<bool(kv::Tx&)>& body)
  {
    const auto leader = cluster_.find_leader();
    if (!leader)
    {
      return {AppOutcome::NoLeader, std::nullopt};
    }

    kv::Tx tx(
      speculative_view(*leader), cluster_.store(*leader).current_version());
    if (!body(tx))
    {
      return {AppOutcome::Aborted, std::nullopt};
    }
    if (!tx.has_writes())
    {
      // A pure read executed against the leader's view; nothing to
      // replicate (callers wanting it in the history use begin_read +
      // submit_ro).
      return {AppOutcome::Submitted, std::nullopt};
    }

    const auto seq = submit_rw(tx.payload(), *leader);
    if (!seq)
    {
      return {AppOutcome::NoLeader, std::nullopt};
    }
    if (!raw_txid_of(*seq))
    {
      return {AppOutcome::Refused, seq};
    }
    return {AppOutcome::Submitted, seq};
  }

  std::optional<kv::Tx> Session::begin_read(std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }
    if (cluster_.node(*target).role() != Role::Leader)
    {
      return std::nullopt;
    }
    return kv::Tx(
      speculative_view(*target), cluster_.store(*target).current_version());
  }

  std::optional<TxId> Session::sign()
  {
    const auto txid = cluster_.sign();
    if (txid)
    {
      batch_signatures_.push_back(*txid);
      batch_fill_ = 0;
    }
    return txid;
  }

  std::optional<TxId> Session::flush()
  {
    if (batch_fill_ == 0)
    {
      return std::nullopt;
    }
    return sign();
  }

  void Session::note_batched_submit()
  {
    batch_fill_ += 1;
    if (options_.batch_size > 0 && batch_fill_ >= options_.batch_size)
    {
      sign();
    }
  }

  std::optional<uint64_t> Session::submit_ro(std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }
    auto& node = cluster_.node(*target);

    const uint64_t seq = next_seq_++;
    ClientEvent req;
    req.kind = ClientEventKind::RoReq;
    req.client_seq = seq;
    history_.push_back(req);

    // Only a node that believes itself leader answers read-only
    // transactions (§7: including a stale leader that was not yet
    // deposed).
    if (node.role() != Role::Leader)
    {
      return seq;
    }
    ClientEvent res;
    res.kind = ClientEventKind::RoRes;
    res.client_seq = seq;
    res.observed = app_txids_upto(node, node.ledger().last_index());
    res.txid =
      TxId{node.current_term(), static_cast<Index>(res.observed.size())};
    pending_.push_back({seq, true, res.txid, TxId{}, history_.size()});
    history_.push_back(std::move(res));
    return seq;
  }

  TxStatus Session::poll(uint64_t client_seq, std::optional<NodeId> server)
  {
    Pending* p = find(client_seq);
    if (p == nullptr)
    {
      return TxStatus::Unknown;
    }
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return TxStatus::Unknown;
    }
    const auto& node = cluster_.node(*target);

    // A transaction (read-write at position i, read-only observing i
    // transactions) is COMMITTED when the node's committed application
    // prefix covers position i and agrees with what was observed, and
    // INVALID when the committed prefix covers i but diverges.
    const auto& ledger = node.ledger();
    const size_t at = p->txid.index;
    TxStatus status = TxStatus::Pending;
    if (ledger.data_count_upto(node.commit_index()) >= at)
    {
      const auto& observed = history_[p->response].observed;
      bool matches = consensus::TxIdRuns::same_prefix(
        observed, ledger.data_txids(), std::min<size_t>(observed.size(), at));
      if (!p->read_only && matches)
      {
        matches = at >= 1 &&
          TxId{ledger.term_at(ledger.data_index(at)), at} == p->txid;
      }
      status = matches ? TxStatus::Committed : TxStatus::Invalid;
    }

    if (
      (status == TxStatus::Committed || status == TxStatus::Invalid) &&
      !p->terminal)
    {
      p->terminal = true;
      ClientEvent ev;
      ev.kind = ClientEventKind::Status;
      ev.client_seq = client_seq;
      ev.txid = p->txid;
      ev.status = status;
      history_.push_back(ev);
    }
    return status;
  }

  TxStatus Session::commit_ack(
    uint64_t client_seq, std::optional<NodeId> server) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr || p->read_only || p->raw.index == 0)
    {
      return TxStatus::Unknown;
    }
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return TxStatus::Unknown;
    }
    return cluster_.node(*target).status(p->raw);
  }

  std::optional<TxId> Session::txid_of(uint64_t client_seq) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr)
    {
      return std::nullopt;
    }
    return p->txid;
  }

  std::optional<TxId> Session::raw_txid_of(uint64_t client_seq) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr || p->read_only || p->raw.index == 0)
    {
      return std::nullopt;
    }
    return p->raw;
  }

  kv::ReadView Session::speculative_view(NodeId id) const
  {
    // Ordered-but-uncommitted Data entries in the node's ledger, newest
    // first, overlaid on its committed store — so a transaction in the
    // open signature batch reads the writes of its batch predecessors
    // (the leader executes speculatively, §2.1). Each entry is decoded at
    // most once per view: the decoded write sets (newest first) are kept
    // while the last entry's (index, term) is unchanged, which in Raft
    // pins every entry below it too.
    struct Decoded
    {
      Index last = 0;
      consensus::Term term = 0;
      /// Outer: decoded yet; inner: decode_payload's result (nullopt for
      /// a payload that is not a write set).
      std::vector<std::optional<std::optional<kv::WriteSet>>> newest_first;
    };
    auto decoded = std::make_shared<Decoded>();
    return [this, id, decoded](
             const std::string& full_key) -> std::optional<std::string> {
      const auto& node = cluster_.node(id);
      const auto& ledger = node.ledger();
      if (
        decoded->last != ledger.last_index() ||
        decoded->term != ledger.last_term())
      {
        decoded->last = ledger.last_index();
        decoded->term = ledger.last_term();
        decoded->newest_first.clear();
      }
      for (Index i = ledger.last_index(); i > node.commit_index(); --i)
      {
        const auto& entry = ledger.at(i);
        if (entry.type != EntryType::Data)
        {
          continue;
        }
        const size_t slot = ledger.last_index() - i;
        if (slot >= decoded->newest_first.size())
        {
          decoded->newest_first.resize(slot + 1);
        }
        auto& ws = decoded->newest_first[slot];
        if (!ws)
        {
          ws = kv::decode_payload(entry.data);
        }
        if (!*ws)
        {
          continue;
        }
        const auto& writes = (*ws)->writes;
        for (auto it = writes.rbegin(); it != writes.rend(); ++it)
        {
          if (it->key == full_key)
          {
            return it->value;
          }
        }
      }
      return cluster_.store(id).get(full_key);
    };
  }
}
