// Tests for the Session serving machinery layered on the scripted
// client: request batching into signature transactions, per-session
// ordering, TxStatus-style commit acknowledgement (including the
// truncated-by-a-conflicting-leader INVALID edge), and application
// transactions over the typed KV.
#include <gtest/gtest.h>

#include "driver/cluster.h"
#include "driver/session.h"
#include "kv/tx.h"

using namespace scv;
using namespace scv::driver;
using consensus::EntryType;
using consensus::Index;
using consensus::TxId;
using consensus::TxStatus;

namespace
{
  ClusterOptions three_nodes(uint64_t seed)
  {
    ClusterOptions o;
    o.initial_config = {1, 2, 3};
    o.initial_leader = 1;
    o.seed = seed;
    return o;
  }

  void settle(Cluster& c, int ticks = 80)
  {
    for (int i = 0; i < ticks; ++i)
    {
      c.tick_all();
      c.drain();
    }
  }

  /// Data entries in `node`'s ledger strictly inside (lo, hi).
  size_t data_entries_between(
    const consensus::RaftNode& node, Index lo, Index hi)
  {
    size_t count = 0;
    for (Index i = lo + 1; i < hi; ++i)
    {
      if (node.ledger().at(i).type == EntryType::Data)
      {
        ++count;
      }
    }
    return count;
  }
}

TEST(SessionBatching, BatchBoundariesAlignWithSignatureTransactions)
{
  Cluster c(three_nodes(401));
  Session session(c, SessionOptions{3});
  for (int i = 0; i < 7; ++i)
  {
    ASSERT_TRUE(session.submit_rw("v" + std::to_string(i)).has_value());
  }
  // 7 accepted transactions at batch size 3: signatures after #3 and #6,
  // one transaction left in the open batch.
  ASSERT_EQ(session.batch_signatures().size(), 2u);
  EXPECT_EQ(session.open_batch(), 1u);

  // Each signature closes exactly batch_size Data entries in the ledger.
  const auto& leader = c.node(1);
  Index prev = session.batch_signatures()[0].index;
  EXPECT_EQ(leader.ledger().at(prev).type, EntryType::Signature);
  // The first batch: 3 Data entries since the log position after the
  // bootstrap prefix. Signature entries carry no Data inside a batch.
  for (size_t b = 1; b < session.batch_signatures().size(); ++b)
  {
    const Index cur = session.batch_signatures()[b].index;
    EXPECT_EQ(leader.ledger().at(cur).type, EntryType::Signature);
    EXPECT_EQ(data_entries_between(leader, prev, cur), 3u);
    prev = cur;
  }

  // flush() closes the partial batch with a final signature.
  ASSERT_TRUE(session.flush().has_value());
  EXPECT_EQ(session.batch_signatures().size(), 3u);
  EXPECT_EQ(session.open_batch(), 0u);
  EXPECT_EQ(session.flush(), std::nullopt); // nothing left to close

  // The whole run commits: every transaction reaches COMMITTED.
  settle(c);
  for (uint64_t seq = 1; seq <= 7; ++seq)
  {
    EXPECT_EQ(session.commit_ack(seq), TxStatus::Committed);
    EXPECT_EQ(session.poll(seq), TxStatus::Committed);
  }
}

TEST(SessionBatching, PerSessionOrderingPreserved)
{
  Cluster c(three_nodes(403));
  Session session(c, SessionOptions{2});
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 6; ++i)
  {
    const auto seq = session.submit_rw("p" + std::to_string(i));
    ASSERT_TRUE(seq.has_value());
    seqs.push_back(*seq);
  }
  // Application-level tx ids are assigned in submission order, and each
  // transaction observes exactly its session predecessors.
  for (size_t i = 0; i < seqs.size(); ++i)
  {
    const auto txid = session.txid_of(seqs[i]);
    ASSERT_TRUE(txid.has_value());
    EXPECT_EQ(txid->index, i + 1);
  }
  for (const auto& ev : session.history())
  {
    if (ev.kind == ClientEventKind::RwRes)
    {
      EXPECT_EQ(ev.observed.size(), ev.txid.index - 1);
    }
  }
  // Raw ledger ids are strictly increasing too (batching inserts
  // signatures but never reorders).
  Index prev_raw = 0;
  for (const uint64_t seq : seqs)
  {
    const auto raw = session.raw_txid_of(seq);
    ASSERT_TRUE(raw.has_value());
    EXPECT_GT(raw->index, prev_raw);
    prev_raw = raw->index;
  }
}

TEST(SessionAck, CommitAckLifecycle)
{
  Cluster c(three_nodes(405));
  Session session(c);
  const auto seq = session.submit_rw("x");
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(session.commit_ack(*seq), TxStatus::Pending);
  session.sign();
  settle(c);
  EXPECT_EQ(session.commit_ack(*seq), TxStatus::Committed);

  // Read-only transactions and unknown sequence numbers have no raw id.
  const auto ro = session.submit_ro();
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(session.commit_ack(*ro), TxStatus::Unknown);
  EXPECT_EQ(session.commit_ack(999), TxStatus::Unknown);
}

TEST(SessionAck, TruncatedTxReportsInvalidNotPending)
{
  Cluster c(three_nodes(407));
  Session session(c);
  // Anchor traffic so the cluster has a committed prefix.
  ASSERT_TRUE(session.submit_rw("base").has_value());
  session.sign();
  settle(c);

  // Isolate the leader; it still believes itself leader and accepts a
  // doomed transaction that will never replicate.
  c.isolate(1);
  const auto doomed = session.submit_rw("doomed", NodeId{1});
  ASSERT_TRUE(doomed.has_value());
  ASSERT_TRUE(session.raw_txid_of(*doomed).has_value());
  EXPECT_EQ(session.commit_ack(*doomed, NodeId{1}), TxStatus::Pending);

  // The majority side elects a new leader in a higher term and commits
  // new traffic past the doomed slot.
  c.node(2).force_timeout();
  settle(c, 120);
  const auto new_leader = c.find_leader();
  ASSERT_TRUE(new_leader.has_value());
  ASSERT_NE(*new_leader, 1u);

  // Heal: the old leader steps down and truncates its divergent suffix.
  c.heal();
  settle(c, 120);

  // The doomed transaction must be acknowledged INVALID everywhere — in
  // particular on nodes whose log never reached the doomed seqno again
  // (the beyond-log + later-view rule), not left PENDING/UNKNOWN forever.
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(session.commit_ack(*doomed, id), TxStatus::Invalid)
      << "node " << id;
  }
}

TEST(SessionApp, SubmitAppExecutesAndReplicatesWriteSet)
{
  Cluster c(three_nodes(409));
  Session session(c);
  const kv::Table table{"t"};

  const auto put = session.submit_app([&](kv::Tx& tx) {
    tx.put(table, "k", "v1");
    return true;
  });
  ASSERT_EQ(put.outcome, AppOutcome::Submitted);
  ASSERT_TRUE(put.seq.has_value());
  session.sign();
  settle(c);
  ASSERT_EQ(session.commit_ack(*put.seq), TxStatus::Committed);

  // Every replica applied the decoded write set, not an opaque payload.
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(c.store(id).get("t/k"), std::optional<std::string>("v1"));
  }
}

TEST(SessionApp, SpeculativeReadsSeeUncommittedBatchPredecessors)
{
  Cluster c(three_nodes(411));
  Session session(c, SessionOptions{8});
  const kv::Table table{"t"};

  ASSERT_EQ(
    session
      .submit_app([&](kv::Tx& tx) {
        tx.put(table, "counter", "1");
        return true;
      })
      .outcome,
    AppOutcome::Submitted);

  // Nothing is committed yet, but the next transaction in the open batch
  // must read its predecessor's write (leader executes speculatively).
  const auto bump = session.submit_app([&](kv::Tx& tx) {
    const auto cur = tx.get(table, "counter");
    if (!cur)
    {
      return false;
    }
    tx.put(table, "counter", std::to_string(std::stoll(*cur) + 1));
    return true;
  });
  ASSERT_EQ(bump.outcome, AppOutcome::Submitted);

  // A read transaction on the leader sees the full speculative chain.
  auto read = session.begin_read();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->get(table, "counter"), std::optional<std::string>("2"));

  session.flush();
  settle(c);
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(c.store(id).get("t/counter"), std::optional<std::string>("2"));
  }
}

TEST(SessionApp, AbortedBodyReplicatesNothing)
{
  Cluster c(three_nodes(413));
  Session session(c);
  const kv::Table table{"t"};
  const size_t history_before = session.history().size();
  const Index ledger_before = c.node(1).ledger().last_index();

  const auto aborted = session.submit_app([&](kv::Tx& tx) {
    tx.put(table, "x", "ignored");
    return false; // application-level refusal
  });
  EXPECT_EQ(aborted.outcome, AppOutcome::Aborted);
  EXPECT_EQ(aborted.seq, std::nullopt);
  EXPECT_EQ(session.history().size(), history_before);
  EXPECT_EQ(c.node(1).ledger().last_index(), ledger_before);
}

// ---------------------------------------------------------------------------
// Run-length observed lists against the element-wise code they replaced:
// every response's `observed` against a rebuild from the responding node's
// ledger, and every poll against the old element-wise comparison, through
// a partitioned leader's truncated suffix, INVALID resubmits, and a
// leader crash and restart.
// ---------------------------------------------------------------------------

namespace
{
  /// Application ids of `ledger`'s Data entries up to `upto`, rebuilt one
  /// by one.
  std::vector<TxId> rebuild_app_txids(
    const consensus::Ledger& ledger, Index upto)
  {
    std::vector<TxId> out;
    for (size_t k = 1; k <= ledger.data_count_upto(upto); ++k)
    {
      out.push_back(TxId{ledger.term_at(ledger.data_index(k)), k});
    }
    return out;
  }

  const ClientEvent* response_of(const Session& s, uint64_t seq)
  {
    for (const auto& ev : s.history())
    {
      if (
        ev.client_seq == seq &&
        (ev.kind == ClientEventKind::RwRes ||
         ev.kind == ClientEventKind::RoRes))
      {
        return &ev;
      }
    }
    return nullptr;
  }

  /// Session::poll's status as the element-wise code computed it.
  TxStatus elementwise_poll(
    const Session& s, uint64_t seq, const consensus::RaftNode& node)
  {
    const ClientEvent* res = response_of(s, seq);
    if (res == nullptr)
    {
      return TxStatus::Unknown;
    }
    const auto& ledger = node.ledger();
    const auto committed = [&](size_t k) {
      return TxId{ledger.term_at(ledger.data_index(k)), k};
    };
    const size_t at = res->txid.index;
    if (ledger.data_count_upto(node.commit_index()) < at)
    {
      return TxStatus::Pending;
    }
    const std::vector<TxId> observed(
      res->observed.begin(), res->observed.end());
    bool matches = true;
    for (size_t k = 1; matches && k <= observed.size() && k <= at; ++k)
    {
      matches = committed(k) == observed[k - 1];
    }
    if (res->kind == ClientEventKind::RwRes && matches)
    {
      matches = at >= 1 && committed(at) == res->txid;
    }
    return matches ? TxStatus::Committed : TxStatus::Invalid;
  }

  class OracleClient
  {
  public:
    OracleClient(Cluster& c, Session& s) : c_(c), s_(s) {}

    /// A read-write transaction on `server` (default: the leader); checks
    /// its response against the rebuild.
    std::optional<uint64_t> rw(
      const std::string& payload, std::optional<NodeId> server = std::nullopt)
    {
      const auto target = server ? server : c_.find_leader();
      const auto seq = s_.submit_rw(payload, target);
      if (seq && s_.raw_txid_of(*seq))
      {
        const ClientEvent* res = response_of(s_, *seq);
        EXPECT_NE(res, nullptr);
        if (res != nullptr)
        {
          EXPECT_EQ(
            res->observed,
            rebuild_app_txids(
              c_.node(*target).ledger(), s_.raw_txid_of(*seq)->index - 1))
            << "rw " << *seq;
        }
        seqs_.push_back(*seq);
      }
      return seq;
    }

    /// A read-only transaction on `server` (default: the leader); checks
    /// its response.
    void ro(std::optional<NodeId> server = std::nullopt)
    {
      const auto target = server ? server : c_.find_leader();
      if (!target)
      {
        return;
      }
      const auto seq = s_.submit_ro(target);
      ASSERT_TRUE(seq.has_value());
      const ClientEvent* res = response_of(s_, *seq);
      ASSERT_NE(res, nullptr);
      const auto& ledger = c_.node(*target).ledger();
      EXPECT_EQ(res->observed, rebuild_app_txids(ledger, ledger.last_index()))
        << "ro " << *seq;
      seqs_.push_back(*seq);
    }

    /// Polls every transaction on every live node, each against the
    /// element-wise status; returns the statuses seen on the leader.
    std::vector<TxStatus> poll_all()
    {
      std::vector<TxStatus> on_leader;
      const auto leader = c_.find_leader();
      for (const uint64_t seq : seqs_)
      {
        for (const NodeId id : c_.node_ids())
        {
          if (c_.crashed(id))
          {
            continue;
          }
          const TxStatus expected = elementwise_poll(s_, seq, c_.node(id));
          const TxStatus got = s_.poll(seq, id);
          EXPECT_EQ(got, expected) << "seq " << seq << " on node " << id;
          if (leader && id == *leader)
          {
            on_leader.push_back(got);
          }
          polls_ += 1;
        }
      }
      return on_leader;
    }

    [[nodiscard]] size_t polls() const
    {
      return polls_;
    }

  private:
    Cluster& c_;
    Session& s_;
    std::vector<uint64_t> seqs_;
    size_t polls_ = 0;
  };
}

TEST(SessionObservedRuns, MatchElementwiseRebuildAcrossTruncationAndCrash)
{
  ClusterOptions o = three_nodes(421);
  o.node_template.check_quorum_interval = 0;
  Cluster c(o);
  Session session(c, SessionOptions{2});
  OracleClient client(c, session);

  for (int i = 0; i < 5; ++i)
  {
    ASSERT_TRUE(client.rw("base" + std::to_string(i)).has_value());
    client.ro();
  }
  client.poll_all();
  session.flush();
  settle(c);
  client.poll_all();

  // The partitioned leader keeps answering in its old term; those
  // transactions, and the reads that observed them, are truncated once
  // the majority's new leader wins.
  c.partition({1}, {2, 3});
  std::vector<std::string> doomed;
  for (int i = 0; i < 3; ++i)
  {
    doomed.push_back("doomed" + std::to_string(i));
    ASSERT_TRUE(client.rw(doomed.back(), NodeId{1}).has_value());
    client.ro(NodeId{1});
  }
  session.sign();
  client.poll_all();
  settle(c, 150);
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader.has_value());
  ASSERT_NE(*leader, 1u);
  for (int i = 0; i < 3; ++i)
  {
    ASSERT_TRUE(client.rw("winner" + std::to_string(i)).has_value());
    client.ro();
  }
  session.flush();
  settle(c, 100);
  c.heal();
  settle(c, 100);
  const auto after_heal = client.poll_all();
  EXPECT_NE(
    std::find(after_heal.begin(), after_heal.end(), TxStatus::Invalid),
    after_heal.end());

  // Resubmit what came back INVALID, then crash the leader mid-batch.
  for (const auto& payload : doomed)
  {
    ASSERT_TRUE(client.rw(payload).has_value());
  }
  client.ro();
  const auto crashed = c.find_leader();
  ASSERT_TRUE(crashed.has_value());
  c.crash(*crashed);
  settle(c, 200);
  ASSERT_TRUE(c.find_leader().has_value());
  for (int i = 0; i < 4; ++i)
  {
    ASSERT_TRUE(client.rw("after_crash" + std::to_string(i)).has_value());
    client.ro();
  }
  client.poll_all();
  c.restart(*crashed);
  session.flush();
  settle(c, 200);
  const auto final_statuses = client.poll_all();
  EXPECT_NE(
    std::find(
      final_statuses.begin(), final_statuses.end(), TxStatus::Committed),
    final_statuses.end());
  EXPECT_GT(client.polls(), 100u);

  // Later terms split the observed lists into runs.
  const auto& last = session.history();
  const auto longest = std::max_element(
    last.begin(), last.end(), [](const ClientEvent& a, const ClientEvent& b) {
      return a.observed.runs().size() < b.observed.runs().size();
    });
  EXPECT_GE(longest->observed.runs().size(), 2u);
}
