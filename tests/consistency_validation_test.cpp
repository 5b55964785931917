// Consistency trace validation (§6.5): client histories collected from
// implementation runs are validated against the consistency spec,
// including the reconstruction of transactions the client never saw
// (other clients' traffic, elections).
#include <gtest/gtest.h>

#include "driver/session.h"
#include "driver/cluster.h"
#include "trace/consistency_binding.h"

using namespace scv;
using namespace scv::driver;
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

  std::string diagnose(
    const spec::ValidationResult<specs::consistency::State>& r)
  {
    std::string out = "matched " + std::to_string(r.lines_matched) +
      "; failed: " + r.failed_line + "\n";
    for (const auto& s : r.frontier_at_failure)
    {
      out += "  " + s.to_string() + "\n";
    }
    return out;
  }
}

TEST(ConsistencyValidation, SingleClientHappyPath)
{
  Cluster c(three_nodes(301));
  Session client(c);
  const auto s1 = client.submit_rw("a");
  const auto s2 = client.submit_rw("b");
  c.sign();
  settle(c);
  ASSERT_EQ(client.poll(*s1), TxStatus::Committed);
  ASSERT_EQ(client.poll(*s2), TxStatus::Committed);

  const auto r = trace::validate_consistency_trace(client.history());
  EXPECT_TRUE(r.ok) << diagnose(r);
  EXPECT_EQ(r.lines_matched, client.history().size());
}

TEST(ConsistencyValidation, ReadOnlyHistoryValidates)
{
  Cluster c(three_nodes(303));
  Session client(c);
  client.submit_rw("a");
  c.sign();
  settle(c);
  const auto ro = client.submit_ro();
  ASSERT_TRUE(ro.has_value());
  ASSERT_EQ(client.poll(*ro), TxStatus::Committed);

  const auto r = trace::validate_consistency_trace(client.history());
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(ConsistencyValidation, ReconstructsOtherClientsTransactions)
{
  // Two clients; validate ONLY client B's history. B's observations
  // include A's transactions, which the binding must reconstruct from the
  // observed transaction ids (§6.5).
  Cluster c(three_nodes(305));
  Session alice(c);
  Session bob(c);
  alice.submit_rw("a1");
  alice.submit_rw("a2");
  const auto b1 = bob.submit_rw("b1");
  c.sign();
  settle(c);
  ASSERT_EQ(bob.poll(*b1), TxStatus::Committed);
  // Bob's response observes Alice's two transactions.
  ASSERT_EQ(bob.history()[1].observed.size(), 2u);

  const auto r = trace::validate_consistency_trace(bob.history());
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(ConsistencyValidation, FailoverHistoryValidates)
{
  // A transaction doomed by a failover: its INVALID status and the new
  // regime's COMMITTED transactions form a valid spec behavior with two
  // log branches.
  ClusterOptions o = three_nodes(307);
  o.node_template.check_quorum_interval = 0;
  Cluster c(o);
  Session client(c);

  c.partition({1}, {2, 3});
  const auto doomed = client.submit_rw("doomed");
  ASSERT_TRUE(doomed.has_value());
  settle(c, 150);
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader && *leader != 1);
  const auto winner = client.submit_rw("winner");
  c.sign();
  settle(c, 100);
  ASSERT_EQ(client.poll(*winner), TxStatus::Committed);
  ASSERT_EQ(client.poll(*doomed), TxStatus::Invalid);

  const auto r = trace::validate_consistency_trace(client.history());
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(ConsistencyValidation, StaleLeaderRoHistoryValidates)
{
  // The §7 non-linearizability history IS a behavior of the consistency
  // spec — that is the paper's conclusion: the guarantee is
  // serializability, and the spec documents it.
  ClusterOptions o = three_nodes(309);
  o.node_template.check_quorum_interval = 0;
  Cluster c(o);
  Session client(c);

  c.partition({1}, {2, 3});
  settle(c, 150);
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader && *leader != 1);
  const auto rw = client.submit_rw("invisible");
  c.sign();
  settle(c, 100);
  ASSERT_EQ(client.poll(*rw), TxStatus::Committed);
  const auto ro = client.submit_ro(NodeId(1)); // stale leader answers
  ASSERT_TRUE(ro.has_value());
  ASSERT_EQ(client.history().back().kind, ClientEventKind::RoRes);

  const auto r = trace::validate_consistency_trace(client.history());
  EXPECT_TRUE(r.ok) << diagnose(r);
}

class MultiClientChaos : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MultiClientChaos, EveryClientsHistoryValidates)
{
  // Three clients interleave submissions, reads and polls while the
  // cluster suffers an election; each client's single-view history must
  // independently be a behavior of the consistency spec, with the other
  // clients' transactions reconstructed (§6.5).
  const uint64_t seed = GetParam();
  ClusterOptions o = three_nodes(seed);
  Cluster c(o);
  std::vector<std::unique_ptr<Session>> clients;
  for (int k = 0; k < 3; ++k)
  {
    clients.push_back(std::make_unique<Session>(c));
  }
  Rng rng(seed * 7919);
  std::vector<std::pair<size_t, uint64_t>> submitted; // (client, seq)
  for (int step = 0; step < 120; ++step)
  {
    c.tick_all();
    c.drain(rng.below(5));
    const size_t who = rng.below(clients.size());
    const uint64_t dice = rng.below(100);
    if (dice < 18)
    {
      const auto seq = clients[who]->submit_rw("c" + std::to_string(step));
      if (seq)
      {
        submitted.push_back({who, *seq});
      }
    }
    else if (dice < 28)
    {
      c.sign();
    }
    else if (dice < 34)
    {
      clients[who]->submit_ro();
    }
    else if (dice < 50 && !submitted.empty())
    {
      const auto& [owner, seq] = submitted[rng.below(submitted.size())];
      clients[owner]->poll(seq);
    }
    else if (dice < 52 && step > 40)
    {
      const NodeId n = 1 + rng.below(3);
      if (!c.crashed(n))
      {
        c.node(n).force_timeout();
        c.tick(n);
      }
    }
  }
  c.sign();
  for (int i = 0; i < 60; ++i)
  {
    c.tick_all();
    c.drain();
  }
  for (const auto& [owner, seq] : submitted)
  {
    clients[owner]->poll(seq);
  }

  for (size_t k = 0; k < clients.size(); ++k)
  {
    spec::ValidationOptions options;
    options.time_budget_seconds = 30.0;
    const auto r =
      trace::validate_consistency_trace(clients[k]->history(), options);
    EXPECT_TRUE(r.ok) << "client " << k << " seed " << seed << ": "
                      << diagnose(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
  Seeds, MultiClientChaos, ::testing::Values(601, 602, 603, 604));

TEST(ConsistencyValidation, ParallelDfsMatchesSequentialOnHistory)
{
  // A failover history (two log branches — real nondeterminism in the
  // search) validated by the DFS with threads set to 1, 2 and 4. The DFS
  // runs on one worker whatever threads says: the same witness each time.
  ClusterOptions o = three_nodes(307);
  o.node_template.check_quorum_interval = 0;
  Cluster c(o);
  Session client(c);

  c.partition({1}, {2, 3});
  const auto doomed = client.submit_rw("doomed");
  ASSERT_TRUE(doomed.has_value());
  settle(c, 150);
  const auto winner = client.submit_rw("winner");
  c.sign();
  settle(c, 100);
  ASSERT_EQ(client.poll(*winner), TxStatus::Committed);
  ASSERT_EQ(client.poll(*doomed), TxStatus::Invalid);

  spec::ValidationOptions options;
  options.mode = spec::SearchMode::Dfs;
  options.threads = 1;
  const auto seq = trace::validate_consistency_trace(client.history(), options);
  ASSERT_TRUE(seq.ok) << diagnose(seq);
  for (const unsigned threads : {2u, 4u})
  {
    options.threads = threads;
    const auto par =
      trace::validate_consistency_trace(client.history(), options);
    EXPECT_TRUE(par.ok) << "threads=" << threads << "\n" << diagnose(par);
    EXPECT_EQ(par.lines_matched, seq.lines_matched);
    EXPECT_EQ(par.witness, seq.witness);
  }
}

TEST(ConsistencyValidation, ParallelDfsRejectsCorruptedHistory)
{
  Cluster c(three_nodes(311));
  Session client(c);
  client.submit_rw("a");
  const auto s2 = client.submit_rw("b");
  c.sign();
  settle(c);
  ASSERT_EQ(client.poll(*s2), TxStatus::Committed);

  auto events = client.history();
  bool corrupted = false;
  for (auto& e : events)
  {
    if (e.kind == ClientEventKind::RwRes && e.txid.index == 2)
    {
      e.observed.clear();
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  spec::ValidationOptions options;
  options.mode = spec::SearchMode::Dfs;
  options.threads = 1;
  const auto seq = trace::validate_consistency_trace(events, options);
  ASSERT_FALSE(seq.ok);
  options.threads = 4;
  const auto par = trace::validate_consistency_trace(events, options);
  EXPECT_FALSE(par.ok);
  EXPECT_EQ(par.lines_matched, seq.lines_matched);
  EXPECT_EQ(par.failed_line, seq.failed_line);
}

TEST(ConsistencyValidation, CorruptedObservationRejected)
{
  Cluster c(three_nodes(311));
  Session client(c);
  client.submit_rw("a");
  const auto s2 = client.submit_rw("b");
  c.sign();
  settle(c);
  ASSERT_EQ(client.poll(*s2), TxStatus::Committed);

  auto events = client.history();
  // Claim the second transaction observed nothing: no spec behavior
  // executes it at position 2 with an empty observation.
  bool corrupted = false;
  for (auto& e : events)
  {
    if (e.kind == ClientEventKind::RwRes && e.txid.index == 2)
    {
      e.observed.clear();
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto r = trace::validate_consistency_trace(events);
  EXPECT_FALSE(r.ok);
}

TEST(ConsistencyValidation, ContradictoryStatusRejected)
{
  Cluster c(three_nodes(313));
  Session client(c);
  const auto s1 = client.submit_rw("a");
  c.sign();
  settle(c);
  ASSERT_EQ(client.poll(*s1), TxStatus::Committed);

  auto events = client.history();
  // Flip the committed status to INVALID: no spec behavior can justify it.
  for (auto& e : events)
  {
    if (e.kind == ClientEventKind::Status)
    {
      e.status = TxStatus::Invalid;
    }
  }
  const auto r = trace::validate_consistency_trace(events);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failed_line.find("status"), std::string::npos);
}
