// Tests for the SmallBank app and the open-loop load runner: procedure
// semantics, payload round-trips, replicated convergence across a
// cluster, and load-generated client histories validating through the
// consistency trace validator.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "app/smallbank/load.h"
#include "app/smallbank/smallbank.h"
#include "driver/cluster.h"
#include "driver/session.h"
#include "kv/tx.h"
#include "trace/client_history_io.h"
#include "trace/consistency_binding.h"

using namespace scv;
using namespace scv::app::smallbank;
using consensus::TxStatus;
using driver::Cluster;
using driver::ClusterOptions;
using driver::NodeId;
using driver::Session;

namespace
{
  /// An in-memory single-store sandbox for procedure-level tests.
  struct Sandbox
  {
    kv::Store store;

    /// Runs `body` as one transaction and commits its writes.
    template <typename F>
    auto apply(F&& body)
    {
      kv::Tx tx(store);
      auto result = body(tx);
      const kv::Version v = store.apply(tx.write_set());
      store.commit(v);
      return result;
    }
  };

  Sandbox funded(uint64_t accounts, int64_t checking, int64_t savings)
  {
    Sandbox sandbox;
    sandbox.apply([&](kv::Tx& tx) {
      create_accounts(tx, accounts, checking, savings);
      return 0;
    });
    return sandbox;
  }
}

TEST(SmallBankProcedures, BalanceSumsBothAccounts)
{
  auto s = funded(2, 100, 25);
  const auto r = s.apply([](kv::Tx& tx) { return balance(tx, 1); });
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 125);
  const auto missing = s.apply([](kv::Tx& tx) { return balance(tx, 9); });
  EXPECT_FALSE(missing.ok);
}

TEST(SmallBankProcedures, DepositCheckingAddsFunds)
{
  auto s = funded(1, 10, 0);
  const auto r =
    s.apply([](kv::Tx& tx) { return deposit_checking(tx, 1, 15); });
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 25);
  const auto neg =
    s.apply([](kv::Tx& tx) { return deposit_checking(tx, 1, -5); });
  EXPECT_FALSE(neg.ok);
}

TEST(SmallBankProcedures, TransactSavingsRefusesOverdraw)
{
  auto s = funded(1, 0, 30);
  const auto withdraw =
    s.apply([](kv::Tx& tx) { return transact_savings(tx, 1, -20); });
  ASSERT_TRUE(withdraw.ok);
  EXPECT_EQ(withdraw.value, 10);
  const auto overdraw =
    s.apply([](kv::Tx& tx) { return transact_savings(tx, 1, -11); });
  EXPECT_FALSE(overdraw.ok);
  EXPECT_EQ(overdraw.value, 10); // balance reported, unchanged
  const auto after = s.apply([](kv::Tx& tx) { return balance(tx, 1); });
  EXPECT_EQ(after.value, 10);
}

TEST(SmallBankProcedures, AmalgamateMovesAllFunds)
{
  auto s = funded(2, 40, 60);
  const auto r = s.apply([](kv::Tx& tx) { return amalgamate(tx, 1, 2); });
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 140); // 40 + (40 + 60)
  const auto drained = s.apply([](kv::Tx& tx) { return balance(tx, 1); });
  EXPECT_EQ(drained.value, 0);
  const auto enriched = s.apply([](kv::Tx& tx) { return balance(tx, 2); });
  EXPECT_EQ(enriched.value, 200);
  const auto self = s.apply([](kv::Tx& tx) { return amalgamate(tx, 2, 2); });
  EXPECT_FALSE(self.ok);
}

TEST(SmallBankProcedures, WriteCheckChargesOverdraftPenalty)
{
  auto s = funded(1, 20, 5);
  // Covered check: no penalty.
  const auto covered =
    s.apply([](kv::Tx& tx) { return write_check(tx, 1, 10); });
  ASSERT_TRUE(covered.ok);
  EXPECT_EQ(covered.value, 10);
  // 10 checking + 5 savings = 15 total assets; a 16 check overdraws and
  // costs the $1 penalty.
  const auto overdrawn =
    s.apply([](kv::Tx& tx) { return write_check(tx, 1, 16); });
  ASSERT_TRUE(overdrawn.ok);
  EXPECT_EQ(overdrawn.value, 10 - 16 - 1);
}

TEST(SmallBankWorkload, MixMatchesConfiguredPercentages)
{
  Rng rng(7);
  WorkloadOptions options;
  options.accounts = 10;
  std::map<OpKind, uint64_t> counts;
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i)
  {
    const Op op = next_op(rng, options);
    counts[op.kind] += 1;
    ASSERT_GE(op.a, 1u);
    ASSERT_LE(op.a, options.accounts);
    if (op.kind == OpKind::Amalgamate)
    {
      ASSERT_NE(op.a, op.b);
      ASSERT_GE(op.b, 1u);
      ASSERT_LE(op.b, options.accounts);
    }
  }
  // 15/15/15/15/40 within 2 percentage points at n=20000.
  EXPECT_NEAR(counts[OpKind::Balance] * 100.0 / n, 15.0, 2.0);
  EXPECT_NEAR(counts[OpKind::DepositChecking] * 100.0 / n, 15.0, 2.0);
  EXPECT_NEAR(counts[OpKind::TransactSavings] * 100.0 / n, 15.0, 2.0);
  EXPECT_NEAR(counts[OpKind::Amalgamate] * 100.0 / n, 15.0, 2.0);
  EXPECT_NEAR(counts[OpKind::WriteCheck] * 100.0 / n, 40.0, 2.0);
}

TEST(KvPayload, RoundTripsWritesAndDeletes)
{
  kv::WriteSet ws;
  ws.writes.push_back({"a/k", "value with spaces\nand newline"});
  ws.writes.push_back({"b/gone", std::nullopt});
  ws.writes.push_back({"c/empty", std::string()});
  const std::string payload = kv::encode_payload(ws);
  EXPECT_TRUE(kv::is_kv_payload(payload));
  const auto decoded = kv::decode_payload(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->writes.size(), 3u);
  EXPECT_EQ(decoded->writes[0].key, "a/k");
  EXPECT_EQ(decoded->writes[0].value, ws.writes[0].value);
  EXPECT_EQ(decoded->writes[1].value, std::nullopt);
  EXPECT_EQ(decoded->writes[2].value, std::string());

  EXPECT_FALSE(kv::is_kv_payload("plain payload"));
  EXPECT_EQ(kv::decode_payload("plain payload"), std::nullopt);
  EXPECT_EQ(kv::decode_payload("kvws1\nbogus line"), std::nullopt);
}

TEST(SmallBankReplication, ReplicasConvergeOnSmallBankState)
{
  ClusterOptions options;
  options.seed = 501;
  Cluster c(options);
  Session session(c, driver::SessionOptions{2});

  ASSERT_EQ(
    session
      .submit_app([&](kv::Tx& tx) {
        create_accounts(tx, 3, 100, 100);
        return true;
      })
      .outcome,
    driver::AppOutcome::Submitted);
  ASSERT_TRUE(
    session.submit_app([&](kv::Tx& tx) { return amalgamate(tx, 1, 2).ok; })
      .seq);
  ASSERT_TRUE(
    session
      .submit_app([&](kv::Tx& tx) { return deposit_checking(tx, 3, 50).ok; })
      .seq);
  session.flush();
  for (int i = 0; i < 120; ++i)
  {
    c.tick_all();
    c.drain();
  }

  // All replicas hold identical SmallBank tables with the expected values.
  for (const NodeId id : c.node_ids())
  {
    auto& store = c.store(id);
    EXPECT_EQ(store.get("smallbank.checking/1"), std::optional<std::string>("0"))
      << "node " << id;
    EXPECT_EQ(store.get("smallbank.savings/1"), std::optional<std::string>("0"));
    EXPECT_EQ(
      store.get("smallbank.checking/2"), std::optional<std::string>("300"));
    EXPECT_EQ(
      store.get("smallbank.checking/3"), std::optional<std::string>("150"));
    EXPECT_EQ(
      store.keys_with_prefix("smallbank.").size(),
      c.store(1).keys_with_prefix("smallbank.").size());
  }
}

TEST(SmallBankLoad, OpenLoopRunCommitsAndMeasuresLatency)
{
  LoadOptions options;
  options.seed = 11;
  options.workload.accounts = 8;
  options.duration_ticks = 200;
  options.submit_period = 4;
  options.batch_size = 3;
  LoadRunner runner(options);
  const LoadResult result = runner.run();

  EXPECT_EQ(result.submitted, 50u);
  EXPECT_GT(result.executed, 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_EQ(result.committed, result.commit_latency_ticks.size());
  EXPECT_EQ(
    result.submitted,
    result.executed + result.ro_reads + result.rejected + result.app_refused);
  for (const uint64_t lat : result.commit_latency_ticks)
  {
    EXPECT_GE(lat, 1u);
  }
  // Savings never go negative (transact_savings refuses overdraws), on
  // every replica.
  for (const NodeId id : runner.cluster().node_ids())
  {
    auto& store = runner.cluster().store(id);
    for (const auto& key : store.keys_with_prefix("smallbank.savings/"))
    {
      const auto value = store.get(key);
      ASSERT_TRUE(value.has_value());
      EXPECT_GE(std::stoll(*value), 0) << key << " on node " << id;
    }
  }
}

TEST(SmallBankLoad, DeterministicAcrossRuns)
{
  LoadOptions options;
  options.seed = 13;
  options.workload.accounts = 6;
  options.duration_ticks = 120;
  options.submit_period = 3;
  LoadRunner a(options);
  LoadRunner b(options);
  const LoadResult ra = a.run();
  const LoadResult rb = b.run();
  EXPECT_EQ(ra.submitted, rb.submitted);
  EXPECT_EQ(ra.executed, rb.executed);
  EXPECT_EQ(ra.committed, rb.committed);
  EXPECT_EQ(ra.commit_latency_ticks, rb.commit_latency_ticks);
  EXPECT_EQ(a.session().history(), b.session().history());
}

TEST(SmallBankLoad, LatencyPercentileNearestRank)
{
  EXPECT_EQ(latency_percentile({}, 50), 0u);
  EXPECT_EQ(latency_percentile({7}, 50), 7u);
  EXPECT_EQ(latency_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50), 5u);
  EXPECT_EQ(latency_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9u);
  EXPECT_EQ(latency_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99), 10u);
  EXPECT_EQ(latency_percentile({10, 1, 5}, 100), 10u); // unsorted input
}

TEST(SmallBankLoad, HistoryRoundTripsAndValidatesThroughTraceValidator)
{
  LoadOptions options;
  options.seed = 17;
  options.workload.accounts = 4;
  options.duration_ticks = 36;
  options.submit_period = 6;
  options.batch_size = 2;
  LoadRunner runner(options);
  const LoadResult result = runner.run();
  ASSERT_GT(result.committed, 0u);

  const auto& history = runner.session().history();
  ASSERT_FALSE(history.empty());

  // JSONL round-trip is exact.
  const std::string jsonl = trace::client_history_to_jsonl(history);
  const auto parsed = trace::client_history_from_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, history);

  // The load-generated history validates against the consistency spec
  // (bounded prefix under the spec's packed-TxId transaction cap).
  const auto prefix = trace::history_prefix_within(history, 14);
  ASSERT_FALSE(prefix.empty());
  const auto r = trace::validate_consistency_trace(prefix);
  EXPECT_TRUE(r.ok) << "matched " << r.lines_matched << " of "
                    << prefix.size() << "; failed: " << r.failed_line;
}

TEST(SmallBankLoad, HistoryGoldenAcrossLeaderChange)
{
  // Pins the exact bytes of a session history: a fixed-seed load run,
  // then an open batch stranded on an isolated leader, a forced election,
  // and traffic through the new leader. The strand exercises INVALID
  // statuses (checked below); the digest turns "the serving path's
  // history is unchanged" into a checked property.
  LoadOptions options;
  options.seed = 23;
  options.workload.accounts = 8;
  options.duration_ticks = 600;
  options.submit_period = 2;
  options.batch_size = 4;
  LoadRunner runner(options);
  const LoadResult result = runner.run();
  ASSERT_GT(result.committed, 100u);

  auto& c = runner.cluster();
  auto& session = runner.session();
  Rng rng(29);
  const auto submit_ops = [&](int n) {
    for (int i = 0; i < n; ++i)
    {
      const Op op = next_op(rng, options.workload);
      if (op.kind == OpKind::Balance)
      {
        session.submit_ro();
        continue;
      }
      session.submit_app([&](kv::Tx& tx) { return execute(tx, op).ok; });
    }
  };
  const auto settle = [&](int ticks) {
    for (int i = 0; i < ticks; ++i)
    {
      c.tick_all();
      c.drain();
    }
  };

  const auto old_leader = c.find_leader();
  ASSERT_TRUE(old_leader.has_value());
  submit_ops(6); // on the old leader, just before it is cut off
  c.isolate(*old_leader);
  submit_ops(3); // on the isolated old leader
  const NodeId other = *old_leader == 1 ? 2 : 1;
  c.node(other).force_timeout();
  settle(120);
  const auto new_leader = c.find_leader();
  ASSERT_TRUE(new_leader.has_value());
  ASSERT_NE(*new_leader, *old_leader);
  submit_ops(10);
  session.flush();
  c.heal();
  settle(200);
  const uint64_t last_seq = session.history().back().client_seq;
  for (uint64_t seq = 1; seq <= last_seq; ++seq)
  {
    session.poll(seq);
  }

  size_t invalid = 0;
  for (const auto& ev : session.history())
  {
    invalid += ev.kind == driver::ClientEventKind::Status &&
        ev.status == TxStatus::Invalid ?
      1 :
      0;
  }
  EXPECT_GT(invalid, 0u);

  const std::string path = testing::TempDir() + "smallbank_golden.jsonl";
  ASSERT_TRUE(trace::write_client_history(path, session.history()));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(
    (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(
    crypto::digest_to_hex(crypto::sha256(bytes)),
    "24bf9ed84a3d7464c1aa702b7d5800d8585d45541f00acb7025045efdd07fb87")
    << session.history().size() << " events";
}

TEST(ClientHistoryIo, PrefixWithinCutsAtFirstOutOfBoundResponse)
{
  using driver::ClientEvent;
  using driver::ClientEventKind;
  std::vector<ClientEvent> events;
  for (uint64_t i = 1; i <= 4; ++i)
  {
    ClientEvent req;
    req.kind = ClientEventKind::RwReq;
    req.client_seq = i;
    events.push_back(req);
    ClientEvent res;
    res.kind = ClientEventKind::RwRes;
    res.client_seq = i;
    res.txid = consensus::TxId{1, i};
    for (uint64_t k = 1; k < i; ++k)
    {
      res.observed.push_back(consensus::TxId{1, k});
    }
    events.push_back(res);
  }
  const auto prefix = trace::history_prefix_within(events, 2);
  // Transactions 1 and 2 stay; transaction 3's request leaves with its
  // out-of-bound response, and nothing after survives.
  ASSERT_EQ(prefix.size(), 4u);
  EXPECT_EQ(prefix[3].txid.index, 2u);
  // A bound covering everything keeps everything.
  EXPECT_EQ(trace::history_prefix_within(events, 10).size(), events.size());
}
