// Unit tests for consensus building blocks: Ledger (append/truncate/Merkle
// integration, signature scanning, agreement estimates, the Data-entry tx
// ids through compaction and snapshots), TxIdRuns against
// std::vector<TxId>, Configurations (active sets, joint vs union quorums),
// and message serialization.
#include <gtest/gtest.h>

#include "consensus/configuration.h"
#include "consensus/ledger.h"
#include "consensus/messages.h"
#include "consensus/txid_runs.h"
#include "crypto/signer.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::consensus;

namespace
{
  Entry data_entry(Term term, const std::string& payload)
  {
    Entry e;
    e.term = term;
    e.type = EntryType::Data;
    e.data = payload;
    return e;
  }

  Entry sig_entry(Term term)
  {
    Entry e;
    e.term = term;
    e.type = EntryType::Signature;
    return e;
  }

  Entry config_entry(Term term, std::vector<NodeId> nodes)
  {
    Entry e;
    e.term = term;
    e.type = EntryType::Reconfiguration;
    e.config = std::move(nodes);
    return e;
  }
}

TEST(Ledger, EmptyLedger)
{
  Ledger l;
  EXPECT_EQ(l.last_index(), 0u);
  EXPECT_EQ(l.term_at(0), 0u);
  EXPECT_EQ(l.term_at(1), 0u);
  EXPECT_EQ(l.last_term(), 0u);
}

TEST(Ledger, AppendAssignsSequentialIndices)
{
  Ledger l;
  EXPECT_EQ(l.append(data_entry(1, "a")), 1u);
  EXPECT_EQ(l.append(data_entry(1, "b")), 2u);
  EXPECT_EQ(l.last_index(), 2u);
  EXPECT_EQ(l.at(1).data, "a");
  EXPECT_EQ(l.at(2).data, "b");
}

TEST(Ledger, TermAt)
{
  Ledger l;
  l.append(data_entry(1, "a"));
  l.append(data_entry(2, "b"));
  EXPECT_EQ(l.term_at(1), 1u);
  EXPECT_EQ(l.term_at(2), 2u);
  EXPECT_EQ(l.term_at(3), 0u);
  EXPECT_EQ(l.last_term(), 2u);
}

TEST(Ledger, TruncateDropsSuffixAndMerkleFollows)
{
  Ledger l;
  l.append(data_entry(1, "a"));
  const auto root1 = l.root();
  l.append(data_entry(1, "b"));
  EXPECT_NE(l.root(), root1);
  l.truncate(1);
  EXPECT_EQ(l.last_index(), 1u);
  EXPECT_EQ(l.root(), root1);
}

TEST(Ledger, DataTxidsSurviveCompactAndSnapshot)
{
  Ledger l;
  l.append(data_entry(1, "a")); // 1: (1, 1)
  l.append(sig_entry(1)); // 2
  l.append(data_entry(2, "b")); // 3: (2, 2)
  l.append(data_entry(2, "c")); // 4: (2, 3)
  l.append(sig_entry(2)); // 5
  l.append(data_entry(3, "d")); // 6: (3, 4)
  const std::vector<TxId> ids = {{1, 1}, {2, 2}, {2, 3}, {3, 4}};
  EXPECT_EQ(l.data_txids(), ids);
  EXPECT_EQ(l.data_txids().runs().size(), 3u);

  l.compact(2);
  EXPECT_EQ(l.data_txids(), ids);
  l.compact(5);
  EXPECT_EQ(l.data_txids(), ids);

  // A ledger rebuilt from the snapshot at 5 has the ids of its prefix,
  // and appends continue the numbering.
  std::vector<EntryMeta> meta;
  for (Index i = 1; i <= 5; ++i)
  {
    meta.push_back({l.term_at(i), l.type_at(i)});
  }
  const std::vector<crypto::Digest> leaves(
    l.leaves().begin(), l.leaves().begin() + 5);
  Ledger restored = Ledger::from_snapshot(5, meta, leaves);
  EXPECT_EQ(restored.data_txids(), l.data_txids().prefix(3));
  restored.append(data_entry(3, "d"));
  EXPECT_EQ(restored.data_txids(), l.data_txids());

  // Truncation back to the hole drops the ids above it.
  l.truncate(5);
  EXPECT_EQ(l.data_txids(), (std::vector<TxId>{{1, 1}, {2, 2}, {2, 3}}));
}

namespace
{
  /// A random id sequence: mostly runs of consecutive indices with term
  /// changes, plus gaps, repeats, backwards steps and forged ids (term or
  /// index 0, huge values).
  std::vector<TxId> random_ids(Rng& rng, size_t n)
  {
    std::vector<TxId> out;
    TxId next{1, 1};
    for (size_t i = 0; i < n; ++i)
    {
      const uint64_t roll = rng.below(100);
      if (roll < 10)
      {
        next.term += 1 + rng.below(2);
      }
      else if (roll < 15)
      {
        next.index += rng.below(4);
      }
      else if (roll < 18)
      {
        next.index -= std::min<Index>(next.index, rng.below(3));
      }
      else if (roll < 20)
      {
        next = TxId{rng.below(2) == 0 ? 0 : ~Term{0}, rng.below(3)};
      }
      out.push_back(next);
      next.index += 1;
    }
    return out;
  }

  TxIdRuns runs_of(const std::vector<TxId>& ids)
  {
    TxIdRuns out;
    for (const TxId& id : ids)
    {
      out.push_back(id);
    }
    return out;
  }

  std::vector<TxId> head(const std::vector<TxId>& ids, size_t n)
  {
    return {ids.begin(), ids.begin() + static_cast<ptrdiff_t>(n)};
  }
}

TEST(TxIdRuns, RoundTripsVectorsOnRandomSequences)
{
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial)
  {
    const auto ids = random_ids(rng, rng.below(40));
    const TxIdRuns runs = runs_of(ids);
    ASSERT_EQ(runs.size(), ids.size());
    EXPECT_EQ(runs.empty(), ids.empty());
    EXPECT_EQ(std::vector<TxId>(runs.begin(), runs.end()), ids);
    EXPECT_TRUE(runs == ids);
    size_t in_runs = 0;
    for (const auto& run : runs.runs())
    {
      EXPECT_GT(run.length, 0u);
      in_runs += run.length;
    }
    EXPECT_EQ(in_runs, ids.size());

    for (size_t n = 0; n <= ids.size(); ++n)
    {
      EXPECT_EQ(runs.prefix(n), head(ids, n)) << "prefix " << n;
      TxIdRuns cut = runs;
      cut.truncate(n);
      EXPECT_EQ(cut, head(ids, n)) << "truncate " << n;
      EXPECT_EQ(cut, runs_of(head(ids, n)));
    }
    if (!ids.empty())
    {
      auto changed = ids;
      changed[rng.below(ids.size())].index += 1;
      EXPECT_FALSE(runs == changed);
      EXPECT_FALSE(runs == head(ids, ids.size() - 1));
    }
  }
}

TEST(TxIdRuns, SamePrefixMatchesElementwiseComparison)
{
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial)
  {
    // Pairs that share a prefix and then (usually) diverge.
    const auto common = random_ids(rng, rng.below(12));
    auto a = common;
    auto b = common;
    const auto tail_a = random_ids(rng, rng.below(12));
    const auto tail_b =
      rng.below(3) == 0 ? tail_a : random_ids(rng, rng.below(12));
    a.insert(a.end(), tail_a.begin(), tail_a.end());
    b.insert(b.end(), tail_b.begin(), tail_b.end());
    const TxIdRuns ra = runs_of(a);
    const TxIdRuns rb = runs_of(b);
    for (size_t n = 0; n <= std::min(a.size(), b.size()); ++n)
    {
      EXPECT_EQ(TxIdRuns::same_prefix(ra, rb, n), head(a, n) == head(b, n))
        << "n " << n;
      EXPECT_EQ(TxIdRuns::same_prefix(ra, rb, n), ra.prefix(n) == rb.prefix(n));
    }
  }
}

TEST(TxIdRuns, EqualityIsCanonical)
{
  // The same sequence reached by pushes, by a prefix, and by truncating
  // then pushing has the same runs.
  const std::vector<TxId> ids = {{1, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}};
  const TxIdRuns pushed = runs_of(ids);
  const TxIdRuns longer =
    runs_of({{1, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {2, 6}});
  TxIdRuns regrown = longer;
  regrown.truncate(3);
  regrown.push_back({2, 4});
  regrown.push_back({2, 5});
  EXPECT_EQ(longer.prefix(5), pushed);
  EXPECT_EQ(regrown, pushed);
  EXPECT_EQ(regrown.runs().size(), 2u);
  EXPECT_TRUE(regrown.runs() == pushed.runs());

  // Same length and terms, different ids: not equal.
  EXPECT_NE(runs_of({{1, 1}, {1, 3}}), runs_of({{1, 1}, {1, 2}}));
  EXPECT_NE(runs_of({{1, 1}, {2, 2}}), runs_of({{1, 1}, {1, 2}}));
  // A non-consecutive id opens its own run.
  EXPECT_EQ(runs_of({{1, 1}, {1, 3}}).runs().size(), 2u);
  EXPECT_EQ(runs_of({{1, 2}, {1, 2}}).runs().size(), 2u);
  EXPECT_EQ(TxIdRuns(), std::vector<TxId>{});
}

TEST(TxIdRuns, PrefixAndTruncateAtRunBoundaries)
{
  // Runs: (1, 1..3), (2, 4..5), (2, 7).
  const TxIdRuns r = runs_of({{1, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {2, 7}});
  ASSERT_EQ(r.runs().size(), 3u);
  EXPECT_EQ(r.prefix(0).runs().size(), 0u);
  EXPECT_EQ(r.prefix(2).runs().size(), 1u);
  EXPECT_EQ(r.prefix(3).runs().size(), 1u);
  EXPECT_EQ(r.prefix(4).runs().size(), 2u);
  EXPECT_EQ(r.prefix(5).runs().size(), 2u);
  EXPECT_EQ(r.prefix(6), r);
  EXPECT_EQ(r.prefix(3).runs().back().length, 3u);
  EXPECT_EQ(r.prefix(4).runs().back(), (TxIdRuns::Run{2, 4, 1}));

  TxIdRuns cut = r;
  cut.truncate(5);
  EXPECT_EQ(cut.runs().size(), 2u);
  cut.push_back({2, 6}); // continues (2, 4..5)
  EXPECT_EQ(cut.runs().size(), 2u);
  EXPECT_EQ(cut.runs().back(), (TxIdRuns::Run{2, 4, 3}));
  cut.truncate(0);
  EXPECT_TRUE(cut.empty());
  EXPECT_EQ(cut.begin(), cut.end());
  cut.push_back({5, 9});
  EXPECT_EQ(cut, (std::vector<TxId>{{5, 9}}));
  cut.clear();
  EXPECT_EQ(cut, TxIdRuns());

  EXPECT_THROW((void)r.prefix(7), CheckFailure);
  EXPECT_THROW(TxIdRuns(r).truncate(7), CheckFailure);
}

TEST(Ledger, SignatureScanning)
{
  Ledger l;
  l.append(data_entry(1, "a")); // 1
  l.append(sig_entry(1)); // 2
  l.append(data_entry(1, "b")); // 3
  l.append(sig_entry(1)); // 4
  l.append(data_entry(2, "c")); // 5
  EXPECT_EQ(l.last_signature_at_or_before(5), 4u);
  EXPECT_EQ(l.last_signature_at_or_before(3), 2u);
  EXPECT_EQ(l.last_signature_at_or_before(1), 0u);
  EXPECT_EQ(l.signature_indices_after(0), (std::vector<Index>{2, 4}));
  EXPECT_EQ(l.signature_indices_after(2), (std::vector<Index>{4}));
  EXPECT_EQ(l.signature_indices_after(4), (std::vector<Index>{}));
}

TEST(Ledger, AgreementEstimateSkipsTerms)
{
  // Log terms: 1 1 2 2 3 3 — express catch-up skips whole terms (§2.1).
  Ledger l;
  for (const Term t : {1, 1, 2, 2, 3, 3})
  {
    l.append(data_entry(t, "x"));
  }
  // Leader's prev at idx 6 with term 2: last local index with term <= 2 is 4.
  EXPECT_EQ(l.agreement_estimate(6, 2), 4u);
  EXPECT_EQ(l.agreement_estimate(6, 1), 2u);
  EXPECT_EQ(l.agreement_estimate(6, 0), 0u);
  EXPECT_EQ(l.agreement_estimate(3, 3), 3u);
  // Bound above the log is clamped.
  EXPECT_EQ(l.agreement_estimate(100, 3), 6u);
}

TEST(Ledger, WindowCopiesHalfOpenRange)
{
  Ledger l;
  l.append(data_entry(1, "a"));
  l.append(data_entry(1, "b"));
  l.append(data_entry(1, "c"));
  const auto w = l.window(1, 3);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].data, "b");
  EXPECT_EQ(w[1].data, "c");
  EXPECT_TRUE(l.window(2, 2).empty());
}

TEST(Ledger, ProofsVerifyAgainstRoot)
{
  Ledger l;
  for (int i = 0; i < 9; ++i)
  {
    l.append(data_entry(1, "entry" + std::to_string(i)));
  }
  for (Index i = 1; i <= 9; ++i)
  {
    EXPECT_TRUE(crypto::MerkleTree::verify_path(
      entry_digest(l.at(i)), l.proof(i), l.root()));
  }
}

TEST(EntryDigest, SensitiveToEveryField)
{
  const Entry base = data_entry(1, "x");
  Entry changed = base;
  changed.term = 2;
  EXPECT_NE(entry_digest(base), entry_digest(changed));
  changed = base;
  changed.type = EntryType::Signature;
  EXPECT_NE(entry_digest(base), entry_digest(changed));
  changed = base;
  changed.data = "y";
  EXPECT_NE(entry_digest(base), entry_digest(changed));
  changed = base;
  changed.config = {1};
  EXPECT_NE(entry_digest(base), entry_digest(changed));
  changed = base;
  changed.retiring_node = 3;
  EXPECT_NE(entry_digest(base), entry_digest(changed));
}

TEST(Configurations, RebuildFindsAllConfigs)
{
  Ledger l;
  l.append(config_entry(1, {1, 2, 3})); // 1
  l.append(sig_entry(1)); // 2
  l.append(config_entry(1, {2, 3, 4})); // 3
  Configurations c;
  c.rebuild(l);
  ASSERT_EQ(c.all().size(), 2u);
  EXPECT_EQ(c.all()[0].idx, 1u);
  EXPECT_EQ(c.all()[1].idx, 3u);
}

TEST(Configurations, ActiveIncludesCurrentPlusPending)
{
  Ledger l;
  l.append(config_entry(1, {1, 2, 3}));
  l.append(sig_entry(1));
  l.append(config_entry(1, {2, 3, 4}));
  Configurations c;
  c.rebuild(l);
  // Commit at 2: config {1,2,3} committed, {2,3,4} pending -> both active.
  const auto active = c.active(2);
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(c.current(2).nodes, (std::vector<NodeId>{1, 2, 3}));
  // Commit at 3: only the new config is active.
  const auto active3 = c.active(3);
  ASSERT_EQ(active3.size(), 1u);
  EXPECT_EQ(active3[0].nodes, (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(c.active_nodes(2), (std::set<NodeId>{1, 2, 3, 4}));
}

TEST(Configurations, JointQuorumRequiresBothMajorities)
{
  Ledger l;
  l.append(config_entry(1, {1, 2, 3}));
  l.append(config_entry(1, {4, 5}));
  Configurations c;
  c.rebuild(l);
  // Active at commit 1: {1,2,3} (current) and {4,5} (pending).
  const auto has = [](std::set<NodeId> in) {
    return [in](NodeId n) { return in.contains(n); };
  };
  // Majority of old only: not enough.
  EXPECT_FALSE(c.quorum_in_each(1, has({1, 2})));
  // Majority of new only: not enough.
  EXPECT_FALSE(c.quorum_in_each(1, has({4, 5})));
  // Majority of old + one of two new nodes: {4,5} needs both.
  EXPECT_FALSE(c.quorum_in_each(1, has({1, 2, 4})));
  // Both majorities: enough.
  EXPECT_TRUE(c.quorum_in_each(1, has({1, 2, 4, 5})));
  // The buggy union tally accepts a set with no majority in {4,5} —
  // 3 of 5 union nodes.
  EXPECT_TRUE(c.quorum_in_union(1, has({1, 2, 3})));
  EXPECT_FALSE(c.quorum_in_each(1, has({1, 2, 3})));
}

TEST(Configurations, SingletonQuorum)
{
  Ledger l;
  l.append(config_entry(1, {1}));
  Configurations c;
  c.rebuild(l);
  EXPECT_TRUE(c.quorum_in_each(1, [](NodeId n) { return n == 1; }));
  EXPECT_FALSE(c.quorum_in_each(1, [](NodeId) { return false; }));
}

TEST(QuorumSize, Values)
{
  EXPECT_EQ(quorum_size(1), 1u);
  EXPECT_EQ(quorum_size(2), 2u);
  EXPECT_EQ(quorum_size(3), 2u);
  EXPECT_EQ(quorum_size(4), 3u);
  EXPECT_EQ(quorum_size(5), 3u);
}

TEST(TxId, LexicographicOrder)
{
  EXPECT_LT((TxId{1, 5}), (TxId{2, 1}));
  EXPECT_LT((TxId{2, 1}), (TxId{2, 2}));
  EXPECT_EQ((TxId{2, 2}), (TxId{2, 2}));
  EXPECT_EQ((TxId{3, 7}).to_string(), "3.7");
}

class MessageRoundTrip : public ::testing::TestWithParam<Message>
{};

TEST_P(MessageRoundTrip, SerializeDeserialize)
{
  const Message& m = GetParam();
  const auto bytes = serialize(m);
  const auto back = deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

namespace
{
  Message ae_with_entries()
  {
    AppendEntriesRequest m;
    m.term = 3;
    m.leader = 1;
    m.prev_idx = 5;
    m.prev_term = 2;
    m.leader_commit = 4;
    m.entries.push_back(data_entry(3, "payload"));
    Entry sig = sig_entry(3);
    sig.root = crypto::sha256("root");
    sig.signer = 1;
    sig.signature = crypto::Signer(1).sign(sig.root);
    m.entries.push_back(sig);
    Entry cfg = config_entry(3, {1, 2, 5});
    m.entries.push_back(cfg);
    Entry ret;
    ret.term = 3;
    ret.type = EntryType::Retirement;
    ret.retiring_node = 4;
    m.entries.push_back(ret);
    return m;
  }
}

INSTANTIATE_TEST_SUITE_P(
  AllTypes,
  MessageRoundTrip,
  ::testing::Values(
    Message(AppendEntriesRequest{2, 1, 0, 0, 0, {}}),
    ae_with_entries(),
    Message(AppendEntriesResponse{2, 3, true, 7}),
    Message(AppendEntriesResponse{5, 2, false, 0}),
    Message(RequestVoteRequest{4, 2, 9, 3}),
    Message(RequestVoteResponse{4, 3, true}),
    Message(RequestVoteResponse{4, 3, false}),
    Message(ProposeRequestVote{6, 1})));

TEST(Messages, DeserializeRejectsMalformed)
{
  EXPECT_FALSE(deserialize({}).has_value());
  EXPECT_FALSE(deserialize({99}).has_value()); // unknown tag
  // Truncated AE response.
  auto bytes = serialize(Message(AppendEntriesResponse{2, 3, true, 7}));
  bytes.pop_back();
  EXPECT_FALSE(deserialize(bytes).has_value());
  // Trailing garbage.
  bytes = serialize(Message(RequestVoteResponse{4, 3, true}));
  bytes.push_back(0);
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Messages, DeserializeRejectsAbsurdEntryCount)
{
  // Claim 2^60 entries with an empty body: must fail cleanly, not allocate.
  AppendEntriesRequest m;
  m.term = 1;
  auto bytes = serialize(Message(m));
  // Patch the entry count (last 8 bytes of the fixed header).
  for (size_t i = bytes.size() - 8; i < bytes.size(); ++i)
  {
    bytes[i] = 0xff;
  }
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Messages, TypeNamesAndJson)
{
  const Message m = Message(RequestVoteRequest{4, 2, 9, 3});
  EXPECT_STREQ(message_type_name(m), "RequestVoteRequest");
  const auto j = message_to_json(m);
  EXPECT_EQ(j.at("term").as_int(), 4);
  EXPECT_EQ(j.at("candidate").as_int(), 2);
}
