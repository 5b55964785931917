// Property-based sweeps: randomized inputs checked against naive reference
// implementations and structural invariants — the casual half of smart
// casual verification, broadened with parameterized seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "consensus/ledger.h"
#include "consensus/messages.h"
#include "crypto/merkle_tree.h"
#include "driver/cluster.h"
#include "driver/invariants.h"
#include "trace/consensus_binding.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::consensus;

// ---------------------------------------------------------------------------
// Merkle tree vs a naive recompute-from-scratch reference, under random
// append/truncate interleavings, across power-of-two sizes, and between
// the appending and the bulk (snapshot-install) constructions.
// ---------------------------------------------------------------------------

namespace
{
  using Leaves = std::vector<crypto::Digest>;

  /// RFC 6962 split: largest power of two strictly below n (n >= 2).
  size_t naive_split(size_t n)
  {
    size_t k = 1;
    while (k * 2 < n)
    {
      k *= 2;
    }
    return k;
  }

  /// Root over leaves[begin, end), recomputed from scratch.
  crypto::Digest naive_subtree(const Leaves& leaves, size_t begin, size_t end)
  {
    if (end - begin == 1)
    {
      return leaves[begin];
    }
    const size_t k = naive_split(end - begin);
    return crypto::MerkleTree::combine(
      naive_subtree(leaves, begin, begin + k),
      naive_subtree(leaves, begin + k, end));
  }

  crypto::Digest naive_root(const Leaves& leaves)
  {
    if (leaves.empty())
    {
      return crypto::sha256("");
    }
    return naive_subtree(leaves, 0, leaves.size());
  }

  /// RFC 6962 PATH(index, D[0:size]), recomputed from scratch: siblings
  /// from the leaf up.
  crypto::Path naive_path(const Leaves& leaves, size_t index, size_t size)
  {
    crypto::Path out;
    size_t begin = 0;
    size_t end = size;
    while (end - begin > 1)
    {
      const size_t k = naive_split(end - begin);
      if (index < begin + k)
      {
        out.push_back({naive_subtree(leaves, begin + k, end), false});
        end = begin + k;
      }
      else
      {
        out.push_back({naive_subtree(leaves, begin, begin + k), true});
        begin += k;
      }
    }
    return {out.rbegin(), out.rend()};
  }

  Leaves random_leaves(Rng& rng, size_t n)
  {
    Leaves out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
    {
      out.push_back(crypto::sha256("leaf" + std::to_string(rng.next())));
    }
    return out;
  }

  /// Leaf indices to check against the O(n)-per-path reference in a tree
  /// of `size` leaves: every one while small, else both ends, both sides
  /// of the middle, and a random sample.
  std::vector<size_t> probe_indices(Rng& rng, size_t size)
  {
    std::vector<size_t> out;
    if (size <= 64)
    {
      for (size_t i = 0; i < size; ++i)
      {
        out.push_back(i);
      }
      return out;
    }
    out = {0, size / 2 - 1, size / 2, size - 1};
    for (int r = 0; r < 4; ++r)
    {
      out.push_back(rng.below(size));
    }
    return out;
  }
}

class MerklePropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MerklePropertyTest, MatchesNaiveReferenceUnderRandomOps)
{
  Rng rng(GetParam());
  crypto::MerkleTree tree;
  Leaves reference;
  for (int op = 0; op < 300; ++op)
  {
    if (reference.empty() || rng.below(100) < 70)
    {
      const auto leaf =
        crypto::sha256("leaf" + std::to_string(rng.next() % 1000));
      tree.append(leaf);
      reference.push_back(leaf);
    }
    else
    {
      const size_t keep = rng.below(reference.size() + 1);
      tree.truncate(keep);
      reference.resize(keep);
    }
    ASSERT_EQ(tree.root(), naive_root(reference)) << "op " << op;
    ASSERT_EQ(tree.size(), reference.size());
    ASSERT_EQ(tree.leaves(), reference);
    if (!reference.empty())
    {
      const size_t i = rng.below(reference.size());
      ASSERT_EQ(tree.path(i), naive_path(reference, i, reference.size()))
        << "op " << op << " leaf " << i;
    }
  }
  // Every inclusion proof of the final tree equals the reference path
  // byte for byte, and verifies.
  for (size_t i = 0; i < reference.size(); ++i)
  {
    const auto path = tree.path(i);
    EXPECT_EQ(path, naive_path(reference, i, reference.size())) << i;
    EXPECT_TRUE(crypto::MerkleTree::verify_path(reference[i], path, tree.root()));
  }
}

TEST_P(MerklePropertyTest, PowerOfTwoBoundariesUpTo4097Leaves)
{
  // Grow one leaf at a time through 2^12 + 1, checking the root and the
  // paths at every size next to a power of two — where the cached levels
  // gain a new top — plus proofs against every older size (receipts).
  Rng rng(GetParam() * 7919);
  const Leaves reference = random_leaves(rng, 4097);
  crypto::MerkleTree tree;
  for (size_t n = 1; n <= reference.size(); ++n)
  {
    tree.append(reference[n - 1]);
    const bool boundary = std::has_single_bit(n) ||
      std::has_single_bit(n + 1) || std::has_single_bit(n - 1);
    if (!boundary)
    {
      continue;
    }
    const Leaves prefix(reference.begin(), reference.begin() + n);
    ASSERT_EQ(tree.root(), naive_root(prefix)) << n << " leaves";
    for (const size_t i : probe_indices(rng, n))
    {
      ASSERT_EQ(tree.path(i), naive_path(prefix, i, n))
        << "leaf " << i << " of " << n;
      const size_t older = i + 1 + rng.below(n - i);
      ASSERT_EQ(tree.path(i, older), naive_path(prefix, i, older))
        << "leaf " << i << " against size " << older << " of " << n;
    }
  }

  // Truncation back across the same boundaries, then regrowth.
  for (const size_t keep : {4096u, 4095u, 2049u, 1024u, 1023u, 3u, 1u, 0u})
  {
    tree.truncate(keep);
    const Leaves prefix(reference.begin(), reference.begin() + keep);
    ASSERT_EQ(tree.root(), naive_root(prefix)) << keep;
  }
  for (size_t n = 0; n < 1025; ++n)
  {
    tree.append(reference[n]);
  }
  const Leaves regrown(reference.begin(), reference.begin() + 1025);
  ASSERT_EQ(tree.root(), naive_root(regrown));
  ASSERT_EQ(tree.path(1000), naive_path(regrown, 1000, 1025));
}

TEST_P(MerklePropertyTest, LeavesConstructorEqualsAppending)
{
  // The bulk construction (Ledger::from_snapshot) and leaf-by-leaf
  // appending agree in the root and every path, and keep agreeing after
  // further appends and truncations.
  Rng rng(GetParam() * 104729);
  for (const size_t n :
       {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 32u, 33u, 255u, 256u, 257u,
        1023u, 1024u, 1025u, 4095u, 4096u, 4097u})
  {
    const Leaves leaves = random_leaves(rng, n);
    crypto::MerkleTree appended;
    for (const auto& leaf : leaves)
    {
      appended.append(leaf);
    }
    crypto::MerkleTree built(leaves);
    ASSERT_EQ(built.size(), n);
    ASSERT_EQ(built.leaves(), leaves);
    ASSERT_EQ(built.root(), appended.root()) << n << " leaves";
    for (size_t i = 0; i < n; ++i)
    {
      ASSERT_EQ(built.path(i), appended.path(i)) << "leaf " << i << " of " << n;
    }

    const auto extra = random_leaves(rng, 1 + rng.below(5));
    for (const auto& leaf : extra)
    {
      built.append(leaf);
      appended.append(leaf);
    }
    ASSERT_EQ(built.root(), appended.root());
    const size_t keep = rng.below(built.size() + 1);
    built.truncate(keep);
    appended.truncate(keep);
    ASSERT_EQ(built.root(), appended.root()) << "truncated to " << keep;
  }
}

INSTANTIATE_TEST_SUITE_P(
  Seeds, MerklePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Ledger Data-entry index and tx ids vs a naive type_at scan, under random
// append/truncate/compact interleavings and snapshot rebuilds.
// ---------------------------------------------------------------------------

namespace
{
  void expect_data_index_matches_scan(const Ledger& ledger, int op)
  {
    std::vector<Index> naive;
    for (Index i = 1; i <= ledger.last_index(); ++i)
    {
      if (ledger.type_at(i) == EntryType::Data)
      {
        naive.push_back(i);
      }
    }
    for (Index i = 0; i <= ledger.last_index() + 2; ++i)
    {
      const auto count = static_cast<size_t>(
        std::upper_bound(naive.begin(), naive.end(), i) - naive.begin());
      ASSERT_EQ(ledger.data_count_upto(i), count) << "op " << op << " idx " << i;
    }
    std::vector<TxId> txids;
    for (size_t k = 1; k <= naive.size(); ++k)
    {
      ASSERT_EQ(ledger.data_index(k), naive[k - 1]) << "op " << op << " k " << k;
      txids.push_back(TxId{ledger.term_at(naive[k - 1]), k});
    }
    EXPECT_THROW((void)ledger.data_index(naive.size() + 1), CheckFailure);
    ASSERT_EQ(ledger.data_txids(), txids) << "op " << op;
  }
}

class DataIndexPropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DataIndexPropertyTest, MatchesNaiveScanUnderRandomOps)
{
  Rng rng(GetParam() * 6151);
  Ledger ledger;
  Term term = 1;
  for (int op = 0; op < 400; ++op)
  {
    const uint64_t roll = rng.below(100);
    if (ledger.empty() || roll < 60)
    {
      Entry e;
      term += rng.below(100) < 5 ? 1 : 0;
      e.term = term;
      const uint64_t kind = rng.below(10);
      e.type = kind < 6 ? EntryType::Data :
        kind < 9        ? EntryType::Signature :
                          EntryType::Reconfiguration;
      e.data = "op" + std::to_string(op);
      ledger.append(e);
    }
    else if (roll < 80)
    {
      const Index floor = ledger.start_index();
      ledger.truncate(floor + rng.below(ledger.last_index() - floor + 1));
    }
    else
    {
      // Compact at, or rebuild from a snapshot of, a random signature
      // above the hole.
      std::vector<Index> sigs;
      for (Index i = ledger.start_index() + 1; i <= ledger.last_index(); ++i)
      {
        if (ledger.type_at(i) == EntryType::Signature)
        {
          sigs.push_back(i);
        }
      }
      if (sigs.empty())
      {
        continue;
      }
      const Index at = sigs[rng.below(sigs.size())];
      if (roll < 90)
      {
        ledger.compact(at);
      }
      else
      {
        std::vector<EntryMeta> meta;
        for (Index i = 1; i <= at; ++i)
        {
          meta.push_back({ledger.term_at(i), ledger.type_at(i)});
        }
        const std::vector<crypto::Digest> leaves(
          ledger.leaves().begin(), ledger.leaves().begin() + at);
        ledger = Ledger::from_snapshot(at, meta, leaves);
      }
    }
    expect_data_index_matches_scan(ledger, op);
  }
}

INSTANTIATE_TEST_SUITE_P(
  Seeds, DataIndexPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Ledger agreement estimate vs a naive linear search.
// ---------------------------------------------------------------------------

class AgreementEstimateTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AgreementEstimateTest, MatchesNaiveScan)
{
  Rng rng(GetParam() * 977);
  Ledger ledger;
  Term term = 1;
  for (int i = 0; i < 60; ++i)
  {
    if (rng.below(100) < 25)
    {
      term += 1 + rng.below(2);
    }
    Entry e;
    e.term = term;
    e.type = EntryType::Data;
    e.data = "x";
    ledger.append(e);
  }
  for (Index bound = 0; bound <= ledger.last_index() + 3; ++bound)
  {
    for (Term max_term = 0; max_term <= term + 1; ++max_term)
    {
      Index naive = 0;
      for (Index i = 1; i <= std::min(bound, ledger.last_index()); ++i)
      {
        if (ledger.term_at(i) <= max_term)
        {
          naive = std::max(naive, i);
        }
      }
      // The implementation scans from the top; naive from the bottom: the
      // largest qualifying index must agree... except the implementation
      // returns the largest index i <= bound with term <= max_term, which
      // is what the naive max computes only when terms are monotone.
      // Terms in a ledger ARE monotone, so they agree.
      ASSERT_EQ(ledger.agreement_estimate(bound, max_term), naive)
        << "bound=" << bound << " max_term=" << max_term;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
  Seeds, AgreementEstimateTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Message codec: random round-trips and mutation fuzz (never crashes,
// never mis-decodes).
// ---------------------------------------------------------------------------

namespace
{
  Message random_message(Rng& rng)
  {
    switch (rng.below(5))
    {
      case 0:
      {
        AppendEntriesRequest m;
        m.term = rng.below(100);
        m.leader = rng.below(8);
        m.prev_idx = rng.below(50);
        m.prev_term = rng.below(100);
        m.leader_commit = rng.below(50);
        const size_t n = rng.below(5);
        for (size_t i = 0; i < n; ++i)
        {
          Entry e;
          e.term = rng.below(100);
          e.type = static_cast<EntryType>(rng.below(4));
          e.data = std::string(rng.below(20), 'a' + (rng.next() % 26));
          if (e.type == EntryType::Reconfiguration)
          {
            for (NodeId id = 1; id <= 5; ++id)
            {
              if (rng.chance(0.5))
              {
                e.config.push_back(id);
              }
            }
          }
          if (e.type == EntryType::Retirement)
          {
            e.retiring_node = rng.below(8);
          }
          m.entries.push_back(e);
        }
        return m;
      }
      case 1:
        return AppendEntriesResponse{
          rng.below(100), rng.below(8), rng.chance(0.5), rng.below(50)};
      case 2:
        return RequestVoteRequest{
          rng.below(100), rng.below(8), rng.below(50), rng.below(100)};
      case 3:
        return RequestVoteResponse{rng.below(100), rng.below(8), rng.chance(0.5)};
      default:
        return ProposeRequestVote{rng.below(100), rng.below(8)};
    }
  }
}

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CodecFuzzTest, RandomMessagesRoundTrip)
{
  Rng rng(GetParam() * 13);
  for (int i = 0; i < 500; ++i)
  {
    const Message m = random_message(rng);
    const auto bytes = serialize(m);
    const auto back = deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, m);
  }
}

TEST_P(CodecFuzzTest, MutatedBytesNeverCrash)
{
  Rng rng(GetParam() * 17);
  for (int i = 0; i < 500; ++i)
  {
    auto bytes = serialize(random_message(rng));
    // Random mutations: flip, truncate, extend.
    const uint64_t what = rng.below(3);
    if (what == 0 && !bytes.empty())
    {
      bytes[rng.below(bytes.size())] ^=
        static_cast<uint8_t>(1u << rng.below(8));
    }
    else if (what == 1 && !bytes.empty())
    {
      bytes.resize(rng.below(bytes.size()));
    }
    else
    {
      bytes.push_back(static_cast<uint8_t>(rng.next()));
    }
    // Must not crash; may or may not decode.
    const auto back = deserialize(bytes);
    if (back.has_value())
    {
      // Whatever decoded must re-encode to the same bytes (canonical).
      EXPECT_EQ(serialize(*back), bytes);
    }
  }
}

TEST_P(CodecFuzzTest, RandomGarbageNeverCrashes)
{
  Rng rng(GetParam() * 23);
  for (int i = 0; i < 500; ++i)
  {
    std::vector<uint8_t> garbage(rng.below(64));
    for (auto& b : garbage)
    {
      b = static_cast<uint8_t>(rng.next());
    }
    (void)deserialize(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Trace validation as a universal property: every fault-free run of the
// correct implementation, across random schedules and workloads, is a
// behavior of the spec.
// ---------------------------------------------------------------------------

class TraceValidationProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TraceValidationProperty, RandomRunsAlwaysValidate)
{
  const uint64_t seed = GetParam();
  driver::ClusterOptions o;
  o.initial_config = {1, 2, 3};
  o.initial_leader = 1;
  o.seed = seed;
  driver::Cluster c(o);
  Rng rng(seed * 104729);
  for (int step = 0; step < 120; ++step)
  {
    c.tick_all();
    c.drain(rng.below(5));
    const uint64_t dice = rng.below(100);
    if (dice < 20)
    {
      c.submit("p" + std::to_string(step));
    }
    else if (dice < 32)
    {
      c.sign();
    }
    else if (dice < 36)
    {
      const NodeId n = 1 + rng.below(3);
      if (!c.crashed(n))
      {
        c.node(n).force_timeout();
        c.tick(n);
      }
    }
  }
  c.drain();

  const auto params = trace::validation_params({1, 2, 3}, 1, 3);
  const auto result = trace::validate_consensus_trace(c.trace(), params);
  EXPECT_TRUE(result.ok)
    << "seed " << seed << ": failed at " << result.failed_line << " ("
    << result.lines_matched << " lines matched)";
}

INSTANTIATE_TEST_SUITE_P(
  Seeds,
  TraceValidationProperty,
  ::testing::Values(501, 502, 503, 504, 505, 506, 507, 508));

// ---------------------------------------------------------------------------
// Consistency spec model checking across a parameter grid: the guaranteed
// properties hold for every bounded model shape.
// ---------------------------------------------------------------------------

#include "spec/model_checker.h"
#include "specs/consistency/spec.h"

struct ConsistencyShape
{
  uint8_t rw;
  uint8_t ro;
  uint8_t branches;
};

class ConsistencyGridTest : public ::testing::TestWithParam<ConsistencyShape>
{};

TEST_P(ConsistencyGridTest, GuaranteedPropertiesHold)
{
  const auto shape = GetParam();
  specs::consistency::Params p;
  p.max_rw_txs = shape.rw;
  p.max_ro_txs = shape.ro;
  p.max_branches = shape.branches;
  p.include_observed_ro = false;
  spec::CheckLimits limits;
  limits.time_budget_seconds = 30.0;
  limits.max_distinct_states = 2'000'000;
  const auto result = spec::model_check(
    specs::consistency::build_spec(p), limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

INSTANTIATE_TEST_SUITE_P(
  Shapes,
  ConsistencyGridTest,
  ::testing::Values(
    ConsistencyShape{1, 1, 2},
    ConsistencyShape{2, 0, 2},
    ConsistencyShape{2, 1, 2},
    ConsistencyShape{1, 2, 2},
    ConsistencyShape{3, 0, 3},
    ConsistencyShape{1, 1, 3}));
