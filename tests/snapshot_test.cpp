// Snapshots, catch-up, and disaster recovery end to end.
//
//  * Ledger compaction keeps (term, type) metadata and Merkle leaves exact
//    below the hole; bodies are gone ("no reads below a hole").
//  * kv::Store images round-trip bit-identically and install_image keeps
//    hook subscriptions.
//  * The Snapshot artifact serializes/deserializes losslessly.
//  * A node joining from a snapshot under an active partition converges to
//    the same committed KV state as full replay (acceptance criterion).
//  * Golden equivalence: recovery-from-snapshot + suffix produces a
//    bit-identical store and TxStatus map vs full ledger replay, including
//    a truncated Pending transaction turning Invalid across a compaction
//    point.
//  * Expander::with_faults emits the base state unconditionally but gates
//    fault-closure successors on the bound spec's state constraint, with
//    per-call scratch (satellite regression for the snapshot family).
//  * A compact-then-crash-then-restart trace validates through the
//    consensus spec with identical verdicts at threads=1 and threads=4,
//    and the snapshot-enabled model agrees under symmetry reduction
//    (acceptance criterion).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "consensus/ledger.h"
#include "consensus/snapshot.h"
#include "crypto/merkle_tree.h"
#include "driver/cluster.h"
#include "kv/store.h"
#include "spec/expander.h"
#include "spec/model_checker.h"
#include "specs/consensus/spec.h"
#include "trace/consensus_binding.h"
#include "util/check.h"

using namespace scv;
using namespace scv::driver;
using consensus::Entry;
using consensus::EntryType;
using consensus::Index;
using consensus::Ledger;
using consensus::NodeId;
using consensus::Snapshot;
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

  Entry data_entry(consensus::Term term, std::string payload)
  {
    Entry e;
    e.term = term;
    e.type = EntryType::Data;
    e.data = std::move(payload);
    return e;
  }

  Entry sig_entry(consensus::Term term)
  {
    Entry e;
    e.term = term;
    e.type = EntryType::Signature;
    return e;
  }

  /// Runs the cluster until every node in `ids` reports the same commit
  /// index (at least `floor`), or the round budget runs out.
  bool converged(
    Cluster& c,
    const std::vector<NodeId>& ids,
    Index floor,
    int rounds = 200)
  {
    for (int r = 0; r < rounds; ++r)
    {
      c.run(5);
      Index lo = UINT64_MAX;
      Index hi = 0;
      for (const NodeId id : ids)
      {
        const Index ci = c.node(id).commit_index();
        lo = std::min(lo, ci);
        hi = std::max(hi, ci);
      }
      if (lo == hi && lo >= floor)
      {
        return true;
      }
    }
    return false;
  }

  /// Commits `n` transactions through the current leader; returns their
  /// ids. Fails the test if any submit is refused or fails to commit.
  std::vector<TxId> commit_txs(Cluster& c, int n, const std::string& stem)
  {
    std::vector<TxId> ids;
    for (int i = 0; i < n; ++i)
    {
      const auto t = c.submit(stem + std::to_string(i));
      EXPECT_TRUE(t.has_value());
      if (t.has_value())
      {
        ids.push_back(*t);
      }
    }
    EXPECT_TRUE(c.sign().has_value());
    c.run(60);
    return ids;
  }

  std::map<std::string, TxStatus> status_map(
    const Cluster& c, NodeId id, const std::vector<TxId>& txids)
  {
    std::map<std::string, TxStatus> out;
    for (const TxId& t : txids)
    {
      out[t.to_string()] = c.node(id).status(t);
    }
    return out;
  }
}

// ---------------------------------------------------------------------------
// Ledger compaction
// ---------------------------------------------------------------------------

TEST(SnapshotLedger, CompactionKeepsMetadataAndProofsDropsBodies)
{
  Ledger l;
  l.append(data_entry(1, "a"));
  l.append(sig_entry(1));
  l.append(data_entry(2, "b"));
  l.append(sig_entry(2));
  l.append(data_entry(2, "c"));
  const auto root_before = l.root();

  l.compact(2);
  EXPECT_EQ(l.start_index(), 2u);
  EXPECT_EQ(l.last_index(), 5u);

  // Metadata is exact below the hole.
  EXPECT_EQ(l.term_at(1), 1u);
  EXPECT_EQ(l.term_at(2), 1u);
  EXPECT_EQ(l.type_at(1), EntryType::Data);
  EXPECT_EQ(l.type_at(2), EntryType::Signature);

  // Bodies are gone below the hole, intact above it.
  EXPECT_THROW((void)l.at(1), scv::CheckFailure);
  EXPECT_THROW((void)l.at(2), scv::CheckFailure);
  EXPECT_EQ(l.at(3).data, "b");

  // Committed state is never truncated, and windows cannot reach below
  // the compaction point.
  EXPECT_THROW(l.truncate(1), scv::CheckFailure);
  EXPECT_THROW(l.window(1, 4), scv::CheckFailure);
  EXPECT_EQ(l.window(2, 4).size(), 2u);

  // The Merkle tree is untouched by compaction: same root, and inclusion
  // proofs keep verifying below the hole.
  EXPECT_EQ(l.root(), root_before);
  EXPECT_TRUE(
    crypto::MerkleTree::verify_path(l.leaf_digest(1), l.proof(1), l.root()));
  EXPECT_TRUE(
    crypto::MerkleTree::verify_path(l.leaf_digest(4), l.proof(4), l.root()));

  // Idempotent at or below the compaction point; only signature indices
  // are valid compaction targets.
  l.compact(2);
  l.compact(1);
  EXPECT_EQ(l.start_index(), 2u);
  EXPECT_THROW(l.compact(3), scv::CheckFailure);

  l.compact(4);
  EXPECT_EQ(l.start_index(), 4u);
  EXPECT_EQ(l.at(5).data, "c");
}

TEST(SnapshotLedger, FromSnapshotPrefixReproducesFullRoot)
{
  Ledger full;
  full.append(data_entry(1, "a"));
  full.append(sig_entry(1));
  full.append(data_entry(1, "b"));
  full.append(sig_entry(1));

  std::vector<consensus::EntryMeta> meta;
  std::vector<crypto::Digest> leaves;
  for (Index i = 1; i <= 2; ++i)
  {
    meta.push_back({full.term_at(i), full.type_at(i)});
    leaves.push_back(full.leaf_digest(i));
  }

  Ledger holed = Ledger::from_snapshot(2, meta, leaves);
  EXPECT_EQ(holed.start_index(), 2u);
  EXPECT_EQ(holed.last_index(), 2u);
  EXPECT_EQ(holed.term_at(1), 1u);
  EXPECT_EQ(holed.type_at(2), EntryType::Signature);

  // Appending the original suffix reproduces the full ledger's root: the
  // snapshot's retained leaves are exactly the compacted prefix's.
  holed.append(full.at(3));
  holed.append(full.at(4));
  EXPECT_EQ(holed.root(), full.root());
  EXPECT_EQ(holed.leaf_digest(1), full.leaf_digest(1));
}

// ---------------------------------------------------------------------------
// KV store images
// ---------------------------------------------------------------------------

TEST(SnapshotStore, ImageRoundTripIsBitIdentical)
{
  kv::Store s;
  s.apply({{{"a", "1"}, {"b", "2"}}});
  s.apply({{{"a", "3"}, {"b", std::nullopt}, {"c", "4"}}});
  s.commit(2);
  s.apply({{{"d", "9"}}}); // ordered but uncommitted: not in the image

  const auto image = s.serialize_image();
  const kv::Store t = kv::Store::from_image(image, s.commit_version());

  EXPECT_EQ(t.serialize_image(), image);
  EXPECT_EQ(t.base_version(), 2u);
  EXPECT_EQ(t.current_version(), 2u);
  EXPECT_EQ(t.commit_version(), 2u);
  EXPECT_EQ(t.get("a"), "3");
  EXPECT_EQ(t.get("b"), std::nullopt);
  EXPECT_EQ(t.get("c"), "4");
  EXPECT_EQ(t.get("d"), std::nullopt);
  EXPECT_EQ(t.materialize(2), s.materialize(2));
}

TEST(SnapshotStore, InstallImageKeepsHookSubscriptions)
{
  kv::Store donor;
  donor.apply({{{"app.x", "1"}}});
  donor.commit(1);
  const auto image = donor.serialize_image();

  kv::Store s;
  std::vector<kv::Version> fired;
  s.on_committed("app.", [&](kv::Version v, const kv::WriteSet&) {
    fired.push_back(v);
  });

  // The install swaps the state machine under the running node; the
  // subscription must survive it.
  s.install_image(image, 1);
  EXPECT_EQ(s.get("app.x"), "1");
  EXPECT_TRUE(fired.empty());

  s.apply({{{"app.y", "2"}}});
  s.commit(2);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
}

// ---------------------------------------------------------------------------
// Snapshot artifact codec
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, SerializeDeserializeRoundTrip)
{
  Cluster c(three_nodes(9001));
  commit_txs(c, 2, "w");
  ASSERT_GT(c.node(1).commit_index(), 0u);

  const Snapshot snap = c.take_snapshot(1);
  EXPECT_GT(snap.index, 0u);
  EXPECT_FALSE(snap.kv_image.empty());
  EXPECT_FALSE(snap.configs.empty());

  const auto bytes = snap.serialize();
  const auto got = Snapshot::deserialize(bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, snap);
  EXPECT_EQ(got->digest(), snap.digest());

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(Snapshot::deserialize(truncated), std::nullopt);
  EXPECT_EQ(Snapshot::deserialize({}), std::nullopt);
}

// ---------------------------------------------------------------------------
// Join-from-snapshot under an active partition (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(SnapshotJoin, JoinFromSnapshotUnderPartitionConverges)
{
  Cluster c(three_nodes(9103));
  const auto txids = commit_txs(c, 3, "base");
  ASSERT_EQ(txids.size(), 3u);
  ASSERT_TRUE(converged(c, {1, 2, 3}, 1));

  // Cut node 3 off, then join node 4 from the leader's snapshot while the
  // partition is live: the joiner must converge without node 3's help.
  c.isolate(3);
  c.add_node_from_snapshot(4);
  EXPECT_GT(c.node(4).ledger().start_index(), 0u);
  ASSERT_TRUE(c.reconfigure({1, 2, 3, 4}).has_value());
  ASSERT_TRUE(c.sign().has_value());
  ASSERT_TRUE(converged(c, {1, 2, 4}, c.node(1).commit_index()));

  const auto leader = c.find_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(
    c.store(4).serialize_image(), c.store(*leader).serialize_image());
  for (const TxId& t : txids)
  {
    EXPECT_EQ(c.node(4).status(t), TxStatus::Committed) << t.to_string();
  }

  // Healing lets the straggler catch up — across the compaction point, so
  // via InstallSnapshot — to the same state.
  c.heal();
  ASSERT_TRUE(converged(c, {1, 2, 3, 4}, c.node(*leader).commit_index()));
  EXPECT_EQ(
    c.store(3).serialize_image(), c.store(*leader).serialize_image());
  for (const TxId& t : txids)
  {
    EXPECT_EQ(c.node(3).status(t), TxStatus::Committed) << t.to_string();
  }
}

TEST(SnapshotJoin, GenesisJoinerIsServedInstallSnapshot)
{
  Cluster c(three_nodes(9107));
  const auto txids = commit_txs(c, 2, "pre");
  ASSERT_TRUE(converged(c, {1, 2, 3}, 1));

  // Compact the leader, then add a node that replays from the service's
  // bootstrap state: its next entry is below the leader's compaction
  // point, so catch-up must go through the snapshot protocol.
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader.has_value());
  const Snapshot snap = c.compact(*leader);
  c.add_node(JoinSpec(4));
  ASSERT_TRUE(c.reconfigure({1, 2, 3, 4}).has_value());
  ASSERT_TRUE(c.sign().has_value());
  ASSERT_TRUE(converged(c, {1, 2, 3, 4}, c.node(*leader).commit_index()));

  size_t sends = 0;
  size_t recvs = 0;
  for (const auto& e : c.trace())
  {
    sends += e.kind == trace::EventKind::SendInstallSnapshot ? 1 : 0;
    recvs += e.kind == trace::EventKind::RecvInstallSnapshot ? 1 : 0;
  }
  EXPECT_GT(sends, 0u);
  EXPECT_GT(recvs, 0u);
  EXPECT_EQ(c.node(4).ledger().start_index(), snap.index);
  EXPECT_EQ(
    c.store(4).serialize_image(), c.store(*leader).serialize_image());
  for (const TxId& t : txids)
  {
    EXPECT_EQ(c.node(4).status(t), TxStatus::Committed) << t.to_string();
  }

  // The whole episode — compaction, snapshot offer, install, catch-up —
  // is a behavior of the consensus spec.
  trace::ConsensusValidationOptions vo;
  vo.search.max_states = 400000;
  vo.search.time_budget_seconds = 120.0;
  const auto result = trace::validate_consensus_trace(
    c.trace(),
    trace::validation_params({1, 2, 3}, 1, 4),
    vo);
  EXPECT_TRUE(result.ok)
    << "matched " << result.lines_matched
    << " lines; failed line: " << result.failed_line;
  EXPECT_GT(result.lines_matched, 50u);
}

// ---------------------------------------------------------------------------
// Golden equivalence: snapshot recovery vs full replay (satellite d)
// ---------------------------------------------------------------------------

TEST(SnapshotRecovery, DisasterRecoveryMatchesFullReplay)
{
  Cluster c(three_nodes(9211));
  auto txids = commit_txs(c, 2, "early");
  ASSERT_TRUE(converged(c, {1, 2, 3}, 1));
  const Snapshot snap = c.take_snapshot(1);
  const auto late = commit_txs(c, 2, "late");
  txids.insert(txids.end(), late.begin(), late.end());
  ASSERT_TRUE(converged(c, {1, 2, 3}, snap.index + 1));

  // Crash-restart with the persisted ledger: full replay.
  c.crash(2);
  c.run(20);
  c.restart(JoinSpec(2));
  ASSERT_TRUE(converged(c, {1, 2, 3}, c.node(1).commit_index()));
  const auto replay_image = c.store(2).serialize_image();
  const auto replay_status = status_map(c, 2, txids);

  // Crash again; this time the ledger is considered lost and the node
  // recovers from the (older) snapshot alone, catching up through the
  // protocol. The result must be indistinguishable.
  c.crash(2);
  c.run(20);
  c.restart(JoinSpec(2, snap));
  EXPECT_EQ(c.node(2).ledger().start_index(), snap.index);
  ASSERT_TRUE(converged(c, {1, 2, 3}, c.node(1).commit_index()));

  EXPECT_EQ(c.store(2).serialize_image(), replay_image);
  EXPECT_EQ(c.store(2).serialize_image(), c.store(1).serialize_image());
  EXPECT_EQ(status_map(c, 2, txids), replay_status);
  for (const TxId& t : txids)
  {
    EXPECT_EQ(c.node(2).status(t), TxStatus::Committed) << t.to_string();
  }
}

TEST(SnapshotRecovery, TruncatedPendingTurnsInvalidAcrossCompaction)
{
  Cluster c(three_nodes(9301));
  commit_txs(c, 1, "base");
  ASSERT_TRUE(converged(c, {1, 2, 3}, 1));

  // The leader accepts a transaction it can no longer replicate.
  c.isolate(1);
  const auto orphan = c.submit(Target(1), "orphan");
  ASSERT_TRUE(orphan.has_value());
  EXPECT_EQ(c.node(1).status(*orphan), TxStatus::Pending);

  // The majority side elects a new leader and commits past (and then
  // compacts across) the orphan's index.
  NodeId nl = 0;
  for (int r = 0; r < 300 && nl == 0; ++r)
  {
    c.run(5);
    for (const NodeId id : {2u, 3u})
    {
      if (c.node(id).role() == consensus::Role::Leader)
      {
        nl = id;
      }
    }
  }
  ASSERT_NE(nl, 0u);
  for (int i = 0; i < 3; ++i)
  {
    ASSERT_TRUE(c.submit(Target(nl), "replace" + std::to_string(i)));
  }
  ASSERT_TRUE(c.node(nl).emit_signature().has_value());
  ASSERT_TRUE(converged(c, {2, 3}, orphan->index + 1));
  const Snapshot snap = c.compact(nl);
  ASSERT_GE(snap.index, orphan->index);

  // Healing forces node 1 to truncate its orphan suffix and catch up —
  // its point of agreement is below the compaction hole, so the catch-up
  // races a snapshot install. The orphan is Invalid everywhere.
  c.heal();
  ASSERT_TRUE(converged(c, {1, 2, 3}, c.node(nl).commit_index()));
  EXPECT_EQ(c.node(1).status(*orphan), TxStatus::Invalid);
  EXPECT_EQ(c.node(nl).status(*orphan), TxStatus::Invalid);
  EXPECT_EQ(c.store(1).serialize_image(), c.store(nl).serialize_image());
}

// ---------------------------------------------------------------------------
// Expander fault-closure constraint gating (satellite c)
// ---------------------------------------------------------------------------

namespace
{
  using specs::ccfraft::MType;
  using specs::ccfraft::Params;
  using specs::ccfraft::SpecMessage;
  using specs::ccfraft::State;

  Params tight_snapshot_params(uint8_t max_network)
  {
    Params p;
    p.n_nodes = 2;
    p.initial_config = 0b01;
    p.initial_leader = 1;
    p.max_term = 1;
    p.max_requests = 0;
    p.max_log_len = 4;
    p.max_network = max_network;
    p.max_copies = 4;
    p.allowed_reconfigs = {0b11};
    p.enable_snapshots = true;
    return p;
  }

  SpecMessage install_snap_offer(const State& s)
  {
    SpecMessage m;
    m.type = MType::InstallSnap;
    m.from = 1;
    m.to = 2;
    m.term = 1;
    m.prev_term = 1;
    m.commit = 2;
    m.last_idx = 2;
    m.entries = s.node(1).log; // ghost prefix: the bootstrap log
    return m;
  }
}

TEST(SnapshotExpander, FaultClosureGatesSuccessorsButNotBase)
{
  // A snapshot-install successor that leaves the state constraint must be
  // pruned from the fault closure, while the base state is always emitted
  // — even when the base itself violates the constraint (the trace
  // validator must consider the un-faulted state regardless).
  const Params p = tight_snapshot_params(/*max_network=*/1);
  const auto spec = specs::ccfraft::build_spec(p);
  State base = specs::ccfraft::initial_state(p);
  const SpecMessage offer = install_snap_offer(base);
  base.add_message(offer);
  ASSERT_EQ(base.network_size(), 1u); // exactly at the constraint boundary

  spec::Expander<State> ex(&spec);
  ex.set_fault(
    [offer](const State& s, const spec::Emit<State>& emit) {
      State f = s;
      f.add_message(offer); // one more InstallSnap copy in flight
      emit(std::move(f));
    },
    2);

  std::vector<State> emitted;
  ex.with_faults(base, [&](const State& s) { emitted.push_back(s); });
  ASSERT_EQ(emitted.size(), 1u) << "constraint-violating successor emitted";
  EXPECT_EQ(emitted[0], base);

  // Base emission is unconditional: a state already past the constraint
  // still comes out (and its closure is fully gated).
  State over = base;
  over.add_message(offer);
  ASSERT_GT(over.network_size(), p.max_network);
  emitted.clear();
  ex.with_faults(over, [&](const State& s) { emitted.push_back(s); });
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], over);

  // The per-call scratch resets: a second closure from the original state
  // re-emits it (nothing leaks from the previous call's seen-set).
  emitted.clear();
  ex.with_faults(base, [&](const State& s) { emitted.push_back(s); });
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], base);

  // With headroom, the same fault expands: base + one distinct state per
  // closure layer (the duplicate-count states), all within constraint.
  const Params roomy = tight_snapshot_params(/*max_network=*/8);
  const auto roomy_spec = specs::ccfraft::build_spec(roomy);
  spec::Expander<State> ex2(&roomy_spec);
  ex2.set_fault(
    [offer](const State& s, const spec::Emit<State>& emit) {
      State f = s;
      f.add_message(offer);
      emit(std::move(f));
    },
    2);
  emitted.clear();
  ex2.with_faults(base, [&](const State& s) { emitted.push_back(s); });
  EXPECT_EQ(emitted.size(), 3u);
}

// ---------------------------------------------------------------------------
// Compact-crash-restart trace validation + symmetry (acceptance criteria)
// ---------------------------------------------------------------------------

TEST(SnapshotTraceValidation, CompactCrashRestartValidatesAtBothThreadCounts)
{
  Cluster c(three_nodes(9401));
  commit_txs(c, 2, "pre");
  ASSERT_TRUE(converged(c, {1, 2, 3}, 1));

  // Compact the leader, crash it, let the survivors elect and commit,
  // then restart the compacted node from its holed persisted ledger.
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader.has_value());
  c.compact(*leader);
  c.crash(*leader);
  NodeId nl = 0;
  for (int r = 0; r < 300 && nl == 0; ++r)
  {
    c.run(5);
    for (const NodeId id : {1u, 2u, 3u})
    {
      if (id != *leader && c.node(id).role() == consensus::Role::Leader)
      {
        nl = id;
      }
    }
  }
  ASSERT_NE(nl, 0u);
  ASSERT_TRUE(c.submit(Target(nl), "post").has_value());
  ASSERT_TRUE(c.node(nl).emit_signature().has_value());
  c.restart(JoinSpec(*leader));
  ASSERT_TRUE(converged(c, {1, 2, 3}, c.node(nl).commit_index()));

  // The DFS runs on one worker whatever threads says, so threads = 4
  // reproduces the threads = 1 run exactly.
  const auto params = trace::validation_params({1, 2, 3}, 1, 3);
  trace::ConsensusValidationOptions seq;
  seq.search.threads = 1;
  seq.search.max_states = 400000;
  seq.search.time_budget_seconds = 120.0;
  trace::ConsensusValidationOptions par = seq;
  par.search.threads = 4;

  const auto r1 = trace::validate_consensus_trace(c.trace(), params, seq);
  const auto r4 = trace::validate_consensus_trace(c.trace(), params, par);
  EXPECT_TRUE(r1.ok)
    << "matched " << r1.lines_matched
    << " lines; failed line: " << r1.failed_line;
  EXPECT_GT(r1.lines_matched, 50u);
  EXPECT_EQ(r1.ok, r4.ok);
  EXPECT_EQ(r1.lines_matched, r4.lines_matched);
  EXPECT_EQ(r1.states_explored, r4.states_explored);
  EXPECT_EQ(r1.witness, r4.witness);
}

TEST(SnapshotSymmetry, SnapshotModelAgreesUnderSymmetryReduction)
{
  // The symmetry reduction must stay sound with the snapshot family on:
  // same verdict and completeness, never more canonical states than
  // concrete ones (snap_idx/snap_term participate in the canonical
  // fingerprint as label-invariant scalars).
  Params p;
  p.n_nodes = 2;
  p.initial_config = 0b01;
  p.initial_leader = 1;
  p.max_term = 1;
  p.max_requests = 0;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  p.allowed_reconfigs = {0b11};
  p.enable_snapshots = true;
  const auto spec = specs::ccfraft::build_spec(p);

  spec::CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto concrete = spec::model_check(spec, limits);
  limits.symmetry = true;
  const auto reduced = spec::model_check(spec, limits);

  EXPECT_TRUE(concrete.ok);
  EXPECT_TRUE(reduced.ok)
    << (reduced.counterexample ? reduced.counterexample->to_string() : "");
  EXPECT_TRUE(concrete.stats.complete);
  EXPECT_TRUE(reduced.stats.complete);
  EXPECT_LE(reduced.stats.distinct_states, concrete.stats.distinct_states);
  EXPECT_GT(reduced.stats.symmetry_hits, 0u);
}
