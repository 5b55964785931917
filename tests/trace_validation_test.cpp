// Trace validation end-to-end (§6): implementation traces collected by
// the scenario driver are validated against the consensus spec.
//
//  * Traces of the fixed implementation — replication, elections,
//    partitions, reconfiguration and retirement — are behaviors of the
//    spec (T ∩ S ≠ ∅).
//  * Corrupted traces and traces of bug-injected builds are rejected,
//    with the paper's diagnostics (deepest line matched, candidate
//    frontier).
//  * Unlogged network faults are bridged by IsFault · Next composition.
//  * DFS and BFS agree on the verdict; DFS is the fast default (§6.4).
//  * The DFS builds a line's fault closure only once the successors of
//    the un-faulted state have all failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "driver/cluster.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"
#include "trace_witness.h"
#include "util/hash.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::driver;
using namespace scv::trace;
using consensus::AppendEntriesRequest;
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

  specs::ccfraft::Params params_for(
    const ClusterOptions& o, uint8_t n_nodes,
    consensus::BugFlags spec_bugs = {})
  {
    return validation_params(
      o.initial_config, o.initial_leader, n_nodes, spec_bugs);
  }

  std::string diagnose(
    const spec::ValidationResult<specs::ccfraft::State>& r)
  {
    std::string out = "matched " + std::to_string(r.lines_matched) +
      " lines; failed line: " + r.failed_line + "\n";
    for (const auto& s : r.frontier_at_failure)
    {
      out += "  candidate: " + s.to_string() + "\n";
    }
    return out;
  }
}

TEST(TraceValidation, HappyPathReplicationTraceValidates)
{
  Cluster c(three_nodes(101));
  const auto txid = c.submit("hello");
  ASSERT_TRUE(txid.has_value());
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_EQ(c.node(1).status(*txid), TxStatus::Committed);

  const auto result =
    validate_consensus_trace(c.trace(), params_for(three_nodes(101), 3));
  EXPECT_TRUE(result.ok) << diagnose(result);
  EXPECT_GT(result.lines_matched, 30u);
}

TEST(TraceValidation, ElectionTraceValidates)
{
  Cluster c(three_nodes(103));
  c.submit("pre");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.crash(1);
  for (int i = 0; i < 80; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto leader = c.find_leader();
  ASSERT_TRUE(leader.has_value());
  ASSERT_NE(*leader, 1u);

  const auto result =
    validate_consensus_trace(c.trace(), params_for(three_nodes(103), 3));
  EXPECT_TRUE(result.ok) << diagnose(result);
}

TEST(TraceValidation, ReconfigurationAndRetirementTraceValidates)
{
  Cluster c(three_nodes(105));
  const auto txid = c.reconfigure({1, 2});
  ASSERT_TRUE(txid.has_value());
  c.sign();
  for (int i = 0; i < 120; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_EQ(
    c.node(3).membership(), consensus::MembershipState::RetirementCompleted);

  const auto result =
    validate_consensus_trace(c.trace(), params_for(three_nodes(105), 3));
  EXPECT_TRUE(result.ok) << diagnose(result);
}

TEST(TraceValidation, LeaderRemovalWithProposeVoteValidates)
{
  Cluster c(three_nodes(107));
  const auto txid = c.reconfigure({2, 3});
  ASSERT_TRUE(txid.has_value());
  c.sign();
  for (int i = 0; i < 150; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_EQ(c.node(1).role(), consensus::Role::Retired);

  const auto result =
    validate_consensus_trace(c.trace(), params_for(three_nodes(107), 3));
  EXPECT_TRUE(result.ok) << diagnose(result);
}

TEST(TraceValidation, PartitionedRunValidates)
{
  // Partition drops traffic the spec never sees consumed; stale spec
  // messages are harmless. CheckQuorum step-down appears in the trace.
  ClusterOptions o = three_nodes(109);
  o.node_template.check_quorum_interval = 15;
  Cluster c(o);
  c.submit("x");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.network().links().block(2, 1);
  c.network().links().block(3, 1);
  for (int i = 0; i < 120; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_NE(c.node(1).role(), consensus::Role::Leader);

  const auto result = validate_consensus_trace(c.trace(), params_for(o, 3));
  EXPECT_TRUE(result.ok) << diagnose(result);
}

TEST(TraceValidation, GrowthReconfigurationValidates)
{
  Cluster c(three_nodes(111));
  c.add_node(4);
  const auto txid = c.reconfigure({1, 2, 3, 4});
  ASSERT_TRUE(txid.has_value());
  c.sign();
  for (int i = 0; i < 100; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_GE(c.node(4).commit_index(), txid->index);

  const auto result =
    validate_consensus_trace(c.trace(), params_for(three_nodes(111), 4));
  EXPECT_TRUE(result.ok) << diagnose(result);
}

TEST(TraceValidation, DfsAndBfsAgree)
{
  Cluster c(three_nodes(113));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 25; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto p = params_for(three_nodes(113), 3);

  ConsensusValidationOptions dfs;
  dfs.search.mode = spec::SearchMode::Dfs;
  ConsensusValidationOptions bfs;
  bfs.search.mode = spec::SearchMode::Bfs;
  const auto r_dfs = validate_consensus_trace(c.trace(), p, dfs);
  const auto r_bfs = validate_consensus_trace(c.trace(), p, bfs);
  EXPECT_TRUE(r_dfs.ok) << diagnose(r_dfs);
  EXPECT_TRUE(r_bfs.ok) << diagnose(r_bfs);
  EXPECT_EQ(r_dfs.lines_matched, r_bfs.lines_matched);
}

TEST(TraceValidation, ParallelBfsMatchesSequentialOnConsensusTrace)
{
  // A real consensus trace with an election (nondeterministic frontier):
  // the parallel BFS frontier must reproduce the sequential verdict,
  // per-line frontier sizes, work count, and full witness length.
  Cluster c(three_nodes(113));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 25; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto p = params_for(three_nodes(113), 3);

  ConsensusValidationOptions bfs;
  bfs.search.mode = spec::SearchMode::Bfs;
  bfs.search.threads = 1;
  const auto seq = validate_consensus_trace(c.trace(), p, bfs);
  bfs.search.threads = 4;
  const auto par = validate_consensus_trace(c.trace(), p, bfs);

  ASSERT_TRUE(seq.ok) << diagnose(seq);
  ASSERT_TRUE(par.ok) << diagnose(par);
  EXPECT_EQ(seq.lines_matched, par.lines_matched);
  EXPECT_EQ(seq.frontier_sizes, par.frontier_sizes);
  EXPECT_EQ(seq.states_explored, par.states_explored);
  EXPECT_EQ(seq.witness.size(), par.witness.size());
  EXPECT_EQ(seq.witness.size(), preprocess(c.trace()).size() + 1);
}

TEST(TraceValidation, ParallelDfsMatchesSequentialOnConsensusTrace)
{
  // An election trace (nondeterministic branching) validated by the DFS
  // with threads set to 1, 2 and 4. The DFS runs on one worker whatever
  // threads says, so every run returns the same witness, and it is a
  // real behavior of the spec: every step is replayed through the bound
  // trace-line expanders.
  Cluster c(three_nodes(103));
  c.submit("pre");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.crash(1);
  for (int i = 0; i < 80; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ASSERT_TRUE(c.find_leader().has_value());
  const auto p = params_for(three_nodes(103), 3);
  const auto lines = bind_consensus_trace(preprocess(c.trace()), p);

  std::vector<specs::ccfraft::State> first_witness;
  for (const unsigned threads : {1u, 2u, 4u})
  {
    ConsensusValidationOptions dfs;
    dfs.search.mode = spec::SearchMode::Dfs;
    dfs.search.threads = threads;
    const auto r = validate_consensus_trace(c.trace(), p, dfs);
    ASSERT_TRUE(r.ok) << "threads=" << threads << "\n" << diagnose(r);
    ASSERT_EQ(r.witness.size(), lines.size() + 1);
    if (threads == 1)
    {
      first_witness = r.witness;
    }
    EXPECT_EQ(r.witness, first_witness) << "threads=" << threads;
    for (size_t i = 0; i < lines.size(); ++i)
    {
      const uint64_t want = spec::fingerprint(r.witness[i + 1]);
      bool connected = false;
      lines[i].expand(r.witness[i], [&](const specs::ccfraft::State& s) {
        connected = connected || spec::fingerprint(s) == want;
      });
      EXPECT_TRUE(connected)
        << "threads=" << threads << ": witness step " << i
        << " is not an expansion of line " << lines[i].description;
    }
  }
}

TEST(TraceValidation, ParallelDfsRejectsCorruptedConsensusTrace)
{
  // The corrupted trace from CorruptedCommitIndexRejected, with threads
  // set to 1, 2 and 4: the DFS ignores threads, so the rejection and its
  // deepest-line diagnostics are the same each time.
  Cluster c(three_nodes(115));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  auto events = c.trace();
  bool corrupted = false;
  for (auto& e : events)
  {
    if (e.kind == EventKind::AdvanceCommit && !corrupted)
    {
      e.commit_idx += 1;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto p = params_for(three_nodes(115), 3);

  ConsensusValidationOptions dfs;
  dfs.search.mode = spec::SearchMode::Dfs;
  dfs.search.threads = 1;
  const auto seq = validate_consensus_trace(events, p, dfs);
  ASSERT_FALSE(seq.ok);
  for (const unsigned threads : {2u, 4u})
  {
    dfs.search.threads = threads;
    const auto par = validate_consensus_trace(events, p, dfs);
    EXPECT_FALSE(par.ok) << "threads=" << threads;
    EXPECT_EQ(par.lines_matched, seq.lines_matched);
    EXPECT_EQ(par.failed_line, seq.failed_line);
    EXPECT_EQ(par.states_explored, seq.states_explored);
    EXPECT_EQ(par.frontier_at_failure, seq.frontier_at_failure);
    EXPECT_FALSE(par.frontier_at_failure.empty());
  }
}

TEST(TraceValidation, ParallelDfsStopsCleanlyAtBudget)
{
  Cluster c(three_nodes(101));
  c.submit("hello");
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ConsensusValidationOptions dfs;
  dfs.search.mode = spec::SearchMode::Dfs;
  dfs.search.threads = 4;
  dfs.search.max_states = 5;
  const auto r = validate_consensus_trace(
    c.trace(), params_for(three_nodes(101), 3), dfs);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_LT(r.lines_matched, preprocess(c.trace()).size());
}

TEST(TraceValidation, AppendEntriesBeyondSpecDomainIsInconclusive)
{
  // An AppendEntries window ending past log index 255 cannot be
  // represented in the spec's 8-bit indices: no verdict, not a
  // rejection, whichever search runs.
  Cluster c(three_nodes(101));
  c.submit("hello");
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  auto events = c.trace();
  TraceEvent ae;
  ae.kind = EventKind::SendAppendEntries;
  ae.node = 1;
  ae.peer = 2;
  ae.term = 1;
  ae.log_len = 3;
  ae.msg_term = 1;
  ae.prev_idx = 250;
  ae.n_entries = 10;
  events.push_back(ae);
  for (const auto mode : {spec::SearchMode::Dfs, spec::SearchMode::Bfs})
  {
    ConsensusValidationOptions options;
    options.search.mode = mode;
    const auto r = validate_consensus_trace(
      events, params_for(three_nodes(101), 3), options);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.stats.complete);
    EXPECT_NE(
      r.failed_line.find("prev_idx + n_entries = 260 exceeds the spec's "
                         "bound 255"),
      std::string::npos)
      << r.failed_line;
  }
}

TEST(TraceValidation, BfsWitnessReplaysThroughTheLinesInParallel)
{
  // BFS validation is a model check of the trace product spec: at one
  // worker and at four, the witness is a behavior of the bound lines, and
  // the distinct states are the initial one plus the per-line frontiers.
  Cluster c(three_nodes(113));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 25; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto p = params_for(three_nodes(113), 3);
  const auto lines = bind_consensus_trace(preprocess(c.trace()), p);

  for (const unsigned threads : {1u, 4u})
  {
    ConsensusValidationOptions bfs;
    bfs.search.mode = spec::SearchMode::Bfs;
    bfs.search.threads = threads;
    const auto r = validate_consensus_trace(c.trace(), p, bfs);
    ASSERT_TRUE(r.ok) << diagnose(r);
    EXPECT_TRUE(test::is_trace_behavior(
      r.witness, {specs::ccfraft::initial_state(p)}, lines))
      << threads << " workers";
    uint64_t admitted = 1;
    for (const size_t n : r.frontier_sizes)
    {
      admitted += n;
    }
    EXPECT_EQ(admitted, r.stats.distinct_states) << threads << " workers";
  }
}

TEST(TraceValidation, CorruptedCommitIndexRejected)
{
  Cluster c(three_nodes(115));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  auto events = c.trace();
  // Corrupt a mid-trace commit index ("bogus logging", §6.3).
  bool corrupted = false;
  for (auto& e : events)
  {
    if (e.kind == EventKind::AdvanceCommit && !corrupted)
    {
      e.commit_idx += 1;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  const auto result =
    validate_consensus_trace(events, params_for(three_nodes(115), 3));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failed_line.empty());
  EXPECT_LT(result.lines_matched, preprocess(events).size());
}

TEST(TraceValidation, ForgedEventRejectedWithDiagnostics)
{
  Cluster c(three_nodes(117));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  auto events = c.trace();
  // Insert a becomeLeader event for a node that never won an election.
  TraceEvent forged;
  forged.kind = EventKind::BecomeLeader;
  forged.node = 3;
  forged.term = 9;
  forged.log_len = 4;
  forged.commit_idx = 4;
  events.insert(events.begin() + static_cast<ptrdiff_t>(events.size() / 2), forged);

  const auto result =
    validate_consensus_trace(events, params_for(three_nodes(117), 3));
  EXPECT_FALSE(result.ok);
  // The unsatisfied-state diagnostics carry the candidate frontier.
  EXPECT_FALSE(result.frontier_at_failure.empty());
}

namespace
{
  /// Stages an organically duplicated AppendEntries: leader 1 replicates
  /// two windows to follower 2, then the network re-delivers the first
  /// window (a duplicate) after the follower has moved past it. Returns
  /// the collected trace.
  std::vector<TraceEvent> run_duplicate_delivery(consensus::BugFlags bugs)
  {
    ClusterOptions o;
    o.initial_config = {1, 2, 3};
    o.initial_leader = 1;
    o.seed = 119;
    o.node_template.bugs = bugs;
    Cluster c(o);

    c.node(1).client_request("x"); // AE_a covering (2,3]
    c.tick(1);
    // Capture AE_a to node 2 before delivering it.
    consensus::Message dup_payload;
    bool found = false;
    for (const auto& env : c.network().pending())
    {
      if (
        env.from == 1 && env.to == 2 &&
        std::holds_alternative<AppendEntriesRequest>(env.payload))
      {
        dup_payload = env.payload;
        found = true;
      }
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(c.deliver_on_link(1, 2)); // AE_a arrives
    c.node(1).emit_signature(); // AE_b covering (3,4]
    c.tick(1);
    EXPECT_TRUE(c.deliver_on_link(1, 2)); // AE_b arrives; len(2) = 4
    EXPECT_EQ(c.node(2).last_index(), 4u);

    // The network duplicates AE_a and delivers the copy late.
    Rng rng(1);
    c.network().send(1, 2, dup_payload, c.now(), rng);
    EXPECT_TRUE(c.deliver_on_link(1, 2));
    return c.trace();
  }
}

TEST(TraceValidation, FaultCompositionBridgesDuplicates)
{
  // Correct implementation: the duplicate AE is re-acked with the window
  // end (3). Validation needs IsFault · Next (duplicate) composition to
  // account for the unlogged second copy.
  const auto events = run_duplicate_delivery({});
  const auto p = params_for(three_nodes(119), 3);

  ConsensusValidationOptions plain;
  const auto r_plain = validate_consensus_trace(events, p, plain);
  EXPECT_FALSE(r_plain.ok); // second recvAE finds no message

  ConsensusValidationOptions with_faults;
  with_faults.fault_composition = true;
  const auto r = validate_consensus_trace(events, p, with_faults);
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(TraceValidation, ParallelDfsBridgesDuplicatesWithFaultComposition)
{
  // Fault composition (IsFault · Next) with threads = 4: the DFS still
  // runs on one worker, and the duplicate-delivery trace validates.
  const auto events = run_duplicate_delivery({});
  const auto p = params_for(three_nodes(119), 3);

  ConsensusValidationOptions with_faults;
  with_faults.fault_composition = true;
  with_faults.search.mode = spec::SearchMode::Dfs;
  with_faults.search.threads = 4;
  const auto r = validate_consensus_trace(events, p, with_faults);
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(TraceValidation, CatchesInaccurateAeAckBug)
{
  // Bug 5 (Table 2): the buggy follower acks the duplicate with its local
  // last index (4) instead of the AE's window end (3). The spec's handler
  // produces an ack for 3, pinned against the trace's recorded reply (the
  // OneMoreMessage assertion), so the receive/reply pair cannot be
  // matched — exactly how the paper discovered the bug during trace
  // validation (§7).
  consensus::BugFlags bugs;
  bugs.ack_local_last_idx = true;
  const auto events = run_duplicate_delivery(bugs);
  const auto p = params_for(three_nodes(119), 3);

  ConsensusValidationOptions with_faults;
  with_faults.fault_composition = true;
  const auto r = validate_consensus_trace(events, p, with_faults);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(
    r.failed_line.find("recvAE") != std::string::npos ||
    r.failed_line.find("sndAER") != std::string::npos)
    << r.failed_line;
}

TEST(TraceValidation, CatchesEarlyTruncationBug)
{
  // Bug 4 (Table 2): the buggy follower rolls back on the duplicate
  // (early) AE, so its log length and commit index diverge from every
  // spec behavior at the subsequent response line.
  consensus::BugFlags bugs;
  bugs.truncate_on_early_ae = true;
  const auto events = run_duplicate_delivery(bugs);
  const auto p = params_for(three_nodes(119), 3);

  ConsensusValidationOptions with_faults;
  with_faults.fault_composition = true;
  const auto r = validate_consensus_trace(events, p, with_faults);
  EXPECT_FALSE(r.ok);
}

namespace
{
  /// Stages the NACK-commit scenario: followers replicate the first
  /// window but their ACKs are lost; two further windows are sent, the
  /// middle one lost entirely; the third provokes NACKs whose agreement
  /// estimates cover the first signature. With the bug, those estimates
  /// overwrite match_index and the leader commits on NACKs alone.
  std::vector<TraceEvent> run_nack_commit(consensus::BugFlags bugs)
  {
    ClusterOptions o;
    o.initial_config = {1, 2, 3};
    o.initial_leader = 1;
    o.seed = 121;
    o.node_template.bugs = bugs;
    Cluster c(o);
    // Window 1: entries 3 (data) and 4 (signature).
    c.node(1).client_request("a");
    c.node(1).emit_signature();
    c.tick(1);
    for (const NodeId peer : {NodeId(2), NodeId(3)})
    {
      EXPECT_TRUE(c.deliver_on_link(1, peer));
      EXPECT_TRUE(c.deliver_on_link(1, peer));
      EXPECT_EQ(c.node(peer).last_index(), 4u);
      // The ACKs are lost.
      c.network().drop_link(peer, 1);
    }
    // Window 2: entries 5 and 6 — lost entirely.
    c.node(1).client_request("b");
    c.node(1).emit_signature();
    c.tick(1);
    c.network().drop_link(1, 2);
    c.network().drop_link(1, 3);
    // Window 3: entries 7 and 8 — delivered; prev (6) is missing, so the
    // followers NACK with agreement estimate 4.
    c.node(1).client_request("c");
    c.node(1).emit_signature();
    c.tick(1);
    for (const NodeId peer : {NodeId(2), NodeId(3)})
    {
      EXPECT_TRUE(c.deliver_on_link(1, peer)); // AE (6,7]: NACK(4)
      EXPECT_TRUE(c.deliver_on_link(peer, 1)); // NACK reaches the leader
    }
    return c.trace();
  }
}

TEST(TraceValidation, CatchesNackMatchIndexBugViaCommit)
{
  // Bug 3 (Table 2): with the bug, the two NACK estimates (4) overwrite
  // match_index and the leader commits the signature at index 4 without a
  // single acknowledged AE. The spec's matchIndex is unchanged by NACKs,
  // so no spec behavior reaches the logged advanceCommit — this is
  // exactly the discrepancy trace validation surfaced in the paper (§7).
  consensus::BugFlags bugs;
  bugs.nack_overwrites_match_index = true;
  const auto events = run_nack_commit(bugs);
  bool committed = false;
  for (const auto& e : events)
  {
    committed = committed ||
      (e.kind == EventKind::AdvanceCommit && e.commit_idx == 4);
  }
  ASSERT_TRUE(committed); // the buggy build really did commit on NACKs

  const auto r = validate_consensus_trace(
    events, params_for(three_nodes(121), 3));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failed_line.find("advanceCommit"), std::string::npos)
    << r.failed_line;
}

TEST(TraceValidation, FixedNackHandlingTraceValidates)
{
  const auto events = run_nack_commit({});
  for (const auto& e : events)
  {
    EXPECT_FALSE(e.kind == EventKind::AdvanceCommit && e.commit_idx > 2);
  }
  const auto r = validate_consensus_trace(
    events, params_for(three_nodes(121), 3));
  EXPECT_TRUE(r.ok) << diagnose(r);
}

TEST(TraceValidation, LongChaoticRunValidates)
{
  // A long run — thousands of events — with crashes, forced elections and
  // a reconfiguration; DFS validation must stay fast (this is the CI
  // turning point the paper describes in §8).
  ClusterOptions o;
  o.initial_config = {1, 2, 3, 4};
  o.initial_leader = 1;
  o.seed = 131;
  Cluster c(o);
  Rng rng(131 * 271);
  bool crashed_one = false;
  for (int step = 0; step < 900; ++step)
  {
    c.tick_all();
    c.drain(rng.below(5));
    const uint64_t dice = rng.below(100);
    if (dice < 18)
    {
      c.submit("L" + std::to_string(step));
    }
    else if (dice < 28)
    {
      c.sign();
    }
    else if (dice < 30 && step == 200)
    {
      c.reconfigure({1, 2, 3, 4});
    }
    else if (dice < 32 && !crashed_one && step > 400)
    {
      c.crash(2);
      crashed_one = true;
    }
    else if (dice < 35)
    {
      const NodeId n = 1 + rng.below(4);
      if (!c.crashed(n))
      {
        c.node(n).force_timeout();
        c.tick(n);
      }
    }
  }
  c.drain();
  const auto events = preprocess(c.trace());
  ASSERT_GT(events.size(), 1500u);

  const auto params = validation_params({1, 2, 3, 4}, 1, 4);
  spec::ValidationResult<specs::ccfraft::State> result;
  const auto started = std::chrono::steady_clock::now();
  result = validate_consensus_trace(c.trace(), params);
  const double seconds =
    std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
      .count();
  EXPECT_TRUE(result.ok) << diagnose(result);
  EXPECT_EQ(result.lines_matched, events.size());
  // "less than a second using DFS" (§6.4) — even for thousands of lines.
  EXPECT_LT(seconds, 5.0);
}

TEST(TraceValidation, BuggyTraceValidatesAgainstEquallyBuggySpec)
{
  // The flags exist on both sides precisely so spec and implementation
  // stay aligned (§7: "a single LoC change to align the spec with the
  // implementation"). A buggy implementation's trace must be a behavior
  // of the spec carrying the SAME bug — the discrepancy only appears
  // against the fixed spec.
  consensus::BugFlags bugs;
  bugs.ack_local_last_idx = true;
  const auto events = run_duplicate_delivery(bugs);

  ConsensusValidationOptions with_faults;
  with_faults.fault_composition = true;

  // Against the fixed spec: rejected (shown in CatchesInaccurateAeAckBug).
  const auto fixed = validate_consensus_trace(
    events, params_for(three_nodes(119), 3), with_faults);
  EXPECT_FALSE(fixed.ok);

  // Against the spec with the same bug injected: accepted.
  const auto buggy_spec_params =
    validation_params({1, 2, 3}, 1, 3, bugs);
  const auto aligned =
    validate_consensus_trace(events, buggy_spec_params, with_faults);
  EXPECT_TRUE(aligned.ok) << diagnose(aligned);
}

TEST(TraceValidation, NackBugTraceValidatesAgainstNackBuggySpec)
{
  consensus::BugFlags bugs;
  bugs.nack_overwrites_match_index = true;
  const auto events = run_nack_commit(bugs);

  const auto fixed =
    validate_consensus_trace(events, params_for(three_nodes(121), 3));
  EXPECT_FALSE(fixed.ok);

  const auto aligned = validate_consensus_trace(
    events, validation_params({1, 2, 3}, 1, 3, bugs));
  EXPECT_TRUE(aligned.ok) << diagnose(aligned);
}

TEST(TraceValidation, DiagnosticsIncludeFrontierSizes)
{
  Cluster c(three_nodes(123));
  c.submit("x");
  c.sign();
  for (int i = 0; i < 20; ++i)
  {
    c.tick_all();
    c.drain();
  }
  ConsensusValidationOptions bfs;
  bfs.search.mode = spec::SearchMode::Bfs;
  const auto r = validate_consensus_trace(
    c.trace(), params_for(three_nodes(123), 3), bfs);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.frontier_sizes.size(), preprocess(c.trace()).size());
  for (const size_t size : r.frontier_sizes)
  {
    EXPECT_GE(size, 1u);
  }
}

// ---- Lazy fault composition in the DFS ----

namespace
{
  using specs::ccfraft::State;

  /// The consensus binding's IsFault: drop or duplicate any in-flight
  /// message.
  void drop_or_duplicate(
    const specs::ccfraft::Params& p, const State& s,
    const spec::Emit<State>& emit)
  {
    for (const auto& [msg, count] : s.network)
    {
      specs::ccfraft::actions::drop_message(s, msg, emit);
      specs::ccfraft::actions::duplicate_message(p, s, msg, emit);
    }
  }

  /// One fault closure the search built: the frame's line and entered
  /// state.
  struct Closure
  {
    size_t line;
    State base;
  };

  /// A DFS validation with one fault per line, composed like
  /// validate_consensus_trace, whose fault expander and lines record
  /// every closure the search builds (uncapped, so every frame that fails
  /// builds one). With one fault layer a closure applies the fault
  /// expander exactly once, to the frame's entered state, and a line
  /// expansion outside it is a frame's stage 0. The recorder keeps the
  /// frames entered along the current path; those above the closing
  /// frame have all failed, so each has built its closure already.
  struct RecordingValidation
  {
    struct Entered
    {
      Closure frame;
      bool closed = false;
    };

    std::vector<spec::TraceLineExpander<State>> lines;
    std::vector<Closure> closures;
    spec::ValidationResult<State> result;

    RecordingValidation(
      const std::vector<TraceEvent>& raw, const specs::ccfraft::Params& p) :
      lines(bind_consensus_trace(preprocess(raw), p))
    {
      bool in_closure = false;
      std::vector<Entered> path;
      auto recorded = lines;
      for (size_t i = 0; i < recorded.size(); ++i)
      {
        recorded[i].expand = [i, &in_closure, &path, inner = lines[i].expand](
                               const State& s, const spec::Emit<State>& emit) {
          if (!in_closure)
          {
            while (!path.empty() && path.back().frame.line >= i)
            {
              path.pop_back();
            }
            path.push_back({{i, s}});
          }
          inner(s, emit);
        };
      }
      spec::ValidationOptions o;
      o.mode = spec::SearchMode::Dfs;
      o.max_faults_per_step = 1;
      spec::TraceValidator<State> validator(
        {specs::ccfraft::initial_state(p)}, std::move(recorded), o);
      validator.set_fault_expander(
        [&, p](const State& s, const spec::Emit<State>& emit) {
          auto open = std::find_if(
            path.rbegin(), path.rend(), [](const Entered& e) {
              return !e.closed;
            });
          ASSERT_NE(open, path.rend());
          EXPECT_EQ(open->frame.base, s);
          open->closed = true;
          closures.push_back(open->frame);
          in_closure = true;
          drop_or_duplicate(p, s, emit);
          in_closure = false;
        });
      result = validator.run();
    }
  };

  /// FNV-1a of each state's serialized bytes, folded in order (the
  /// validator goldens' witness pin).
  uint64_t chain_hash(const std::vector<State>& states)
  {
    uint64_t h = fnv1a_init;
    for (const State& s : states)
    {
      ByteSink sink;
      s.serialize(sink);
      const uint64_t v = fnv1a(sink.bytes().data(), sink.bytes().size());
      h = fnv1a(reinterpret_cast<const uint8_t*>(&v), sizeof(v), h);
    }
    return h;
  }

  /// A state's serialized bytes, as a std::string: GCC 12 reports a
  /// false -Wstringop-overread where std::vector<uint8_t> values are
  /// ordered in a Release -Werror build.
  std::string bytes_of(const State& s)
  {
    ByteSink sink;
    s.serialize(sink);
    return {sink.bytes().begin(), sink.bytes().end()};
  }
}

TEST(LazyFaultClosure, HappyPathGeneratesOneSuccessorPerLineAndNoClosure)
{
  Cluster c(three_nodes(101));
  c.submit("hello");
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const RecordingValidation v(c.trace(), params_for(three_nodes(101), 3));
  ASSERT_TRUE(v.result.ok) << diagnose(v.result);
  EXPECT_EQ(v.result.states_explored, v.lines.size());
  EXPECT_EQ(v.result.stats.distinct_states, v.lines.size());
  EXPECT_TRUE(v.closures.empty());
}

TEST(LazyFaultClosure, ClosuresOnlyWherePlainSuccessorsAllFail)
{
  // The duplicated delivery needs a duplicate fault, so some closures are
  // built. Each must belong to a frame whose every plain successor fails:
  // an independent fault-composed search of the rest of the trace from
  // each of them finds no witness.
  const auto events = run_duplicate_delivery({});
  const auto p = params_for(three_nodes(119), 3);
  const RecordingValidation v(events, p);
  ASSERT_TRUE(v.result.ok) << diagnose(v.result);
  // The eager search's witness, as pinned in validator_golden_test.
  EXPECT_EQ(chain_hash(v.result.witness), 0x5f9258ef22018715ULL);
  ASSERT_FALSE(v.closures.empty());
  EXPECT_LT(v.closures.size(), v.result.stats.distinct_states);

  spec::ValidationOptions rest;
  rest.mode = spec::SearchMode::Dfs;
  rest.max_faults_per_step = 1;
  for (const Closure& closure : v.closures)
  {
    const size_t line = closure.line;
    const std::vector<spec::TraceLineExpander<State>> suffix(
      v.lines.begin() + static_cast<ptrdiff_t>(line) + 1, v.lines.end());
    v.lines[line].expand(closure.base, [&](State&& plain) {
      spec::TraceValidator<State> search({std::move(plain)}, suffix, rest);
      search.set_fault_expander(
        [&](const State& s, const spec::Emit<State>& emit) {
          drop_or_duplicate(p, s, emit);
        });
      EXPECT_FALSE(search.run().ok) << "closure at line " << line;
    });
  }
}

TEST(LazyFaultClosure, BaseThenClosureIsTheWithFaultsSequence)
{
  // Random walks over the n=3 consensus model: at every state, the base
  // state followed by fault_closure() lends exactly the states of
  // with_faults(), in the same order, each once, at one and two fault
  // layers (two layers reach the base again: duplicate what was dropped).
  specs::ccfraft::Params p;
  p.max_network = 4;
  const auto def = specs::ccfraft::build_spec(p);
  Rng rng(23);
  size_t compared = 0;
  size_t nonempty = 0;
  for (const size_t layers : {1u, 2u})
  {
    spec::Expander<State> expander;
    expander.set_fault(
      [&p](const State& s, const spec::Emit<State>& emit) {
        drop_or_duplicate(p, s, emit);
      },
      layers);
    for (int walk = 0; walk < 20; ++walk)
    {
      State s = def.init[rng.below(def.init.size())];
      for (int step = 0; step < 30; ++step)
      {
        std::vector<std::string> eager;
        expander.with_faults(
          s, [&](const State& f) { eager.push_back(bytes_of(f)); });
        std::vector<std::string> lazy{bytes_of(s)};
        expander.fault_closure(
          s, [&](const State& f) { lazy.push_back(bytes_of(f)); });
        ASSERT_EQ(lazy, eager) << s.to_string();
        // The closure lends each state once, and never the base.
        const std::set<std::string> distinct(lazy.begin(), lazy.end());
        ASSERT_EQ(distinct.size(), lazy.size()) << s.to_string();
        compared++;
        nonempty += eager.size() > 1 ? 1 : 0;

        std::vector<State> next;
        for (const auto& action : def.actions)
        {
          action.expand(
            s, [&](State&& succ) { next.push_back(std::move(succ)); });
        }
        if (next.empty())
        {
          break;
        }
        s = std::move(next[rng.below(next.size())]);
      }
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(nonempty, compared / 2);
}
