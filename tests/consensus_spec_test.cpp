// Verification of the consensus spec (§4) and spec-side reproduction of
// the Table 2 bugs.
//
//  * Small-model exhaustive checking: with the fixed protocol, every
//    invariant and action property holds over the complete (bounded)
//    state space.
//  * Shallow bugs (commit-on-NACK, truncation-from-early-AE, the bad first
//    fix) are found automatically by model checking / simulation of the
//    flagged spec, as in the paper.
//  * Deep bugs (quorum tally, commit for previous term) are demonstrated
//    with directed action sequences — the spec-level equivalent of the
//    paper translating counterexamples into tests — with the flags off the
//    offending transition is disabled.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "specs/consensus/spec.h"
#include "util/hex.h"

using namespace scv;
using namespace scv::spec;
using namespace scv::specs::ccfraft;

namespace
{
  using Expander = std::function<void(const State&, const Emit<State>&)>;
  using Pick = std::function<bool(const State&)>;

  /// Applies a directed action: expands and returns the first successor
  /// satisfying `pick` (or the first successor when no pick is given).
  /// Fails the test when the action is disabled.
  State must_step(
    const State& s, const Expander& fn, const Pick& pick = nullptr)
  {
    std::vector<State> out;
    fn(s, [&](const State& n) { out.push_back(n); });
    for (const State& n : out)
    {
      if (!pick || pick(n))
      {
        return n;
      }
    }
    ADD_FAILURE() << "directed action disabled or no matching successor at\n"
                  << s.to_string();
    return s;
  }

  /// Asserts an action is disabled (no successors).
  void expect_disabled(const State& s, const Expander& fn)
  {
    std::vector<State> out;
    fn(s, [&](const State& n) { out.push_back(n); });
    EXPECT_TRUE(out.empty()) << "expected disabled action in\n"
                             << s.to_string();
  }

  SpecMessage find_msg(const State& s, MType type, Nid from, Nid to)
  {
    for (const auto& [msg, count] : s.network)
    {
      if (msg.type == type && msg.from == from && msg.to == to)
      {
        return msg;
      }
    }
    ADD_FAILURE() << "message not found in\n" << s.to_string();
    return {};
  }

  bool check_invariant(
    const std::vector<Invariant<State>>& invs, const char* name,
    const State& s)
  {
    for (const auto& inv : invs)
    {
      if (inv.name == name)
      {
        return inv.check(s);
      }
    }
    ADD_FAILURE() << "unknown invariant " << name;
    return false;
  }
}

// ---------------------------------------------------------------------------
// Baseline spec behavior.
// ---------------------------------------------------------------------------

TEST(ConsensusSpec, InitialStateMatchesBootstrap)
{
  Params p;
  p.n_nodes = 3;
  const State s = initial_state(p);
  EXPECT_EQ(s.node(1).role, SRole::Leader);
  EXPECT_EQ(s.node(2).role, SRole::Follower);
  for (Nid n = 1; n <= 3; ++n)
  {
    EXPECT_EQ(s.node(n).len(), 2u);
    EXPECT_EQ(s.node(n).commit_index, 2u);
    EXPECT_EQ(s.node(n).log[0].type, EType::Reconfig);
    EXPECT_EQ(s.node(n).log[1].type, EType::Sig);
  }
}

TEST(ConsensusSpec, AllInvariantsHoldOnInitialState)
{
  Params p;
  p.n_nodes = 3;
  const auto invariants = build_invariants(p);
  const State s = initial_state(p);
  for (const auto& inv : invariants)
  {
    EXPECT_TRUE(inv.check(s)) << inv.name;
  }
}

TEST(ConsensusSpec, NetworkMultisetSemantics)
{
  Params p;
  p.n_nodes = 2;
  State s = initial_state(p);
  SpecMessage m;
  m.type = MType::RvReq;
  m.from = 1;
  m.to = 2;
  m.term = 2;
  EXPECT_EQ(s.message_count(m), 0u);
  s.add_message(m);
  s.add_message(m);
  EXPECT_EQ(s.message_count(m), 2u);
  EXPECT_EQ(s.network_size(), 2u);
  EXPECT_TRUE(s.remove_message(m));
  EXPECT_EQ(s.message_count(m), 1u);
  EXPECT_TRUE(s.remove_message(m));
  EXPECT_FALSE(s.remove_message(m));
}

TEST(ConsensusSpec, QuorumHelpers)
{
  Params p;
  p.n_nodes = 3;
  State s = initial_state(p);
  SpecNode& n = s.node(1);
  EXPECT_TRUE(quorum_in_each(n, 0b011)); // {1,2} of {1,2,3}
  EXPECT_FALSE(quorum_in_each(n, 0b001));
  // Add a pending reconfiguration to {3}: joint quorum must include 3.
  n.log.push_back({1, EType::Reconfig, 0, 0b100});
  EXPECT_FALSE(quorum_in_each(n, 0b011));
  EXPECT_TRUE(quorum_in_each(n, 0b111));
  EXPECT_TRUE(quorum_in_union(n, 0b011)); // the buggy union rule accepts
}

// ---------------------------------------------------------------------------
// Exhaustive small-model checking of the fixed protocol (the paper's
// central verification workload; Table 1's "Model Checking" rows).
// ---------------------------------------------------------------------------

TEST(ConsensusSpecMC, TwoNodeModelExhaustivelySafe)
{
  Params p;
  p.n_nodes = 2;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
  EXPECT_TRUE(result.stats.complete);
  // The bounded model has roughly half a million distinct states.
  EXPECT_GT(result.stats.distinct_states, 100'000u);
}

TEST(ConsensusSpecMC, AllBootstrapInitialStatesSafe)
{
  // §4: the spec's initial states cover every non-empty subset of the
  // initial configuration with any member as leader — 2 nodes gives
  // {1}:1, {2}:2, {1,2}:1, {1,2}:2. Exhaustive checking from ALL of them.
  Params p;
  p.n_nodes = 2;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  auto spec = build_spec(p);
  spec.init = all_initial_states(p);
  ASSERT_EQ(spec.init.size(), 4u);
  spec::CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = spec::model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
  EXPECT_TRUE(result.stats.complete);
}

TEST(ConsensusSpec, AllInitialStatesEnumeration)
{
  Params p;
  p.n_nodes = 3;
  const auto states = all_initial_states(p);
  // Subsets of {1,2,3} weighted by size: 3*1 + 3*2 + 1*3 = 12.
  EXPECT_EQ(states.size(), 12u);
  for (const auto& s : states)
  {
    // Exactly one leader, and it is a member of the initial config.
    int leaders = 0;
    for (Nid n = 1; n <= 3; ++n)
    {
      if (s.node(n).role == SRole::Leader)
      {
        ++leaders;
        EXPECT_TRUE(has_node(s.node(n).log[0].config, n));
      }
    }
    EXPECT_EQ(leaders, 1);
  }
}

TEST(ConsensusSpecMC, ThreeNodeModelSafeWithinBudget)
{
  Params p;
  p.n_nodes = 3;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 400'000;
  limits.time_budget_seconds = 60.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

TEST(ConsensusSpecMC, ReconfigurationModelSafeWithinBudget)
{
  Params p;
  p.n_nodes = 3;
  p.max_term = 2;
  p.max_requests = 0;
  p.max_log_len = 5;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  p.allowed_reconfigs = {0b011}; // shrink {1,2,3} -> {1,2}
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 400'000;
  limits.time_budget_seconds = 60.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

struct ConsensusShape
{
  uint8_t nodes;
  uint8_t term;
  uint8_t requests;
  uint8_t log;
  Bits reconfig; // 0 = none
};

class ConsensusGridTest : public ::testing::TestWithParam<ConsensusShape>
{};

TEST_P(ConsensusGridTest, BoundedModelSafe)
{
  const auto shape = GetParam();
  Params p;
  p.n_nodes = shape.nodes;
  p.max_term = shape.term;
  p.max_requests = shape.requests;
  p.max_log_len = shape.log;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  if (shape.reconfig != 0)
  {
    p.allowed_reconfigs = {shape.reconfig};
  }
  spec::CheckLimits limits;
  limits.max_distinct_states = 600'000;
  limits.time_budget_seconds = 60.0;
  const auto result = spec::model_check(build_spec(p), limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

INSTANTIATE_TEST_SUITE_P(
  Shapes,
  ConsensusGridTest,
  ::testing::Values(
    ConsensusShape{2, 2, 0, 4, 0}, // elections only
    ConsensusShape{2, 1, 2, 6, 0}, // replication only, two requests
    ConsensusShape{2, 2, 1, 5, 0b10}, // shrink {1,2} -> {2}
    ConsensusShape{3, 1, 1, 4, 0b001}, // shrink {1,2,3} -> {1}
    ConsensusShape{3, 2, 0, 4, 0} // three-node elections
    ));

namespace
{
  /// Drives the 2-node model (reconfig {1,2} -> {2}) through the full
  /// retirement pipeline to the point where leader 1's own retirement has
  /// committed (membership Completed, still leader — the ProposeVote
  /// moment).
  State drive_retirement_to_completed(const Params& p)
  {
    namespace a = actions;
    State s = initial_state(p);
    const auto step = [&](auto fn) { s = must_step(s, fn); };
    step([&](const State& st, const Emit<State>& e) {
      a::change_configuration(p, st, 1, 0b10, e);
    });
    step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
    step([&](const State& st, const Emit<State>& e) {
      a::append_entries(p, st, 1, 2, 2, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_request(p, st, 2, find_msg(st, MType::AeReq, 1, 2), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 2, 1), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::advance_commit(p, st, 1, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::append_retirement(p, st, 1, e);
    });
    step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
    step([&](const State& st, const Emit<State>& e) {
      a::append_entries(p, st, 1, 2, 2, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_request(p, st, 2, find_msg(st, MType::AeReq, 1, 2), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 2, 1), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::advance_commit(p, st, 1, e);
    });
    EXPECT_EQ(s.node(1).membership, SMembership::Completed);
    return s;
  }
}

TEST(ConsensusSpecMC, EveryActionIsExercised)
{
  // Action coverage (TLC prints the same): across a general bounded model
  // plus exploration from a late-retirement state (ProposeVote and its
  // handler live ~15 actions deep), every one of the 17 protocol actions
  // and both network fault actions fires at least once — a guard stuck at
  // zero would mean a dead action.
  Params p;
  p.n_nodes = 2;
  p.initial_config = 0b11;
  p.max_term = 3;
  p.max_requests = 1;
  p.max_log_len = 7;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 2;
  p.allowed_reconfigs = {0b10};
  spec::CheckLimits limits;
  limits.max_distinct_states = 300'000; // coverage, not exhaustiveness
  limits.time_budget_seconds = 60.0;
  const auto spec = build_spec(p);
  auto coverage = spec::model_check(spec, limits).stats.action_coverage;

  // Second run seeded at the retiring leader's hand-over point.
  auto late = build_spec(p);
  late.init = {drive_retirement_to_completed(p)};
  spec::CheckLimits small;
  small.max_distinct_states = 50'000;
  small.time_budget_seconds = 30.0;
  for (const auto& [name, count] :
       spec::model_check(late, small).stats.action_coverage)
  {
    coverage[name] += count;
  }

  for (const auto& action : spec.actions)
  {
    const auto it = coverage.find(action.name);
    EXPECT_TRUE(it != coverage.end() && it->second > 0) << action.name;
  }
}

// ---------------------------------------------------------------------------
// Snapshots & catch-up (ghost-log compaction). The snapshot action family
// is gated behind Params::enable_snapshots so the models above keep their
// original state spaces; these tests turn it on.
// ---------------------------------------------------------------------------

namespace
{
  /// Single-node initial configuration growing to {1,2}: the shape of a
  /// join-from-snapshot. Node 2 starts as a passive joiner; a stale NACK
  /// from an earlier probe rolls the leader's send window below a later
  /// compaction point, which is what arms SendSnapshot.
  Params snapshot_join_model()
  {
    Params p;
    p.n_nodes = 2;
    p.initial_config = 0b01;
    p.initial_leader = 1;
    p.max_term = 1; // no elections: isolate the snapshot machinery
    p.max_requests = 0;
    p.max_log_len = 4; // bootstrap + reconfig + signature, nothing else
    p.max_batch = 2;
    p.max_network = 2;
    p.max_copies = 1;
    p.allowed_reconfigs = {0b11};
    p.enable_snapshots = true;
    return p;
  }
}

TEST(ConsensusSpecMC, SnapshotJoinModelExhaustivelySafe)
{
  // Exhaustive checking of the snapshot-enabled model: every invariant
  // (including SnapshotInv and MonotonicSnapshotProp) holds across the
  // complete bounded state space, and the whole snapshot family
  // (CompactLog, SendSnapshot, HandleInstallSnapshotRequest) fires.
  const Params p = snapshot_join_model();
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
  EXPECT_TRUE(result.stats.complete)
    << result.stats.summary() << "\n"
    << result.stats.coverage_report();
  const auto& coverage = result.stats.action_coverage;
  for (const char* name :
       {"CompactLog", "SendSnapshot", "HandleInstallSnapshotRequest"})
  {
    const auto it = coverage.find(name);
    EXPECT_TRUE(it != coverage.end() && it->second > 0) << name;
  }
}

TEST(ConsensusSpec, SnapshotOfferInstallAndCatchUp)
{
  // Directed walk through the whole catch-up pipeline: the leader commits
  // past the bootstrap prefix, compacts, adds a lagging node whose NACK
  // re-opens the send window below the compaction point; AppendEntries is
  // then disabled toward that node (the window's bodies are gone) and
  // SendSnapshot takes over; the joiner installs and catches up via
  // ordinary AppendEntries above the watermark.
  namespace a = actions;
  Params p;
  p.n_nodes = 3;
  p.initial_config = 0b011;
  p.initial_leader = 1;
  p.max_term = 1;
  p.max_requests = 1;
  p.max_log_len = 6;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  p.allowed_reconfigs = {0b111};
  p.enable_snapshots = true;

  State s = initial_state(p);
  const auto step = [&](auto fn) { s = must_step(s, fn); };

  // Commit a request + signature on {1,2} (indices 3 and 4).
  step([&](const State& st, const Emit<State>& e) {
    a::client_request(p, st, 1, e);
  });
  step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 2, 2, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 2, find_msg(st, MType::AeReq, 1, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 2, 1), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::advance_commit(p, st, 1, e);
  });
  EXPECT_EQ(s.node(1).commit_index, 4u);

  // Compact at the committed signature: watermark only, log retained.
  step([&](const State& st, const Emit<State>& e) {
    a::compact_log(p, st, 1, 4, e);
  });
  EXPECT_EQ(s.node(1).snap_idx, 4u);
  EXPECT_EQ(s.node(1).snap_term, 1u);
  EXPECT_EQ(s.node(1).len(), 4u); // ghost log: content stays

  // Add node 3; the optimistic probe NACKs back to the joiner's
  // bootstrap prefix, landing the send window below the watermark.
  step([&](const State& st, const Emit<State>& e) {
    a::change_configuration(p, st, 1, 0b111, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 3, 0, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 1, 3), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 3, 1), e);
  });
  EXPECT_EQ(s.node(1).sent_index[2], 2u);

  // The send window is below the compaction point: AppendEntries is
  // disabled toward node 3, SendSnapshot is the only way forward.
  expect_disabled(s, [&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 3, -1, e);
  });
  // Node 2 is fully caught up: no snapshot offer there.
  expect_disabled(s, [&](const State& st, const Emit<State>& e) {
    a::send_snapshot(p, st, 1, 2, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::send_snapshot(p, st, 1, 3, e);
  });
  const SpecMessage offer = find_msg(s, MType::InstallSnap, 1, 3);
  EXPECT_EQ(offer.last_idx, 4u);
  EXPECT_EQ(offer.prev_term, 1u);
  EXPECT_EQ(offer.entries.size(), 4u); // the ghost prefix rides along
  EXPECT_EQ(s.node(1).sent_index[2], 4u); // optimistic advance

  // The joiner installs: log replaced by the prefix, commit/watermark at
  // the snapshot index, ACKed with an ordinary AppendEntries response.
  step([&](const State& st, const Emit<State>& e) {
    a::handle_install_snapshot(
      p, st, 3, find_msg(st, MType::InstallSnap, 1, 3), e);
  });
  EXPECT_EQ(s.node(3).len(), 4u);
  EXPECT_EQ(s.node(3).commit_index, 4u);
  EXPECT_EQ(s.node(3).snap_idx, 4u);
  EXPECT_EQ(s.node(3).snap_term, 1u);
  const SpecMessage ack = find_msg(s, MType::AeResp, 3, 1);
  EXPECT_TRUE(ack.success);
  EXPECT_EQ(ack.last_idx, 4u);
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 3, 1), e);
  });
  EXPECT_EQ(s.node(1).match_index[2], 4u);

  // Above the watermark, ordinary replication resumes: node 3 receives
  // the pending reconfiguration and becomes an active member.
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 3, 1, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 1, 3), e);
  });
  EXPECT_EQ(s.node(3).len(), 5u);
  EXPECT_EQ(s.node(3).membership, SMembership::Active);

  // The final state satisfies every invariant, snapshot ones included.
  for (const auto& inv : build_invariants(p))
  {
    EXPECT_TRUE(inv.check(s)) << inv.name;
  }
}

TEST(ConsensusSpecReachability, RetirementCompletionIsReachable)
{
  // find_reachable packages the "assert the negation" trick: the paper's
  // liveness concern (can retirement complete?) as a shortest-witness
  // query.
  Params p;
  p.n_nodes = 2;
  p.initial_config = 0b11;
  p.max_term = 2;
  p.max_requests = 0;
  p.max_log_len = 6;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  p.allowed_reconfigs = {0b10};
  spec::CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = spec::find_reachable<State>(
    build_spec(p),
    "RetirementCompletes",
    [](const State& s) {
      return s.node(1).membership == SMembership::Completed;
    },
    limits);
  ASSERT_TRUE(result.reachable);
  // BFS gives the shortest path to full retirement; it needs the whole
  // pipeline: reconfig, sign, replicate, commit, retire tx, sign,
  // replicate, commit.
  EXPECT_GE(result.witness.size(), 10u);
  EXPECT_EQ(
    result.witness.back().state.node(1).membership, SMembership::Completed);
}

TEST(ConsensusSpecSim, RandomWalksSafe)
{
  Params p;
  p.n_nodes = 3;
  p.max_term = 4;
  p.max_requests = 3;
  p.max_log_len = 10;
  p.allowed_reconfigs = {0b011, 0b111};
  const auto spec = build_spec(p);
  SimOptions options;
  options.seed = 11;
  options.max_depth = 60;
  options.time_budget_seconds = 3.0;
  const auto result = simulate(spec, options);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
  EXPECT_GT(result.behaviors, 5u);
}

// ---------------------------------------------------------------------------
// Bug 3 (commit advance on AE-NACK): simulation/model checking find the
// MonotonicMatchIndexProp violation automatically, as in the paper.
// ---------------------------------------------------------------------------

namespace
{
  Params nack_bug_model()
  {
    Params p;
    p.n_nodes = 2;
    p.max_term = 1; // no elections needed
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    return p;
  }
}

TEST(ConsensusSpecBug3, ModelCheckingFindsMatchIndexViolation)
{
  Params p = nack_bug_model();
  p.bugs.nack_overwrites_match_index = true;
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 500'000;
  limits.time_budget_seconds = 60.0;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample->property, "MonotonicMatchIndexProp");
}

TEST(ConsensusSpecBug3, FixedModelHasNoViolation)
{
  const auto spec = build_spec(nack_bug_model());
  CheckLimits limits;
  limits.max_distinct_states = 500'000;
  limits.time_budget_seconds = 60.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

// ---------------------------------------------------------------------------
// Serialization byte identity. State::serialize writes packed runs of
// bytes with one ByteSink::raw() call each; the oracle below is the
// field-by-field encoder it replaced. Fingerprints, symmetry's canonical
// order and every pinned state hash depend on these bytes, so they must
// match on every reachable state.
// ---------------------------------------------------------------------------

namespace
{
  void oracle_entry(const SpecEntry& e, ByteSink& sink)
  {
    sink.u8(e.term);
    sink.u8(static_cast<uint8_t>(e.type));
    sink.u8(e.payload);
    sink.u8(e.config);
  }

  void oracle_message(const SpecMessage& m, ByteSink& sink)
  {
    sink.u8(static_cast<uint8_t>(m.type));
    sink.u8(m.from);
    sink.u8(m.to);
    sink.u8(m.term);
    sink.u8(m.prev_idx);
    sink.u8(m.prev_term);
    sink.u8(m.commit);
    sink.u8(static_cast<uint8_t>(m.entries.size()));
    for (const auto& e : m.entries)
    {
      oracle_entry(e, sink);
    }
    sink.boolean(m.success);
    sink.u8(m.last_idx);
    sink.u8(m.last_log_idx);
    sink.u8(m.last_log_term);
  }

  void oracle_node(const SpecNode& n, ByteSink& sink)
  {
    sink.u8(static_cast<uint8_t>(n.role));
    sink.u8(n.current_term);
    sink.u8(n.voted_for);
    sink.u8(n.votes_granted);
    sink.u8(static_cast<uint8_t>(n.log.size()));
    for (const auto& e : n.log)
    {
      oracle_entry(e, sink);
    }
    sink.u8(n.commit_index);
    sink.u8(n.snap_idx);
    sink.u8(n.snap_term);
    for (const uint8_t v : n.sent_index)
    {
      sink.u8(v);
    }
    for (const uint8_t v : n.match_index)
    {
      sink.u8(v);
    }
    sink.u8(static_cast<uint8_t>(n.membership));
  }

  std::vector<uint8_t> oracle_bytes(const State& s)
  {
    ByteSink sink;
    sink.u8(s.n_nodes);
    for (uint8_t i = 0; i < s.n_nodes; ++i)
    {
      oracle_node(s.nodes[i], sink);
    }
    sink.u8(static_cast<uint8_t>(s.network.size()));
    for (const auto& [msg, count] : s.network)
    {
      oracle_message(msg, sink);
      sink.u8(count);
    }
    sink.u8(s.next_request);
    return {sink.bytes().begin(), sink.bytes().end()};
  }

  std::vector<uint8_t> packed_bytes(const State& s)
  {
    ByteSink sink;
    s.serialize(sink);
    return {sink.bytes().begin(), sink.bytes().end()};
  }

  /// Every state reachable under the constraint, deduplicated by its
  /// oracle bytes (no fingerprint involved). The encodings are keyed as
  /// std::string: GCC 12 reports a false -Wstringop-overread inside the
  /// ordering of std::vector<uint8_t> keys.
  std::vector<State> all_reachable(const SpecDef<State>& spec)
  {
    std::set<std::string> seen;
    const auto first_visit = [&](const State& s) {
      const std::vector<uint8_t> bytes = oracle_bytes(s);
      return seen.emplace(bytes.begin(), bytes.end()).second;
    };
    std::vector<State> states;
    for (const State& init : spec.init)
    {
      if (first_visit(init))
      {
        states.push_back(init);
      }
    }
    for (size_t i = 0; i < states.size(); ++i)
    {
      if (!spec.within_constraint(states[i]))
      {
        continue;
      }
      const State s = states[i];
      for (const auto& action : spec.actions)
      {
        action.expand(s, [&](const State& next) {
          if (first_visit(next))
          {
            states.push_back(next);
          }
        });
      }
    }
    return states;
  }
}

TEST(ConsensusSerialize, PackedEncoderMatchesFieldByFieldOnNackBugModel)
{
  Params p = nack_bug_model();
  p.bugs.nack_overwrites_match_index = true;
  const auto states = all_reachable(build_spec(p));
  ASSERT_GT(states.size(), 1534u); // more than the checker reaches
  size_t with_entries = 0;
  for (const State& s : states)
  {
    ASSERT_EQ(packed_bytes(s), oracle_bytes(s)) << s.to_string();
    for (const auto& [msg, count] : s.network)
    {
      with_entries += msg.entries.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(with_entries, 0u);
}

TEST(ConsensusSerialize, PackedEncoderMatchesFieldByFieldOnSymmetricInits)
{
  Params p;
  p.n_nodes = 3;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 3;
  p.max_batch = 1;
  p.max_network = 1;
  p.max_copies = 1;
  const auto inits = all_initial_states(p);
  ASSERT_GT(inits.size(), 1u);
  for (const State& s : inits)
  {
    EXPECT_EQ(packed_bytes(s), oracle_bytes(s)) << s.to_string();
  }
}

namespace
{
  /// A state whose log, message entries, nodes and network all exceed
  /// their inline capacities: four nodes, a twelve-entry log, a five-entry
  /// AppendEntries window and three distinct messages, one sent twice.
  State overflowing_state()
  {
    Params p;
    p.n_nodes = 4;
    State s = initial_state(p);
    SpecNode& leader = s.node(1);
    for (uint8_t i = 0; i < 8; ++i)
    {
      const EType type = i % 3 == 2 ? EType::Sig : EType::Data;
      leader.log.push_back(
        {2, type, static_cast<uint8_t>(type == EType::Data ? i + 1 : 0), 0});
    }
    leader.log.push_back({2, EType::Reconfig, 0, 0b0111});
    leader.log.push_back({2, EType::Retire, 4, 0});
    leader.current_term = 2;
    leader.commit_index = 5;
    SpecMessage ae;
    ae.type = MType::AeReq;
    ae.from = 1;
    ae.to = 3;
    ae.term = 2;
    ae.prev_idx = 2;
    ae.prev_term = 1;
    ae.commit = 5;
    for (uint8_t k = 3; k <= 7; ++k)
    {
      ae.entries.push_back(leader.at(k));
    }
    SpecMessage vote;
    vote.type = MType::RvReq;
    vote.from = 2;
    vote.to = 4;
    vote.term = 2;
    vote.last_log_idx = 2;
    vote.last_log_term = 1;
    SpecMessage ack;
    ack.type = MType::AeResp;
    ack.from = 4;
    ack.to = 1;
    ack.term = 1;
    ack.success = true;
    ack.last_idx = 2;
    s.add_message(ae);
    s.add_message(vote, 2);
    s.add_message(ack);
    s.next_request = 7;
    return s;
  }
}

// State keeps its small vectors inline up to fixed capacities and spills
// to the heap past them. A state past every capacity serializes and
// fingerprints exactly as it did when State held std::vectors (the pins
// below are that encoding), and survives copies and moves.
TEST(ConsensusSerialize, StatePastInlineCapacitiesKeepsItsBytes)
{
  const State s = overflowing_state();
  ASSERT_GT(size_t{s.n_nodes}, kInlineNodes);
  ASSERT_GT(s.node(1).log.size(), kInlineLog);
  ASSERT_GT(s.network.size(), kInlineNetwork);
  ASSERT_GT(s.network[0].first.entries.size(), kInlineEntries);

  const std::string want =
      "04020201000c0102000f01010000020001000200020002010000020004000200"
      "0500020100000200070002000800020200070203040005000000020202000000"
      "000000000000000000010000020102000f010100000200000000000000000000"
      "0000000000000000010000020102000f01010000020000000000000000000000"
      "00000000000000010000020102000f0101000002000000000000000000000000"
      "0000000000030001030202010505020001000200020002010000020004000200"
      "0500000000000101040101000000000102000001020204020000000000000201"
      "0207";
  EXPECT_EQ(to_hex(packed_bytes(s)), want);
  EXPECT_EQ(packed_bytes(s), oracle_bytes(s));
  EXPECT_EQ(fingerprint(s), 0xf94c32bd2a936536ull);

  State copy = s;
  EXPECT_EQ(copy, s);
  EXPECT_EQ(fingerprint(copy), fingerprint(s));
  const State moved = std::move(copy);
  EXPECT_EQ(moved, s);
  EXPECT_EQ(to_hex(packed_bytes(moved)), want);
}

// The derived views (active_nodes, common_active_nodes, current_config,
// latest_config, known_nodes, quorum_in_each) scan the log in place;
// configs_of/active_configs below list the log's configurations and are
// their oracle. Checked on every reachable state of a reconfiguration
// model where joint configurations, removals and retirements all occur.
namespace
{
  /// All configurations in a log, in order.
  std::vector<SpecConfig> configs_of(const SpecNode& node)
  {
    std::vector<SpecConfig> out;
    for (uint8_t i = 1; i <= node.len(); ++i)
    {
      if (node.log[i - 1].type == EType::Reconfig)
      {
        out.push_back({i, node.log[i - 1].config});
      }
    }
    return out;
  }

  /// The current configuration (the last one at or below the commit
  /// index, else the first) and every later one.
  std::vector<SpecConfig> active_configs(const SpecNode& node)
  {
    const auto all = configs_of(node);
    size_t current = 0;
    for (size_t i = 0; i < all.size(); ++i)
    {
      if (all[i].idx <= node.commit_index)
      {
        current = i;
      }
    }
    return {all.begin() + static_cast<ptrdiff_t>(current), all.end()};
  }
}

TEST(ConsensusDerivedViews, AgreeWithConfigListsOnReconfigurationModel)
{
  Params p;
  p.n_nodes = 3;
  p.max_term = 1;
  p.max_requests = 0;
  p.max_log_len = 4; // room to commit one reconfiguration
  p.max_batch = 1;
  p.max_network = 1;
  p.max_copies = 1;
  p.allowed_reconfigs = {0b011, 0b110};
  const auto states = all_reachable(build_spec(p));
  ASSERT_GT(states.size(), 1000u);
  size_t joint = 0;
  size_t moved_on = 0;
  size_t retiring = 0;
  for (const State& s : states)
  {
    for (Nid i = 1; i <= s.n_nodes; ++i)
    {
      const SpecNode& nd = s.node(i);
      const auto all = configs_of(nd);
      ASSERT_FALSE(all.empty()) << s.to_string();
      const auto active = active_configs(nd);
      Bits union_all = 0;
      for (const SpecConfig& c : all)
      {
        union_all = static_cast<Bits>(union_all | c.nodes);
      }
      Bits union_active = 0;
      Bits common_active = static_cast<Bits>(~0u);
      for (const SpecConfig& c : active)
      {
        union_active = static_cast<Bits>(union_active | c.nodes);
        common_active = static_cast<Bits>(common_active & c.nodes);
      }
      ASSERT_EQ(active_nodes(nd), union_active) << s.to_string();
      ASSERT_EQ(common_active_nodes(nd), common_active) << s.to_string();
      ASSERT_EQ(latest_config(nd), all.back().nodes) << s.to_string();
      ASSERT_EQ(known_nodes(nd), union_all) << s.to_string();
      ASSERT_EQ(current_config(nd).idx, active.front().idx) << s.to_string();
      ASSERT_EQ(current_config(nd).nodes, active.front().nodes)
        << s.to_string();
      for (unsigned have = 0; have < (1u << s.n_nodes); ++have)
      {
        bool each = true;
        for (const SpecConfig& c : active)
        {
          each = each && majority(c.nodes, static_cast<Bits>(have));
        }
        ASSERT_EQ(quorum_in_each(nd, static_cast<Bits>(have)), each)
          << s.to_string() << " have=" << have;
      }
      joint += active.size() > 1 ? 1 : 0;
      moved_on += active.front().idx > 1 ? 1 : 0;
      retiring += nd.membership != SMembership::Active ? 1 : 0;
    }
  }
  // The model reaches every shape the views distinguish.
  EXPECT_GT(joint, 0u);
  EXPECT_GT(moved_on, 0u);
  EXPECT_GT(retiring, 0u);
}

// ---------------------------------------------------------------------------
// Bug 4 (truncation from early AE): a duplicated AppendEntries delivered
// after commit advanced truncates committed entries; model checking finds
// the MonotonicCommitProp violation.
// ---------------------------------------------------------------------------

namespace
{
  Params truncate_bug_model()
  {
    Params p;
    p.n_nodes = 2;
    p.max_term = 1;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 2; // duplication enabled
    return p;
  }
}

TEST(ConsensusSpecBug4, ModelCheckingFindsCommitRegression)
{
  Params p = truncate_bug_model();
  p.bugs.truncate_on_early_ae = true;
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 1'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  EXPECT_TRUE(
    result.counterexample->property == "MonotonicCommitProp" ||
    result.counterexample->property == "AppendOnlyProp")
    << result.counterexample->property;
}

TEST(ConsensusSpecBug4, FixedModelHasNoViolation)
{
  const auto spec = build_spec(truncate_bug_model());
  CheckLimits limits;
  limits.max_distinct_states = 1'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
}

// ---------------------------------------------------------------------------
// The incorrect first fix (clear committable on election): model checking
// finds the MonoLogInv violation — the "simulation revealed a safety
// violation caused by the initial fix" episode (§7).
// ---------------------------------------------------------------------------

TEST(ConsensusSpecBadFix, ModelCheckingFindsMonoLogViolation)
{
  Params p;
  p.n_nodes = 2;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 5;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  p.bugs.clear_committable_on_election = true;
  const auto spec = build_spec(p);
  CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample->property, "MonoLogInv");
}

// ---------------------------------------------------------------------------
// Bug 1 (incorrect election quorum tally): directed action sequence — the
// paper found this with 48 hours of exhaustive checking on 128 cores; here
// the known counterexample drives the spec's own transition functions.
// ---------------------------------------------------------------------------

namespace
{
  Params quorum_bug_model(bool buggy)
  {
    Params p;
    p.n_nodes = 5;
    p.initial_config = 0b00111; // {1,2,3}
    p.initial_leader = 1;
    p.max_term = 2;
    p.max_log_len = 6;
    p.allowed_reconfigs = {0b11001}; // {1,4,5}
    p.bugs.quorum_union_tally = buggy;
    return p;
  }

  /// Drives the spec to the point where node 2 leads term 2 (legitimate)
  /// and node 1 campaigns in term 2 holding the pending {1,4,5}
  /// reconfiguration, with votes from {1,4,5} only.
  State drive_to_double_election(const Params& p)
  {
    namespace a = actions;
    State s = initial_state(p);
    // Leader 1 orders the reconfiguration and signs; no AEs delivered.
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::change_configuration(p, st, 1, 0b11001, e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::sign(p, st, 1, e);
    });
    // Majority side: node 2 wins term 2 legitimately.
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::timeout(p, st, 2, e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::request_vote(p, st, 2, 3, e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::update_term(p, st, 3, e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::handle_rv_request(p, st, 3, find_msg(st, MType::RvReq, 2, 3), e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::handle_rv_response(p, st, 2, find_msg(st, MType::RvResp, 3, 2), e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::become_leader(p, st, 2, e);
    });
    EXPECT_EQ(s.node(2).role, SRole::Leader);

    // Reconfiguring side: node 1 steps down and campaigns in the same
    // term with votes from the pending configuration only.
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::check_quorum(p, st, 1, e);
    });
    s = must_step(s, [&](const State& st, const Emit<State>& e) {
      a::timeout(p, st, 1, e);
    });
    EXPECT_EQ(s.node(1).current_term, 2u);
    EXPECT_EQ(s.node(1).len(), 4u); // signed reconfiguration survives
    for (const Nid j : {Nid(4), Nid(5)})
    {
      s = must_step(s, [&](const State& st, const Emit<State>& e) {
        a::request_vote(p, st, 1, j, e);
      });
      s = must_step(s, [&](const State& st, const Emit<State>& e) {
        a::update_term(p, st, j, e);
      });
      s = must_step(s, [&](const State& st, const Emit<State>& e) {
        a::handle_rv_request(p, st, j, find_msg(st, MType::RvReq, 1, j), e);
      });
      s = must_step(s, [&](const State& st, const Emit<State>& e) {
        a::handle_rv_response(
          p, st, 1, find_msg(st, MType::RvResp, j, 1), e);
      });
    }
    EXPECT_EQ(s.node(1).votes_granted, 0b11001);
    return s;
  }
}

TEST(ConsensusSpecBug1, UnionTallyElectsSecondLeader)
{
  const Params p = quorum_bug_model(true);
  State s = drive_to_double_election(p);
  s = must_step(s, [&](const State& st, const Emit<State>& e) {
    actions::become_leader(p, st, 1, e);
  });
  EXPECT_EQ(s.node(1).role, SRole::Leader);
  EXPECT_FALSE(check_invariant(
    build_invariants(p), "ElectionSafetyInv", s)); // two term-2 leaders
}

TEST(ConsensusSpecBug1, JointTallyBlocksElection)
{
  const Params p = quorum_bug_model(false);
  const State s = drive_to_double_election(p);
  // {1,4,5} is a union majority but lacks a majority of {1,2,3}: the
  // BecomeLeader guard rejects it.
  expect_disabled(s, [&](const State& st, const Emit<State>& e) {
    actions::become_leader(p, st, 1, e);
  });
}

// ---------------------------------------------------------------------------
// Bug 2 (commit advance for previous term): directed sequence recreating
// the [74, Fig. 8] interleaving at the spec level, through committing a
// previous-term signature and on to divergent committed logs.
// ---------------------------------------------------------------------------

namespace
{
  Params prev_term_model(bool buggy)
  {
    Params p;
    p.n_nodes = 3;
    p.max_term = 4;
    p.max_log_len = 6;
    p.max_batch = 2;
    p.bugs.commit_prev_term = buggy;
    return p;
  }

  /// Drives to: node 1 leads term 3 holding signature s1@3 (term 1)
  /// replicated on {1,3}; node 2 holds a competing signature s2@3
  /// (term 2). The commit decision for s1 is the §5.4.2 moment.
  State drive_to_prev_term_commit_decision(const Params& p)
  {
    namespace a = actions;
    State s = initial_state(p);
    const auto step = [&](auto fn) { s = must_step(s, fn); };

    // Term-1 leader signs s1@3 locally only.
    step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
    step([&](const State& st, const Emit<State>& e) {
      a::check_quorum(p, st, 1, e);
    });

    // Node 2 wins term 2 (log [c,s]) with node 3's vote, signs s2@3
    // locally, abdicates.
    step([&](const State& st, const Emit<State>& e) {
      a::timeout(p, st, 2, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::request_vote(p, st, 2, 3, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::update_term(p, st, 3, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_rv_request(p, st, 3, find_msg(st, MType::RvReq, 2, 3), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_rv_response(p, st, 2, find_msg(st, MType::RvResp, 3, 2), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::become_leader(p, st, 2, e);
    });
    step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 2, e); });
    step([&](const State& st, const Emit<State>& e) {
      a::check_quorum(p, st, 2, e);
    });

    // Node 1 wins term 3 with node 3's vote (its s1 log beats [c,s]).
    step([&](const State& st, const Emit<State>& e) {
      a::timeout(p, st, 1, e);
    }); // term 2
    step([&](const State& st, const Emit<State>& e) {
      a::timeout(p, st, 1, e);
    }); // term 3
    step([&](const State& st, const Emit<State>& e) {
      a::request_vote(p, st, 1, 3, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::update_term(p, st, 3, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_rv_request(p, st, 3, find_msg(st, MType::RvReq, 1, 3), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_rv_response(p, st, 1, find_msg(st, MType::RvResp, 3, 1), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::become_leader(p, st, 1, e);
    });
    EXPECT_EQ(s.node(1).current_term, 3u);

    // Replicate s1 to node 3: probe, NACK, express catch-up, ACK.
    step([&](const State& st, const Emit<State>& e) {
      a::append_entries(p, st, 1, 3, 0, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 1, 3), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 3, 1), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::append_entries(p, st, 1, 3, 1, e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 1, 3), e);
    });
    step([&](const State& st, const Emit<State>& e) {
      a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 3, 1), e);
    });
    EXPECT_EQ(s.node(1).match_index[2], 3u); // node 3 replicated s1
    EXPECT_EQ(s.node(3).len(), 3u);
    return s;
  }
}

TEST(ConsensusSpecBug2, GuardBlocksPreviousTermCommit)
{
  const Params p = prev_term_model(false);
  const State s = drive_to_prev_term_commit_decision(p);
  // s1@3 has term 1 != current term 3: AdvanceCommitIndex is disabled.
  expect_disabled(s, [&](const State& st, const Emit<State>& e) {
    actions::advance_commit(p, st, 1, e);
  });
}

TEST(ConsensusSpecBug2, BuggyCommitLeadsToDivergentCommittedLogs)
{
  namespace a = actions;
  const Params p = prev_term_model(true);
  State s = drive_to_prev_term_commit_decision(p);
  const auto step = [&](auto fn) { s = must_step(s, fn); };
  const auto invariants = build_invariants(p);

  // The missing guard lets s1@3 (term 1) commit in term 3.
  step([&](const State& st, const Emit<State>& e) {
    a::advance_commit(p, st, 1, e);
  });
  EXPECT_EQ(s.node(1).commit_index, 3u);
  EXPECT_TRUE(check_invariant(invariants, "LogInv", s)); // not yet visible

  // Node 2's higher-last-term log (s2@term2) wins term 4 and overwrites
  // the "committed" s1 on node 3, then commits its own branch.
  step([&](const State& st, const Emit<State>& e) {
    a::check_quorum(p, st, 1, e);
  });
  step([&](const State& st, const Emit<State>& e) { a::timeout(p, st, 2, e); });
  step([&](const State& st, const Emit<State>& e) { a::timeout(p, st, 2, e); });
  EXPECT_EQ(s.node(2).current_term, 4u);
  step([&](const State& st, const Emit<State>& e) {
    a::request_vote(p, st, 2, 3, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::update_term(p, st, 3, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_rv_request(p, st, 3, find_msg(st, MType::RvReq, 2, 3), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_rv_response(p, st, 2, find_msg(st, MType::RvResp, 3, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::become_leader(p, st, 2, e);
  });
  // Probe, NACK, catch-up: node 3's conflicting s1 is truncated and
  // replaced by s2.
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 2, 3, 0, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 2, 3), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 2, find_msg(st, MType::AeResp, 3, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 2, 3, 1, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 3, find_msg(st, MType::AeReq, 2, 3), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 2, find_msg(st, MType::AeResp, 3, 2), e);
  });
  // Bug again: s2@3 (term 2) commits in term 4 on the quorum {2,3}.
  step([&](const State& st, const Emit<State>& e) {
    a::advance_commit(p, st, 2, e);
  });
  EXPECT_EQ(s.node(2).commit_index, 3u);

  // Node 1 committed s1@3 (term 1); node 2 committed s2@3 (term 2):
  // State Machine Safety is gone.
  EXPECT_FALSE(check_invariant(invariants, "LogInv", s));
}

// ---------------------------------------------------------------------------
// Bug 6 (premature retirement): with the flag, the two-node self-removal
// reaches a state from which NO reachable state ever completes the
// retirement or advances commit — checked by exhaustive exploration of the
// (small) residual state space. With the fix, completion is reachable.
// ---------------------------------------------------------------------------

namespace
{
  Params retirement_model(bool buggy)
  {
    Params p;
    p.n_nodes = 2;
    p.initial_config = 0b11;
    p.initial_leader = 1;
    p.max_term = 3;
    p.max_requests = 0;
    p.max_log_len = 6;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    p.allowed_reconfigs = {0b10}; // {1,2} -> {2}
    p.bugs.premature_retirement = buggy;
    return p;
  }

  State order_self_removal(const Params& p)
  {
    State s = initial_state(p);
    return must_step(s, [&](const State& st, const Emit<State>& e) {
      actions::change_configuration(p, st, 1, 0b10, e);
    });
  }
}

TEST(ConsensusSpecBug6, PrematureRetirementLosesLiveness)
{
  const Params p = retirement_model(true);
  const State stuck = order_self_removal(p);
  EXPECT_EQ(stuck.node(1).membership, SMembership::Ordered);
  // Node 1 is already silent: it cannot even sign the reconfiguration.
  expect_disabled(stuck, [&](const State& st, const Emit<State>& e) {
    actions::sign(p, st, 1, e);
  });

  // Exhaustively explore everything reachable from here: commit never
  // advances and node 2 never becomes leader.
  auto spec = build_spec(p);
  spec.init = {stuck};
  spec.invariants.push_back(
    {"NoProgressEver", [](const State& s) {
       return s.node(1).commit_index <= 2 && s.node(2).commit_index <= 2 &&
         s.node(2).role != SRole::Leader;
     }});
  const auto result = model_check(spec);
  EXPECT_TRUE(result.ok)
    << (result.counterexample ? result.counterexample->to_string() : "");
  EXPECT_TRUE(result.stats.complete);
}

TEST(ConsensusSpecBug6, FixedRetirementCanComplete)
{
  const Params p = retirement_model(false);
  const State ordered = order_self_removal(p);
  // Reachability of completion, via the standard trick: assert its
  // negation as an invariant and expect a counterexample.
  auto spec = build_spec(p);
  spec.init = {ordered};
  spec.invariants.push_back(
    {"NeverCompletes", [](const State& s) {
       return s.node(1).membership != SMembership::Completed;
     }});
  CheckLimits limits;
  limits.max_distinct_states = 2'000'000;
  limits.time_budget_seconds = 600.0;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample->property, "NeverCompletes");
  // The witness ends with node 1 fully retired.
  const State& final = result.counterexample->steps.back().state;
  EXPECT_EQ(final.node(1).membership, SMembership::Completed);
}

// ---------------------------------------------------------------------------
// ProposeVote (transition ④): the retiring leader hands over.
// ---------------------------------------------------------------------------

TEST(ConsensusSpec, RetiringLeaderProposesVoteAndSuccessorCampaigns)
{
  namespace a = actions;
  const Params p = retirement_model(false);
  State s = order_self_removal(p);
  const auto step = [&](auto fn) { s = must_step(s, fn); };

  step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
  // Replicate reconfig+sig to node 2 and gather the ACK.
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 2, 2, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 2, find_msg(st, MType::AeReq, 1, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 2, 1), e);
  });
  // Commit the reconfiguration (joint quorum {1,2} + {2}).
  step([&](const State& st, const Emit<State>& e) {
    a::advance_commit(p, st, 1, e);
  });
  EXPECT_EQ(s.node(1).membership, SMembership::Committed);

  // Retirement transaction, signed, replicated, committed.
  step([&](const State& st, const Emit<State>& e) {
    a::append_retirement(p, st, 1, e);
  });
  step([&](const State& st, const Emit<State>& e) { a::sign(p, st, 1, e); });
  step([&](const State& st, const Emit<State>& e) {
    a::append_entries(p, st, 1, 2, 2, e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_request(p, st, 2, find_msg(st, MType::AeReq, 1, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::handle_ae_response(p, st, 1, find_msg(st, MType::AeResp, 2, 1), e);
  });
  step([&](const State& st, const Emit<State>& e) {
    a::advance_commit(p, st, 1, e);
  });
  EXPECT_EQ(s.node(1).membership, SMembership::Completed);
  EXPECT_EQ(s.node(1).role, SRole::Leader); // retires via ProposeVote

  // ProposeVote: nominate node 2 and retire.
  s = must_step(
    s,
    [&](const State& st, const Emit<State>& e) {
      a::propose_vote(p, st, 1, e);
    },
    [](const State& st) { return st.network_size() > 0; });
  EXPECT_EQ(s.node(1).role, SRole::Retired);

  // Node 2 consumes the proposal and campaigns (the spec's Timeout is the
  // candidacy transition; ProposeVote only fast-tracks it in real time).
  step([&](const State& st, const Emit<State>& e) {
    a::handle_propose_vote(
      p, st, 2, find_msg(st, MType::ProposeVote, 1, 2), e);
  });
  step([&](const State& st, const Emit<State>& e) { a::timeout(p, st, 2, e); });
  EXPECT_EQ(s.node(2).role, SRole::Candidate);
  // Sole member of the surviving configuration: wins immediately.
  step([&](const State& st, const Emit<State>& e) {
    a::become_leader(p, st, 2, e);
  });
  EXPECT_EQ(s.node(2).role, SRole::Leader);
}
