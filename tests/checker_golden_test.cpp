// Golden equivalence for the model checker's BFS kernel. The pinned
// values are what the strictly sequential FIFO engine produced on these
// models before threads = 1 was routed through the kernel at one worker:
// verdicts, distinct/generated/duplicate counts and depths on the Table-1
// model and the symmetric n=3 model, and the exact counterexamples
// (actions and state hashes) for two Table-2 bug specs. At four
// workers the search order differs, so only the order-independent parts
// are pinned: verdict, distinct count, canonicalizations and the
// (level-minimal) counterexample depth.
#include <gtest/gtest.h>

#include "spec/model_checker.h"
#include "specs/consensus/spec.h"

using namespace scv;
using namespace scv::spec;
using specs::ccfraft::State;

namespace
{
  /// The Table-1 model (bench/table1_consensus, perfbench modelcheck).
  specs::ccfraft::Params table1_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 2;
    p.max_copies = 1;
    return p;
  }

  /// The symmetry ablation model: n=3 with the permutation-closed init
  /// set (bench/symmetry_ablation, perfbench modelcheck-sym).
  SpecDef<State> symmetric_spec()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 3;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 3;
    p.max_batch = 1;
    p.max_network = 1;
    p.max_copies = 1;
    auto spec = specs::ccfraft::build_spec(p);
    spec.init = specs::ccfraft::all_initial_states(p);
    return spec;
  }

  /// Table 2, "Commit advance on AE-NACK" (bench/table2_bugs).
  specs::ccfraft::Params nack_bug_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 1;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    p.bugs.nack_overwrites_match_index = true;
    return p;
  }

  /// Table 2, the bad fix that clears committable indices on election.
  specs::ccfraft::Params bad_fix_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 5;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    p.bugs.clear_committable_on_election = true;
    return p;
  }

  CheckResult<State> check(
    const SpecDef<State>& spec, unsigned threads, bool symmetry = false)
  {
    CheckLimits limits;
    limits.threads = threads;
    limits.symmetry = symmetry;
    limits.time_budget_seconds = 600.0;
    return model_check(spec, limits);
  }

  struct Step
  {
    const char* action;
    uint64_t state_hash;
  };

  /// FNV-1a of a state's serialized bytes: pins the state itself, not the
  /// fingerprint function the engines dedup with.
  uint64_t state_hash(const State& s)
  {
    ByteSink sink;
    s.serialize(sink);
    return fnv1a(sink.bytes().data(), sink.bytes().size());
  }

  void expect_counterexample(
    const CheckResult<State>& result,
    const std::string& property,
    const std::vector<Step>& golden)
  {
    ASSERT_FALSE(result.ok);
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_EQ(result.counterexample->property, property);
    const auto& steps = result.counterexample->steps;
    ASSERT_EQ(steps.size(), golden.size());
    for (size_t i = 0; i < steps.size(); ++i)
    {
      EXPECT_EQ(steps[i].action, golden[i].action) << "step " << i;
      EXPECT_EQ(state_hash(steps[i].state), golden[i].state_hash)
        << "step " << i;
    }
  }

  const std::vector<Step> nack_bug_cex = {
    {"<init>", 0x26bdcb3cbc992eadULL},
    {"ClientRequest", 0x6ed6df9c113da105ULL},
    {"AppendEntries", 0x9658d8b55d7c4ffaULL},
    {"AppendEntries", 0x40c0b3187b5c84fcULL},
    {"HandleAppendEntriesRequest", 0x554b917590beb107ULL},
    {"HandleAppendEntriesRequest", 0x71c0963a0c721ea9ULL},
    {"HandleAppendEntriesResponse", 0xcb8994aed52ee14bULL},
    {"HandleAppendEntriesResponse", 0x85d58a74beade878ULL},
  };

  const std::vector<Step> bad_fix_cex = {
    {"<init>", 0x26bdcb3cbc992eadULL},
    {"ClientRequest", 0x6ed6df9c113da105ULL},
    {"CheckQuorum", 0xe064025543143775ULL},
    {"Timeout", 0x7736b471a2646ed2ULL},
    {"RequestVote", 0xe421488294029a11ULL},
    {"UpdateTerm", 0xd7571198948b6248ULL},
    {"HandleRequestVoteRequest", 0x1f2fd2802273bae3ULL},
    {"HandleRequestVoteResponse", 0x08f67dcf379eb0f8ULL},
    {"BecomeLeader", 0x26b53c3250d96d92ULL},
    {"SignCommittableMessages", 0x7d659989a57b6606ULL},
  };
}

TEST(CheckerGolden, Table1ModelSingleWorker)
{
  const auto r = check(specs::ccfraft::build_spec(table1_model()), 1);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.distinct_states, 546356u);
  EXPECT_EQ(r.stats.generated_states, 1121210u);
  EXPECT_EQ(r.stats.duplicate_states, 574854u);
  EXPECT_EQ(r.stats.max_depth, 32u);
}

TEST(CheckerGolden, Table1ModelFourWorkers)
{
  const auto r = check(specs::ccfraft::build_spec(table1_model()), 4);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.distinct_states, 546356u);
}

// Dedup trusts the 64-bit fingerprint alone, so a collision on the real
// state space would merge two states and lower the count. The pinned
// count was taken when the store still compared state bodies on every
// fingerprint hit: equal counts mean the fingerprint separates all
// 546,356 states. TLC's estimate of the risk is reported beside them.
TEST(CheckerGolden, Table1ModelFingerprintOnly)
{
  CheckLimits limits;
  limits.threads = 4;
  limits.time_budget_seconds = 600.0;
  const auto r =
    model_check(specs::ccfraft::build_spec(table1_model()), limits);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.distinct_states, 546356u);
  EXPECT_DOUBLE_EQ(
    r.stats.fp_collision_probability,
    546356.0 * 574854.0 / 18446744073709551616.0);
}

TEST(CheckerGolden, SymmetricModelSingleWorker)
{
  const auto r = check(symmetric_spec(), 1, true);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.distinct_states, 245480u);
  EXPECT_EQ(r.stats.generated_states, 389144u);
  EXPECT_EQ(r.stats.duplicate_states, 143673u);
  EXPECT_EQ(r.stats.max_depth, 32u);
  EXPECT_EQ(r.stats.canonicalized_states, 389153u);
}

// Every generated state is canonicalized exactly once whichever worker
// takes it, so the per-worker counter slots must sum to the one-worker
// count.
TEST(CheckerGolden, SymmetricModelFourWorkers)
{
  const auto r = check(symmetric_spec(), 4, true);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.distinct_states, 245480u);
  EXPECT_EQ(r.stats.canonicalized_states, 389153u);
}

TEST(CheckerGolden, NackBugCounterexample)
{
  const auto spec = specs::ccfraft::build_spec(nack_bug_model());
  const auto one = check(spec, 1);
  expect_counterexample(one, "MonotonicMatchIndexProp", nack_bug_cex);
  EXPECT_EQ(one.stats.distinct_states, 1534u);
  EXPECT_EQ(one.stats.generated_states, 2718u);

  const auto four = check(spec, 4);
  ASSERT_FALSE(four.ok);
  ASSERT_TRUE(four.counterexample.has_value());
  EXPECT_EQ(four.counterexample->property, "MonotonicMatchIndexProp");
  EXPECT_EQ(four.counterexample->steps.size(), nack_bug_cex.size());
}

TEST(CheckerGolden, BadFixCounterexample)
{
  const auto spec = specs::ccfraft::build_spec(bad_fix_model());
  const auto one = check(spec, 1);
  expect_counterexample(one, "MonoLogInv", bad_fix_cex);
  EXPECT_EQ(one.stats.distinct_states, 23314u);
  EXPECT_EQ(one.stats.generated_states, 55162u);

  const auto four = check(spec, 4);
  ASSERT_FALSE(four.ok);
  ASSERT_TRUE(four.counterexample.has_value());
  EXPECT_EQ(four.counterexample->property, "MonoLogInv");
  EXPECT_EQ(four.counterexample->steps.size(), bad_fix_cex.size());
}
