// Golden equivalence for the trace validator's one-worker DFS. Each case
// validates a consensus trace with fault composition (drop/duplicate
// before every line) and pins everything the search reports: verdict,
// lines matched, states explored, distinct states, duplicates and memo
// hits, the witness and, for rejected traces, the failed line and the
// diagnostic frontier. Every case runs at threads = 1 and threads = 4 and
// must hit the same pins: the DFS ignores threads. States are pinned as
// FNV-1a of their serialized bytes, folded in order into one chain digest
// per sequence (the first difference anywhere changes it), so the pins say
// nothing about the fingerprint the engines dedup with.
//
// The traces cover a happy path, an election, a duplicated delivery that
// only fault composition bridges, a nemesis fault schedule, a long chaotic
// run that hits the state cap (no verdict; the diagnostics are pinned),
// and a forged election that the search rejects after exhausting every
// fault interleaving of the prefix before it.
//
// BFS cases (no fault composition, threads = 1) pin the verdict, lines
// matched, distinct states, per-line frontier sizes and the witness.
#include <gtest/gtest.h>

#include "driver/cluster.h"
#include "driver/nemesis.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::driver;
using namespace scv::trace;
using specs::ccfraft::State;

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

  specs::ccfraft::Params three_node_params()
  {
    return validation_params({1, 2, 3}, 1, 3);
  }

  void run_ticks(Cluster& c, int ticks)
  {
    for (int i = 0; i < ticks; ++i)
    {
      c.tick_all();
      c.drain();
    }
  }

  /// FNV-1a of a state's serialized bytes.
  uint64_t state_hash(const State& s)
  {
    ByteSink sink;
    s.serialize(sink);
    return fnv1a(sink.bytes().data(), sink.bytes().size());
  }

  /// Per-state hashes folded in order.
  uint64_t chain_hash(const std::vector<State>& states)
  {
    uint64_t h = fnv1a_init;
    for (const State& s : states)
    {
      const uint64_t v = state_hash(s);
      h = fnv1a(reinterpret_cast<const uint8_t*>(&v), sizeof(v), h);
    }
    return h;
  }

  /// chain_hash of an empty sequence.
  constexpr uint64_t no_states = fnv1a_init;

  struct Golden
  {
    bool ok;
    size_t lines_matched;
    uint64_t states_explored;
    uint64_t distinct;
    uint64_t duplicates;
    uint64_t memo_hits;
    size_t witness_size;
    uint64_t witness_hash;
    const char* failed_line;
    size_t frontier_size;
    uint64_t frontier_hash;
  };

  void expect_golden(
    const spec::ValidationResult<State>& r, const Golden& g)
  {
    EXPECT_EQ(r.ok, g.ok);
    EXPECT_EQ(r.lines_matched, g.lines_matched);
    EXPECT_EQ(r.states_explored, g.states_explored);
    EXPECT_EQ(r.stats.distinct_states, g.distinct);
    EXPECT_EQ(r.stats.duplicate_states, g.duplicates);
    EXPECT_EQ(r.stats.memo_hits, g.memo_hits);
    EXPECT_EQ(r.witness.size(), g.witness_size);
    EXPECT_EQ(chain_hash(r.witness), g.witness_hash);
    EXPECT_EQ(r.failed_line, g.failed_line);
    EXPECT_EQ(r.frontier_at_failure.size(), g.frontier_size);
    EXPECT_EQ(chain_hash(r.frontier_at_failure), g.frontier_hash);
  }

  /// Validates at threads = 1 and threads = 4; both runs must hit `g`.
  void expect_dfs_golden(
    const std::vector<TraceEvent>& events,
    const specs::ccfraft::Params& params,
    const Golden& g,
    uint64_t max_states = UINT64_MAX)
  {
    for (const unsigned threads : {1u, 4u})
    {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      ConsensusValidationOptions o;
      o.fault_composition = true;
      o.search.mode = spec::SearchMode::Dfs;
      o.search.threads = threads;
      o.search.max_states = max_states;
      expect_golden(validate_consensus_trace(events, params, o), g);
    }
  }

  struct BfsGolden
  {
    bool ok;
    size_t lines_matched;
    uint64_t distinct;
    size_t lines_expanded;
    size_t frontier_total;
    uint64_t frontier_hash;
    size_t witness_size;
    uint64_t witness_hash;
    const char* failed_line;
  };

  /// FNV-1a of the per-line BFS frontier sizes, folded in order.
  uint64_t sizes_hash(const std::vector<size_t>& sizes)
  {
    uint64_t h = fnv1a_init;
    for (const size_t n : sizes)
    {
      const uint64_t v = n;
      h = fnv1a(reinterpret_cast<const uint8_t*>(&v), sizeof(v), h);
    }
    return h;
  }

  /// BFS at threads = 1 with no fault composition.
  void expect_bfs_golden(
    const std::vector<TraceEvent>& events,
    const specs::ccfraft::Params& params,
    const BfsGolden& g)
  {
    ConsensusValidationOptions o;
    o.search.mode = spec::SearchMode::Bfs;
    o.search.threads = 1;
    const auto r = validate_consensus_trace(events, params, o);
    size_t total = 0;
    for (const size_t n : r.frontier_sizes)
    {
      total += n;
    }
    EXPECT_EQ(r.ok, g.ok);
    EXPECT_EQ(r.lines_matched, g.lines_matched);
    EXPECT_EQ(r.stats.distinct_states, g.distinct);
    EXPECT_EQ(r.frontier_sizes.size(), g.lines_expanded);
    EXPECT_EQ(total, g.frontier_total);
    EXPECT_EQ(sizes_hash(r.frontier_sizes), g.frontier_hash);
    EXPECT_EQ(r.witness.size(), g.witness_size);
    EXPECT_EQ(chain_hash(r.witness), g.witness_hash);
    EXPECT_EQ(r.failed_line, g.failed_line);
  }

  std::vector<TraceEvent> happy_path_trace()
  {
    Cluster c(three_nodes(101));
    c.submit("hello");
    c.sign();
    run_ticks(c, 40);
    return c.trace();
  }

  std::vector<TraceEvent> election_trace()
  {
    Cluster c(three_nodes(103));
    c.submit("pre");
    c.sign();
    run_ticks(c, 30);
    c.crash(1);
    run_ticks(c, 80);
    return c.trace();
  }

  /// Leader 1 replicates two windows to node 2, then the network
  /// re-delivers the first window after node 2 moved past it; the second
  /// copy is not in the trace, so only a duplicate fault step explains it.
  std::vector<TraceEvent> duplicate_delivery_trace()
  {
    Cluster c(three_nodes(119));
    c.node(1).client_request("x");
    c.tick(1);
    consensus::Message dup;
    for (const auto& env : c.network().pending())
    {
      if (
        env.from == 1 && env.to == 2 &&
        std::holds_alternative<consensus::AppendEntriesRequest>(env.payload))
      {
        dup = env.payload;
      }
    }
    c.deliver_on_link(1, 2);
    c.node(1).emit_signature();
    c.tick(1);
    c.deliver_on_link(1, 2);
    Rng rng(1);
    c.network().send(1, 2, dup, c.now(), rng);
    c.deliver_on_link(1, 2);
    return c.trace();
  }

  /// Four nodes, random load, forced elections, a reconfiguration and a
  /// crash over `steps` steps.
  std::vector<TraceEvent> chaotic_trace(int steps = 900)
  {
    ClusterOptions o;
    o.initial_config = {1, 2, 3, 4};
    o.initial_leader = 1;
    o.seed = 131;
    Cluster c(o);
    Rng rng(131 * 271);
    bool crashed_one = false;
    for (int step = 0; step < steps; ++step)
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
    return c.trace();
  }

  /// The first nemesis schedule of seed 2026 that runs: crashes,
  /// partitions, loss and duplication, as in the tracecheck benchmark.
  std::pair<std::vector<TraceEvent>, specs::ccfraft::Params> nemesis_trace()
  {
    nemesis::NemesisOptions nopts;
    nopts.seed = 2026;
    nopts.min_ops = 6;
    nopts.max_ops = 12;
    const nemesis::Nemesis nemesis(nopts);
    for (uint64_t run = 0;; ++run)
    {
      const auto schedule = nemesis.generate(run);
      auto out = nemesis.execute(schedule);
      if (out.script_error || out.violation)
      {
        continue;
      }
      std::vector<uint64_t> config(
        schedule.initial_config.begin(), schedule.initial_config.end());
      return {
        std::move(out.trace),
        validation_params(
          config,
          schedule.initial_leader,
          static_cast<uint8_t>(schedule.max_node),
          nopts.node_template.bugs)};
    }
  }
}

TEST(ValidatorGolden, HappyPath)
{
  expect_dfs_golden(
    happy_path_trace(),
    three_node_params(),
    {true, 129, 428, 129, 0, 0, 130, 0x82d629cb60d92ef1ULL, "", 0, no_states});
}

TEST(ValidatorGolden, Election)
{
  expect_dfs_golden(
    election_trace(),
    three_node_params(),
    {true, 229, 1262, 229, 0, 0, 230, 0x3b28955215055628ULL, "", 0, no_states});
}

TEST(ValidatorGolden, DuplicateDeliveryBridgedByFaults)
{
  expect_dfs_golden(
    duplicate_delivery_trace(),
    three_node_params(),
    {true, 12, 1730, 714, 952, 952, 13, 0x5f9258ef22018715ULL, "", 0, no_states});
}

TEST(ValidatorGolden, LongChaoticRun)
{
  expect_dfs_golden(
    chaotic_trace(),
    validation_params({1, 2, 3, 4}, 1, 4),
    {false,
     510,
     20022,
     511,
     0,
     0,
     0,
     no_states,
     "sndRV node=2 peer=3 term=10 len=15 commit=7 msg_term=10",
     1,
     0xa650ddb76bb32d28ULL},
    20000);
}

TEST(ValidatorGolden, NemesisRun)
{
  const auto [events, params] = nemesis_trace();
  expect_dfs_golden(
    events,
    params,
    {true, 215, 1196, 215, 0, 0, 216, 0x359edb624d036379ULL, "", 0, no_states},
    20000);
}

TEST(ValidatorGolden, ForgedElectionRejected)
{
  Cluster c(three_nodes(117));
  c.submit("x");
  c.sign();
  run_ticks(c, 30);
  auto events = c.trace();
  TraceEvent forged;
  forged.kind = EventKind::BecomeLeader;
  forged.node = 3;
  forged.term = 9;
  forged.log_len = 4;
  forged.commit_idx = 4;
  events.insert(
    events.begin() + static_cast<ptrdiff_t>(events.size() / 8), forged);
  expect_dfs_golden(
    events,
    three_node_params(),
    {false,
     13,
     213522,
     54769,
     158754,
     158754,
     0,
     no_states,
     "becomeLeader node=3 term=9 len=4 commit=4",
     8,
     0xb137d908dc21aafdULL});
}

TEST(ValidatorGolden, BfsWithoutFaults)
{
  // The happy path and the election keep a one-state frontier; the
  // chaotic run branches; the duplicated delivery is rejected, since
  // only a fault step explains it.
  expect_bfs_golden(
    election_trace(),
    three_node_params(),
    {true, 229, 230, 229, 229, 0xead749e9eb5743e4ULL, 230,
     0x3b28955215055628ULL, ""});
  expect_bfs_golden(
    chaotic_trace(),
    validation_params({1, 2, 3, 4}, 1, 4),
    {true, 3548, 3564, 3548, 3563, 0x346c1ba6b18a9046ULL, 3549,
     0xb6327604ef7534f1ULL, ""});
  expect_bfs_golden(
    duplicate_delivery_trace(),
    three_node_params(),
    {false, 10, 11, 11, 10, 0x142cf8de3fb77d65ULL, 0, no_states,
     "recvAE node=2 peer=1 term=1 len=4 commit=2 msg_term=1"});
}

TEST(ValidatorGolden, TraceBeyondSpecDomainIsInconclusive)
{
  // 3,000 chaotic steps grow the log past the 255 entries the spec's
  // 8-bit indices can hold. The validator must give no verdict rather
  // than throw or reject, and name the first event out of range.
  const auto r = validate_consensus_trace(
    chaotic_trace(3000), validation_params({1, 2, 3, 4}, 1, 4));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.lines_matched, 0u);
  EXPECT_EQ(r.states_explored, 0u);
  EXPECT_EQ(
    r.failed_line,
    "line 10483 (clientRequest node=4 term=241 len=256 commit=254): "
    "log_len = 256 exceeds the spec's bound 255");
}

