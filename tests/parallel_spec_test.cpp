// Tests for the parallel exploration engine: the sharded fingerprint
// store's ID scheme and dedup, the checker's per-worker level arenas, the
// persistent
// worker pool, threads=1 equivalence between the checker's private-store
// and shared-store routes, and multi-worker runs finding the same
// violations and covering the same state space as single-worker runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "counted_state.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "specs/consensus/spec.h"

using namespace scv;
using namespace scv::spec;

namespace
{
  struct CounterState
  {
    int value = 0;

    bool operator==(const CounterState&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u64(static_cast<uint64_t>(value));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "value=" + std::to_string(value);
    }
  };

  SpecDef<CounterState> counter_spec(int max)
  {
    SpecDef<CounterState> def;
    def.name = "counter";
    def.init = {CounterState{0}};
    def.actions.push_back(
      {"Increment",
       [max](const CounterState& s, const Emit<CounterState>& emit) {
         if (s.value < max)
         {
           emit(CounterState{s.value + 1});
         }
       },
       1.0});
    return def;
  }

  // Die Hard jugs puzzle: known 16-state space, known 7-step solution.
  struct Jugs
  {
    int small = 0; // capacity 3
    int big = 0; // capacity 5

    bool operator==(const Jugs&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u8(static_cast<uint8_t>(small));
      sink.u8(static_cast<uint8_t>(big));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "small=" + std::to_string(small) + " big=" + std::to_string(big);
    }
  };

  SpecDef<Jugs> die_hard_spec()
  {
    SpecDef<Jugs> def;
    def.name = "diehard";
    def.init = {Jugs{}};
    const auto act = [&def](const char* name, auto fn) {
      def.actions.push_back(
        {name,
         [fn](const Jugs& s, const Emit<Jugs>& emit) {
           Jugs next = s;
           fn(next);
           if (!(next == s))
           {
             emit(std::move(next));
           }
         },
         1.0});
    };
    act("FillSmall", [](Jugs& j) { j.small = 3; });
    act("FillBig", [](Jugs& j) { j.big = 5; });
    act("EmptySmall", [](Jugs& j) { j.small = 0; });
    act("EmptyBig", [](Jugs& j) { j.big = 0; });
    act("SmallToBig", [](Jugs& j) {
      const int pour = std::min(j.small, 5 - j.big);
      j.small -= pour;
      j.big += pour;
    });
    act("BigToSmall", [](Jugs& j) {
      const int pour = std::min(j.big, 3 - j.small);
      j.big -= pour;
      j.small += pour;
    });
    def.invariants.push_back(
      {"NotFourGallons", [](const Jugs& j) { return j.big != 4; }});
    return def;
  }

  void expect_same_counterexample(
    const std::optional<Counterexample<CounterState>>& a,
    const std::optional<Counterexample<CounterState>>& b)
  {
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->property, b->property);
    ASSERT_EQ(a->steps.size(), b->steps.size());
    for (size_t i = 0; i < a->steps.size(); ++i)
    {
      EXPECT_EQ(a->steps[i].action, b->steps[i].action);
      EXPECT_EQ(a->steps[i].state, b->steps[i].state);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedStateStore
// ---------------------------------------------------------------------------

TEST(ShardedStateStore, IdEncodingRoundTrips)
{
  ShardedStateStore<CounterState> store(8);
  EXPECT_EQ(store.shard_count(), 8u);
  for (size_t shard = 0; shard < 8; ++shard)
  {
    for (size_t local : {0ull, 1ull, 7ull, 123456ull})
    {
      const auto id = store.encode(shard, local);
      EXPECT_EQ(store.shard_of(id), shard);
      EXPECT_EQ(store.local_of(id), local);
    }
  }
}

TEST(ShardedStateStore, ShardCountRoundsUpToPowerOfTwo)
{
  EXPECT_EQ(ShardedStateStore<CounterState>(1).shard_count(), 1u);
  EXPECT_EQ(ShardedStateStore<CounterState>(3).shard_count(), 4u);
  EXPECT_EQ(ShardedStateStore<CounterState>(5).shard_count(), 8u);
  EXPECT_EQ(ShardedStateStore<CounterState>(16).shard_count(), 16u);
}

TEST(ShardedStateStore, InsertDedupsAndRecordsAreRetrievable)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4);
  const CounterState s1{7};
  const auto first =
    store.insert(fingerprint(s1), Store::no_parent, Store::init_action, 0);
  EXPECT_TRUE(first.inserted);
  const auto again =
    store.insert(fingerprint(s1), Store::no_parent, Store::init_action, 0);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(first.id, again.id);
  EXPECT_EQ(store.size(), 1u);

  const CounterState s2{8};
  const auto child = store.insert(fingerprint(s2), first.id, 0, 1);
  EXPECT_TRUE(child.inserted);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(fingerprint(s2)), child.id);
  EXPECT_EQ(store.find(fingerprint(CounterState{9})), std::nullopt);
  EXPECT_EQ(store.record(child.id).parent, first.id);
  EXPECT_EQ(store.record(child.id).depth, 1u);
  EXPECT_EQ(store.record(first.id).parent, Store::no_parent);
}

// ---------------------------------------------------------------------------
// WorkerPool: persistent threads, the caller as worker 0
// ---------------------------------------------------------------------------

TEST(WorkerPoolReuse, ThousandRunsSeeEveryWorkerOncePerRun)
{
  const WorkerPool pool(4);
  std::array<std::atomic<uint32_t>, 4> hits{};
  for (uint32_t run = 1; run <= 1000; ++run)
  {
    pool.run([&](unsigned w) {
      ASSERT_LT(w, 4u);
      hits[w].fetch_add(1, std::memory_order_relaxed);
    });
    // run() is a barrier: every worker has finished this run's call.
    for (unsigned w = 0; w < 4; ++w)
    {
      ASSERT_EQ(hits[w].load(std::memory_order_relaxed), run) << "worker " << w;
    }
  }
}

TEST(WorkerPoolReuse, ThreadsPersistAcrossRuns)
{
  const WorkerPool pool(3);
  std::array<std::thread::id, 3> first{};
  pool.run([&](unsigned w) { first[w] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], std::this_thread::get_id()); // the caller is worker 0
  EXPECT_NE(first[1], first[2]);
  for (int run = 0; run < 10; ++run)
  {
    pool.run([&](unsigned w) {
      EXPECT_EQ(std::this_thread::get_id(), first[w]) << "worker " << w;
    });
  }
}

TEST(WorkerPoolReuse, SingleWorkerRunsOnCallerThread)
{
  const WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  unsigned calls = 0;
  for (int run = 0; run < 3; ++run)
  {
    pool.run([&](unsigned w) {
      EXPECT_EQ(w, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
  }
  EXPECT_EQ(calls, 3u);
}

TEST(WorkerPoolReuse, DestructorJoinsWithoutAnyRun)
{
  for (int i = 0; i < 20; ++i)
  {
    const WorkerPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
}

TEST(WorkerPoolReuse, CallerExceptionWaitsForWorkersThenRethrows)
{
  const WorkerPool pool(4);
  std::atomic<unsigned> finished{0};
  EXPECT_THROW(
    pool.run([&](unsigned w) {
      if (w == 0)
      {
        throw std::runtime_error("worker 0");
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    }),
    std::runtime_error);
  EXPECT_EQ(finished.load(), 3u);
  // The pool is still usable afterwards.
  pool.run([&](unsigned) { finished.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(finished.load(), 7u);
}

// ---------------------------------------------------------------------------
// Per-worker level arenas over one shared store
// ---------------------------------------------------------------------------

// Four workers insert overlapping ranges into one store, the checker's
// way: a worker moves a state into its own level arena only when the
// store admitted it. Every key is admitted exactly once, its record and
// id survive the race, and each worker's bodies are the states it won.
TEST(BodyArenas, FourWorkerStoreKeepsEveryRecord)
{
  using Store = ShardedStateStore<CounterState>;
  const WorkerPool pool(4);
  Store store(16);
  std::vector<LevelArena<CounterState>> arenas(pool.size());

  struct Admitted
  {
    Store::Id id;
    const CounterState* body;
  };
  std::vector<std::vector<Admitted>> admitted(pool.size());
  pool.run([&](unsigned w) {
    // Worker w covers [w * 500, w * 500 + 1000): neighbours overlap by
    // half, so half of every worker's inserts race a sibling's.
    const int first = static_cast<int>(w) * 500;
    for (int v = first; v < first + 1000; ++v)
    {
      CounterState s{v};
      const auto ins = store.insert(
        fingerprint(s), Store::no_parent, Store::init_action, 0, 1);
      if (ins.inserted)
      {
        admitted[w].push_back({ins.id, arenas[w].emplace(std::move(s))});
      }
    }
  });

  size_t total = 0;
  for (size_t w = 0; w < admitted.size(); ++w)
  {
    EXPECT_EQ(arenas[w].size(), admitted[w].size());
    for (const Admitted& a : admitted[w])
    {
      EXPECT_EQ(store.find(fingerprint(*a.body)), a.id);
      const auto r = store.record(a.id);
      EXPECT_EQ(r.parent, Store::no_parent);
      EXPECT_EQ(r.origin, 1u);
      ++total;
    }
  }
  EXPECT_EQ(total, 2500u); // values 0..2499, each admitted exactly once
  EXPECT_EQ(store.size(), 2500u);

  // Teardown the way the checker does it: each worker frees its arena.
  pool.run([&](unsigned w) { arenas[w].release(); });
}

TEST(BodyArenas, ClearEmptiesArenasAndStoreStaysUsable)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(2);
  std::array<LevelArena<CounterState>, 2> arenas;
  for (int v = 0; v < 100; ++v)
  {
    CounterState s{v};
    if (store.insert(fingerprint(s), Store::no_parent, Store::init_action, 0)
          .inserted)
    {
      (void)arenas[v % 2].emplace(std::move(s));
    }
  }
  for (auto& arena : arenas)
  {
    arena.reset();
    EXPECT_EQ(arena.size(), 0u);
  }
  // The store keeps its records; the reset arenas take new bodies.
  EXPECT_EQ(store.size(), 100u);
  CounterState s{700};
  const auto ins =
    store.insert(fingerprint(s), Store::no_parent, Store::init_action, 0);
  ASSERT_TRUE(ins.inserted);
  EXPECT_EQ(store.find(fingerprint(s)), ins.id);
  EXPECT_EQ(arenas[1].emplace(std::move(s))->value, 700);
}

// ---------------------------------------------------------------------------
// One worker over an attached (empty) external store — the route campaign
// runs take — must reproduce the private-store single-worker run, the
// FIFO reference order.
// ---------------------------------------------------------------------------

namespace
{
  template <class S>
  CheckResult<S> check_frontier_path(const SpecDef<S>& spec, CheckLimits limits)
  {
    ShardedStateStore<S> store(1);
    ModelChecker<S> checker(spec, limits);
    checker.attach_store(&store, EngineId::Checker);
    return checker.check();
  }
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialOnCleanSpec)
{
  const auto spec = counter_spec(100);
  const auto sequential = ModelChecker<CounterState>(spec).check();
  CheckLimits limits;
  limits.threads = 1;
  const auto parallel = check_frontier_path(spec, limits);
  EXPECT_TRUE(parallel.ok);
  EXPECT_TRUE(parallel.stats.complete);
  EXPECT_EQ(parallel.stats.distinct_states, sequential.stats.distinct_states);
  EXPECT_EQ(parallel.stats.generated_states, sequential.stats.generated_states);
  EXPECT_EQ(parallel.stats.transitions, sequential.stats.transitions);
  EXPECT_EQ(parallel.stats.max_depth, sequential.stats.max_depth);
  EXPECT_EQ(parallel.stats.action_coverage, sequential.stats.action_coverage);
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialCounterexample)
{
  auto spec = counter_spec(10);
  spec.invariants.push_back(
    {"BelowFive", [](const CounterState& s) { return s.value < 5; }});
  const auto sequential = ModelChecker<CounterState>(spec).check();
  CheckLimits limits;
  limits.threads = 1;
  const auto parallel = check_frontier_path(spec, limits);
  ASSERT_FALSE(sequential.ok);
  ASSERT_FALSE(parallel.ok);
  EXPECT_EQ(
    parallel.stats.distinct_states, sequential.stats.distinct_states);
  expect_same_counterexample(parallel.counterexample, sequential.counterexample);
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialActionProperty)
{
  auto spec = counter_spec(10);
  spec.actions.push_back(
    {"Decrement",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value > 0)
       {
         emit(CounterState{s.value - 1});
       }
     },
     1.0});
  spec.action_properties.push_back(
    {"Monotonic", [](const CounterState& a, const CounterState& b) {
       return b.value >= a.value;
     }});
  const auto sequential = ModelChecker<CounterState>(spec).check();
  CheckLimits limits;
  limits.threads = 1;
  const auto parallel = check_frontier_path(spec, limits);
  ASSERT_FALSE(sequential.ok);
  ASSERT_FALSE(parallel.ok);
  EXPECT_EQ(parallel.stats.generated_states, sequential.stats.generated_states);
  expect_same_counterexample(parallel.counterexample, sequential.counterexample);
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialDieHard)
{
  const auto spec = die_hard_spec();
  const auto sequential = ModelChecker<Jugs>(spec).check();
  CheckLimits limits;
  limits.threads = 1;
  const auto parallel = check_frontier_path(spec, limits);
  ASSERT_FALSE(parallel.ok);
  ASSERT_TRUE(parallel.counterexample.has_value());
  EXPECT_EQ(parallel.counterexample->steps.size(), 7u);
  EXPECT_EQ(parallel.counterexample->steps.back().state.big, 4);
  ASSERT_TRUE(sequential.counterexample.has_value());
  ASSERT_EQ(
    sequential.counterexample->steps.size(),
    parallel.counterexample->steps.size());
  for (size_t i = 0; i < parallel.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(
      parallel.counterexample->steps[i].action,
      sequential.counterexample->steps[i].action);
    EXPECT_EQ(
      parallel.counterexample->steps[i].state,
      sequential.counterexample->steps[i].state);
  }
}

// ---------------------------------------------------------------------------
// ModelChecker: multi-worker behavior (threads > 1 dispatch)
// ---------------------------------------------------------------------------

namespace
{
  SpecDef<Jugs> die_hard_no_invariants()
  {
    auto spec = die_hard_spec();
    spec.invariants.clear();
    return spec;
  }
}

// Clean bounded spec: the explored *set* is deterministic regardless of
// worker count, so the distinct count must match exactly.
TEST(ModelCheckerParallel, FourWorkersExploreExactly16DieHardStates)
{
  CheckLimits limits;
  limits.threads = 4;
  const auto result = model_check(die_hard_no_invariants(), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 16u);
}

TEST(ModelCheckerParallel, FourWorkersFindLevelMinimalViolation)
{
  auto spec = counter_spec(10);
  spec.invariants.push_back(
    {"BelowFive", [](const CounterState& s) { return s.value < 5; }});
  CheckLimits limits;
  limits.threads = 4;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "BelowFive");
  // BFS levels are processed in order: the violation is level-minimal.
  EXPECT_EQ(result.counterexample->steps.size(), 6u);
  EXPECT_EQ(result.counterexample->steps.back().state.value, 5);
}

TEST(ModelCheckerParallel, LimitsRespectedAtFourWorkers)
{
  CheckLimits limits;
  limits.threads = 4;
  limits.max_distinct_states = 50;
  const auto result = model_check(counter_spec(10000), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.stats.complete);
  // Workers stop claiming items once the limit trips; in-flight expansions
  // may add at most one level of slack.
  EXPECT_GE(result.stats.distinct_states, 50u);
  EXPECT_LE(result.stats.distinct_states, 60u);
}

TEST(ModelCheckerParallel, DepthLimitRespectedAtFourWorkers)
{
  CheckLimits limits;
  limits.threads = 4;
  limits.max_depth = 3;
  const auto result = model_check(counter_spec(1000), limits);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 4u); // 0..3
}

// Stress: the bounded consensus spec with a re-injected historical bug
// (bug 3, commit-advance-on-NACK) must produce the same verdict and the
// same violated property at 1 and at 4 workers; the fixed spec must cover
// the identical state space at both worker counts.
namespace
{
  specs::ccfraft::Params nack_bug_model(bool buggy)
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 1;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    p.bugs.nack_overwrites_match_index = buggy;
    return p;
  }
}

TEST(ModelCheckerParallel, ConsensusBugFoundAtOneAndFourWorkers)
{
  const auto spec = specs::ccfraft::build_spec(nack_bug_model(true));
  for (const unsigned threads : {1u, 4u})
  {
    CheckLimits limits;
    limits.threads = threads;
    limits.time_budget_seconds = 600.0;
    const auto result = model_check(spec, limits);
    ASSERT_FALSE(result.ok) << "threads=" << threads;
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_EQ(result.counterexample->property, "MonotonicMatchIndexProp")
      << "threads=" << threads;
    // Spot-check the trace is well-formed: starts at an init state and
    // every step names a real action.
    EXPECT_EQ(result.counterexample->steps.front().action, "<init>");
    for (size_t i = 1; i < result.counterexample->steps.size(); ++i)
    {
      EXPECT_FALSE(result.counterexample->steps[i].action.empty());
    }
  }
}

TEST(ModelCheckerParallel, ConsensusCleanSpecSameCoverageAtFourWorkers)
{
  const auto spec = specs::ccfraft::build_spec(nack_bug_model(false));
  CheckLimits limits;
  limits.time_budget_seconds = 600.0;
  limits.threads = 1;
  const auto one = model_check(spec, limits);
  limits.threads = 4;
  const auto four = model_check(spec, limits);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(four.ok);
  ASSERT_TRUE(one.stats.complete);
  ASSERT_TRUE(four.stats.complete);
  EXPECT_EQ(four.stats.distinct_states, one.stats.distinct_states);
  EXPECT_EQ(four.stats.transitions, one.stats.transitions);
  EXPECT_EQ(four.stats.action_coverage, one.stats.action_coverage);
}

// ---------------------------------------------------------------------------
// Simulator: fan-out behavior (threads > 1 dispatch)
// ---------------------------------------------------------------------------

namespace
{
  /// A simulation run and the fingerprints of every state it visited,
  /// collected through the observer hook.
  template <class S>
  struct ObservedRun
  {
    SimResult<S> result;
    std::set<uint64_t> visited;
  };

  template <class S>
  ObservedRun<S> observed_run(
    const SpecDef<S>& spec, const SimOptions& options)
  {
    ObservedRun<S> run;
    Simulator<S> sim(spec, options);
    sim.set_observer(
      [&run](const S& s) { run.visited.insert(fingerprint(s)); });
    run.result = sim.run();
    return run;
  }
}

TEST(SimulatorFanout, SingleWorkerMatchesSequentialSimulator)
{
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 42;
  options.max_behaviors = 50;
  options.max_depth = 10;
  options.time_budget_seconds = 30.0;
  const auto sequential = observed_run(spec, options);
  options.threads = 1;
  const auto parallel = observed_run(spec, options);
  EXPECT_EQ(parallel.result.ok, sequential.result.ok);
  EXPECT_EQ(parallel.result.behaviors, sequential.result.behaviors);
  EXPECT_EQ(
    parallel.result.stats.transitions, sequential.result.stats.transitions);
  EXPECT_EQ(
    parallel.result.stats.distinct_states,
    sequential.result.stats.distinct_states);
  EXPECT_EQ(parallel.visited, sequential.visited);
}

TEST(SimulatorFanout, FourWorkersMergeStatsAndCoverage)
{
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 42;
  options.max_behaviors = 40;
  options.max_depth = 10;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto run = observed_run(spec, options);
  const auto& result = run.result;
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.behaviors, 40u); // shares sum to the requested budget
  EXPECT_GT(result.stats.transitions, 0u);
  // Distinct counts are a union, not a sum: never more than the 16
  // reachable states of the puzzle.
  EXPECT_LE(result.stats.distinct_states, 16u);
  EXPECT_GT(result.stats.distinct_states, 0u);
  EXPECT_EQ(run.visited.size(), result.stats.distinct_states);
}

TEST(SimulatorFanout, WorkerSeedsAreIndependent)
{
  // The same worker count and base seed reproduce the same merged
  // behavior count and coverage (stop-flag timing cannot differ on a
  // violation-free spec).
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 7;
  options.max_behaviors = 32;
  options.max_depth = 8;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto a = observed_run(spec, options);
  const auto b = observed_run(spec, options);
  EXPECT_EQ(a.result.behaviors, b.result.behaviors);
  EXPECT_EQ(a.result.stats.transitions, b.result.stats.transitions);
  EXPECT_EQ(a.visited, b.visited);
}

// Every visited state (a walk start or a transition's target) goes
// through the one store once: it is either a first discovery or a
// duplicate, at any worker count.
TEST(SimulatorFanout, VisitedStatesAreDistinctPlusDuplicates)
{
  const auto spec = die_hard_no_invariants();
  for (const unsigned threads : {1u, 4u})
  {
    SimOptions options;
    options.seed = 3;
    options.max_behaviors = 64;
    options.max_depth = 12;
    options.time_budget_seconds = 30.0;
    options.threads = threads;
    const auto result = simulate(spec, options);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(
      result.stats.distinct_states + result.stats.duplicate_states,
      result.behaviors + result.stats.transitions)
      << "threads=" << threads;
    EXPECT_GT(result.stats.duplicate_states, 0u);
    EXPECT_GT(result.stats.fp_collision_probability, 0.0);
    EXPECT_GT(result.stats.store_bytes, 0u);
  }
}

// Fan-out children read the parent's walk seeds in place: a 4-worker run
// over 100 seeds that starts no walk copies no state.
TEST(SimulatorFanout, ChildrenShareTheWalkSeeds)
{
  using test::CountedState;
  SpecDef<CountedState> spec;
  spec.name = "counted";
  spec.init = {CountedState{0}};
  spec.actions.push_back(
    {"Step", [](const CountedState& s, const Emit<CountedState>& emit) {
       emit(CountedState{s.value + 1});
     }});
  std::vector<CountedState> seeds;
  for (int i = 1; i <= 100; ++i)
  {
    seeds.emplace_back(i);
  }

  SimOptions options;
  options.max_behaviors = 0;
  options.threads = 4;
  Simulator<CountedState> idle(spec, options);
  idle.set_walk_seeds(seeds);
  CountedState::reset_counts();
  const auto result = idle.run();
  EXPECT_EQ(result.behaviors, 0u);
  EXPECT_EQ(CountedState::copies, 0);

  // The children do start from the parent's seeds when they walk
  // (CountedState's counters are not thread-safe, so this half walks a
  // plain counter).
  options.max_behaviors = 8;
  options.max_depth = 2;
  const auto counter = counter_spec(100);
  Simulator<CounterState> seeded(counter, options);
  seeded.set_walk_seeds({CounterState{5}, CounterState{50}});
  int min_seen = 1 << 30;
  seeded.set_observer([&min_seen](const CounterState& s) {
    min_seen = std::min(min_seen, s.value);
  });
  const auto walked = seeded.run();
  EXPECT_EQ(walked.behaviors, 8u);
  EXPECT_EQ(walked.stats.seeded_states, 8u);
  EXPECT_EQ(min_seen, 5);
}

TEST(SimulatorFanout, FourWorkersFindViolation)
{
  auto spec = counter_spec(20);
  spec.invariants.push_back(
    {"BelowTen", [](const CounterState& s) { return s.value < 10; }});
  SimOptions options;
  options.seed = 5;
  options.max_depth = 30;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto result = simulate(spec, options);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "BelowTen");
  EXPECT_EQ(result.counterexample->steps.back().state.value, 10);
}

TEST(SimulatorFanout, ObserverSeesStatesFromAllWorkers)
{
  const auto spec = counter_spec(5);
  SimOptions options;
  options.seed = 11;
  options.max_behaviors = 20;
  options.max_depth = 5;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  Simulator<CounterState> sim(spec, options);
  uint64_t observed = 0;
  sim.set_observer([&observed](const CounterState&) { ++observed; });
  const auto result = sim.run();
  EXPECT_TRUE(result.ok);
  // One observation per walk start plus one per transition.
  EXPECT_EQ(observed, result.behaviors + result.stats.transitions);
}

// model_check() dispatch: the threads field routes to the same results.
TEST(ModelCheckDispatch, ThreadsFieldRoutesBothEngines)
{
  auto spec = counter_spec(50);
  CheckLimits limits;
  limits.threads = 1;
  const auto seq = model_check(spec, limits);
  limits.threads = 2;
  const auto par = model_check(spec, limits);
  EXPECT_TRUE(seq.ok);
  EXPECT_TRUE(par.ok);
  EXPECT_EQ(seq.stats.distinct_states, 51u);
  EXPECT_EQ(par.stats.distinct_states, 51u);
}

