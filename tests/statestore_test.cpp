// Tests for the state store (docs/SPEC.md "State store"): the flat
// open-addressing fingerprint index, dedup by fingerprint alone, the
// checker's level arenas, exact replay of counterexamples and witnesses,
// an exactness oracle (a naive BFS over serialized states) for the
// distinct counts, per-shard disk spill round-trips, and rehash under
// concurrent insert (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "counted_state.h"
#include "driver/cluster.h"
#include "spec/flat_fp_table.h"
#include "spec/model_checker.h"
#include "spec/sharded_state_store.h"
#include "spec/trace_validator.h"
#include "specs/consensus/spec.h"
#include "specs/consistency/spec.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"

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

  /// A state whose fingerprint is only its low byte: 256 possible
  /// fingerprints, so distinct states collide constantly — the forcing
  /// house for fingerprint conflation.
  struct NarrowFpState
  {
    int value = 0;

    bool operator==(const NarrowFpState&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u8(static_cast<uint8_t>(value & 0xFF));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "narrow=" + std::to_string(value);
    }
  };

  std::string make_spill_dir()
  {
    char tmpl[] = "/tmp/scv-statestore-test-XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir != nullptr ? std::string(dir) : std::string();
  }
}

// ---- FlatFpTable ----

TEST(FlatFpTable, InsertFindContains)
{
  FlatFpTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.contains(42));
  EXPECT_EQ(table.first(42), FlatFpTable::empty_slot);

  table.insert(42, 7);
  table.insert(99, 3);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains(42));
  EXPECT_TRUE(table.contains(99));
  EXPECT_FALSE(table.contains(100));
  EXPECT_EQ(table.first(42), 7u);
  EXPECT_EQ(table.first(99), 3u);
}

TEST(FlatFpTable, DuplicateFingerprintsKeepAllEntries)
{
  // insert() is unconditional: colliding fingerprints coexist and find()
  // visits every one.
  FlatFpTable table;
  table.insert(5, 10);
  table.insert(5, 11);
  table.insert(5, 12);
  EXPECT_EQ(table.size(), 3u);

  std::vector<uint32_t> seen;
  table.find(5, [&](uint32_t local) {
    seen.push_back(local);
    return false; // visit all
  });
  ASSERT_EQ(seen.size(), 3u);
  // first() returns the earliest insertion in probe order.
  EXPECT_EQ(table.first(5), seen.front());

  // Early-exit: stop after the first hit.
  size_t visits = 0;
  table.find(5, [&](uint32_t) {
    visits++;
    return true;
  });
  EXPECT_EQ(visits, 1u);
}

TEST(FlatFpTable, GrowthRehashPreservesEntries)
{
  FlatFpTable table(16);
  const size_t n = 10'000;
  for (size_t i = 0; i < n; ++i)
  {
    table.insert(i * 0x9E3779B97F4A7C15ULL + 1, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), n);
  EXPECT_GT(table.rehash_count(), 0u);
  // Power-of-two capacity, 12 bytes a slot, load factor below 0.65.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_EQ(table.bytes(), table.capacity() * 12);
  EXPECT_GE(table.capacity() * 13, (table.size() + 1) * 20 - table.capacity());
  for (size_t i = 0; i < n; ++i)
  {
    EXPECT_EQ(
      table.first(i * 0x9E3779B97F4A7C15ULL + 1), static_cast<uint32_t>(i))
      << "entry " << i << " lost across rehash";
  }
}

TEST(FlatFpTable, ClearEmptiesWithoutShrinking)
{
  FlatFpTable table;
  for (uint64_t i = 0; i < 100; ++i)
  {
    table.insert(i + 1, static_cast<uint32_t>(i));
  }
  const size_t cap = table.capacity();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), cap);
  EXPECT_FALSE(table.contains(1));
  table.insert(1, 0);
  EXPECT_TRUE(table.contains(1));
}

// ---- Dedup by fingerprint alone ----

TEST(StoreModes, FingerprintOnlyConflatesCollidingStates)
{
  using Store = ShardedStateStore<NarrowFpState>;
  Store store(1);
  size_t inserted = 0;
  for (int i = 0; i < 1000; ++i)
  {
    const NarrowFpState s{i};
    inserted += store
                  .insert(
                    fingerprint(s), Store::no_parent, Store::init_action, 0)
                  .inserted ?
      1 :
      0;
  }
  // 1000 distinct states, at most 256 fingerprints: the TLC trade
  // deliberately conflates — dedup is by fingerprint alone.
  EXPECT_EQ(inserted, 256u);
  EXPECT_EQ(store.size(), 256u);

  // A colliding insert returns the incumbent's id.
  const NarrowFpState first{0};
  const NarrowFpState again{256}; // collides with {0}
  const auto ins = store.insert(
    fingerprint(again), Store::no_parent, Store::init_action, 0);
  EXPECT_FALSE(ins.inserted);
  EXPECT_EQ(store.find(fingerprint(first)), ins.id);
}

// ---- Level arenas: the checker's chunked per-worker body storage ----

TEST(BodyArena, BodyPointersStayValidAcrossChunks)
{
  LevelArena<CounterState> arena;
  // Over four chunks (1024 bodies each).
  const int n = 5000;
  std::vector<const CounterState*> bodies;
  for (int i = 0; i < n; ++i)
  {
    bodies.push_back(arena.emplace(CounterState{i}));
  }
  EXPECT_EQ(arena.size(), static_cast<size_t>(n));
  EXPECT_EQ(arena.bytes(), 5 * LevelArena<CounterState>::chunk_bytes);
  for (int i = 0; i < n; ++i)
  {
    EXPECT_EQ(bodies[static_cast<size_t>(i)]->value, i);
  }
}

TEST(BodyArena, ReleaseAndClearDestroyEveryBody)
{
  using test::CountedState;
  const int live_before = CountedState::live;
  {
    LevelArena<CountedState> arena;
    for (int i = 0; i < 3000; ++i)
    {
      (void)arena.emplace(CountedState{i});
    }
    EXPECT_EQ(CountedState::live, live_before + 3000);
    const size_t chunk_bytes = arena.bytes();

    // reset() destroys the bodies and keeps the chunks for reuse.
    arena.reset();
    EXPECT_EQ(CountedState::live, live_before);
    EXPECT_EQ(arena.size(), 0u);
    EXPECT_EQ(arena.bytes(), chunk_bytes);
    CountedState::reset_counts();
    const CountedState* body = arena.emplace(CountedState{7});
    EXPECT_EQ(body->value, 7);
    EXPECT_EQ(CountedState::copies, 0) << "bodies are moved in";
    EXPECT_EQ(arena.bytes(), chunk_bytes);

    // release() also frees the chunks.
    arena.release();
    EXPECT_EQ(CountedState::live, live_before);
    EXPECT_EQ(arena.bytes(), 0u);
    for (int i = 0; i < 10; ++i)
    {
      (void)arena.emplace(CountedState{i});
    }
  }
  // Destruction frees whatever is left.
  EXPECT_EQ(CountedState::live, live_before);
}

TEST(StoreModes, OriginCountsAreWaitFreeAndSumToSize)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4);
  for (int i = 0; i < 100; ++i)
  {
    const CounterState s{i};
    store.insert(
      fingerprint(s),
      Store::no_parent,
      Store::init_action,
      0,
      static_cast<uint8_t>(i % 3));
  }
  uint64_t total = 0;
  for (uint8_t origin = 0; origin < Store::max_origins; ++origin)
  {
    total += store.origin_count(origin);
  }
  EXPECT_EQ(total, store.size());
  EXPECT_EQ(store.origin_count(0), 34u);
  EXPECT_EQ(store.origin_count(1), 33u);
  EXPECT_EQ(store.origin_count(2), 33u);
}

// ---- Exact replay ----

TEST(Reconstruct, ReplayRebuildsDroppedChain)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(1);
  std::vector<Store::Id> ids;
  Store::Id prev = Store::no_parent;
  for (int i = 0; i <= 5; ++i)
  {
    const CounterState s{i};
    const auto ins = store.insert(
      fingerprint(s),
      prev,
      i == 0 ? Store::init_action : 0,
      static_cast<uint32_t>(i));
    ASSERT_TRUE(ins.inserted);
    ids.push_back(ins.id);
    prev = ins.id;
  }
  const auto key = [](const CounterState& s, uint32_t) {
    return fingerprint(s);
  };
  // A nondeterministic action (+1 or +2): each step takes the first
  // successor whose key finds the chain's next id.
  const auto step = [](const CounterState& s,
                       uint32_t action,
                       const Emit<CounterState>& emit) {
    EXPECT_EQ(action, 0u);
    emit(CounterState{s.value + 2});
    emit(CounterState{s.value + 1});
  };
  const auto path =
    store.reconstruct_path(ids.back(), {CounterState{0}}, step, key);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 6u);
  for (int i = 0; i <= 5; ++i)
  {
    EXPECT_EQ((*path)[i], CounterState{i}) << "replayed step " << i;
  }

  // A chain the initial states do not root, or a step no successor
  // matches, is reported as a failure, not a guess.
  EXPECT_FALSE(
    store.reconstruct_path(ids.back(), {CounterState{9}}, step, key)
      .has_value());
  EXPECT_FALSE(store
                 .reconstruct_path(
                   ids.back(),
                   {CounterState{0}},
                   [](const CounterState& s,
                      uint32_t,
                      const Emit<CounterState>& emit) {
                     emit(CounterState{s.value + 3});
                   },
                   key)
                 .has_value());
}

namespace
{
  /// The small consensus model campaign_test runs (199,235 states).
  specs::ccfraft::Params small_consensus_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 1;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    return p;
  }

  template <class S>
  std::string serialized(const S& s)
  {
    ByteSink sink;
    s.serialize(sink);
    return {sink.bytes().begin(), sink.bytes().end()};
  }

  /// The exactness oracle: a naive BFS that dedups by the whole
  /// serialized state (no fingerprint, so no collision can merge two
  /// states) and, like the checker, expands only states within the
  /// constraint. Keeps every `stride`-th discovered state as a sample.
  template <class S>
  struct NaiveSpace
  {
    size_t distinct = 0;
    std::vector<S> samples;
  };

  template <class S>
  NaiveSpace<S> naive_bfs(const SpecDef<S>& spec, size_t stride = 0)
  {
    NaiveSpace<S> out;
    std::set<std::string> seen;
    std::deque<S> queue;
    const auto visit = [&](const S& s) {
      if (seen.insert(serialized(s)).second)
      {
        if (stride > 0 && seen.size() % stride == 0)
        {
          out.samples.push_back(s);
        }
        queue.push_back(s);
      }
    };
    for (const S& init : spec.init)
    {
      visit(init);
    }
    while (!queue.empty())
    {
      const S s = std::move(queue.front());
      queue.pop_front();
      if (!spec.within_constraint(s))
      {
        continue;
      }
      for (const auto& action : spec.actions)
      {
        action.expand(s, [&](S&& next) { visit(next); });
      }
    }
    out.distinct = seen.size();
    return out;
  }

  template <class S>
  void expect_oracle_count(const SpecDef<S>& spec, size_t oracle)
  {
    for (const unsigned threads : {1u, 4u})
    {
      CheckLimits limits;
      limits.threads = threads;
      limits.time_budget_seconds = 600.0;
      const auto r = model_check(spec, limits);
      ASSERT_TRUE(r.ok);
      ASSERT_TRUE(r.stats.complete);
      EXPECT_EQ(r.stats.distinct_states, oracle) << threads << " workers";
    }
  }

  /// Checks a counterexample against the spec alone: it starts at an
  /// initial state and every step is a successor of the one before by
  /// the named action.
  template <class S>
  void expect_valid_path(const SpecDef<S>& spec, const Counterexample<S>& cex)
  {
    ASSERT_FALSE(cex.steps.empty());
    EXPECT_EQ(cex.steps[0].action, "<init>");
    EXPECT_NE(
      std::find(spec.init.begin(), spec.init.end(), cex.steps[0].state),
      spec.init.end());
    for (size_t i = 1; i < cex.steps.size(); ++i)
    {
      bool found = false;
      for (const auto& action : spec.actions)
      {
        if (action.name == cex.steps[i].action)
        {
          action.expand(cex.steps[i - 1].state, [&](S&& next) {
            found = found || next == cex.steps[i].state;
          });
        }
      }
      EXPECT_TRUE(found) << "step " << i << " (" << cex.steps[i].action
                         << ") is not a successor of step " << i - 1;
    }
  }
}

// ---- Exactness oracle: distinct counts against a naive BFS ----

TEST(ExactnessOracle, CounterSpecMatchesNaiveBfs)
{
  const auto spec = counter_spec(500);
  expect_oracle_count(spec, naive_bfs(spec).distinct);
}

TEST(ExactnessOracle, ConsistencyModelMatchesNaiveBfs)
{
  specs::consistency::Params p;
  p.max_rw_txs = 2;
  p.max_ro_txs = 1;
  p.max_branches = 2;
  const auto spec = specs::consistency::build_spec(p);
  expect_oracle_count(spec, naive_bfs(spec).distinct);
}

// The oracle's samples also drive the replay check: for each sampled
// state's id, the replayed path ends at a state whose key finds that id,
// one state per level of the record's depth.
TEST(ExactnessOracle, SmallConsensusModelMatchesNaiveBfsAndReplays)
{
  using State = specs::ccfraft::State;
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  const auto oracle = naive_bfs(spec, 997);
  EXPECT_EQ(oracle.distinct, 199235u);
  expect_oracle_count(spec, oracle.distinct);

  for (const unsigned threads : {1u, 4u})
  {
    ShardedStateStore<State> store(threads == 1 ? 1 : 16);
    CheckLimits limits;
    limits.threads = threads;
    limits.time_budget_seconds = 600.0;
    ModelChecker<State> checker(spec, limits);
    checker.attach_store(&store);
    ASSERT_TRUE(checker.check().stats.complete);
    ASSERT_GE(oracle.samples.size(), 150u);
    for (const State& sample : oracle.samples)
    {
      const auto id = store.find(fingerprint(sample));
      ASSERT_TRUE(id.has_value());
      const auto path = store.reconstruct_path(
        *id,
        spec.init,
        [&](const State& s, uint32_t action, const Emit<State>& emit) {
          spec.actions[action].expand(s, emit);
        },
        [](const State& s, uint32_t) { return fingerprint(s); });
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(store.find(fingerprint(path->back())), id);
      EXPECT_EQ(path->back(), sample);
      EXPECT_EQ(path->size(), store.record(*id).depth + 1u);
    }
  }
}

// ---- Golden equivalence: checker counterexamples by replay ----

TEST(GoldenEquivalence, CounterViolationSequential)
{
  auto spec = counter_spec(1000);
  spec.invariants.push_back(
    {"BelowSevenHundred",
     [](const CounterState& s) { return s.value != 700; }});

  const auto r = model_check(spec);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.stats.distinct_states, 701u);
  EXPECT_EQ(r.stats.generated_states, 701u);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->property, "BelowSevenHundred");
  ASSERT_EQ(r.counterexample->steps.size(), 701u);
  for (size_t i = 0; i < r.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(r.counterexample->steps[i].action, i == 0 ? "<init>" : "Increment");
    EXPECT_EQ(
      r.counterexample->steps[i].state, CounterState{static_cast<int>(i)});
  }
}

TEST(GoldenEquivalence, CounterViolationParallel)
{
  auto spec = counter_spec(100);
  spec.invariants.push_back(
    {"BelowFifty", [](const CounterState& s) { return s.value != 50; }});

  CheckLimits one;
  CheckLimits two;
  two.threads = 2;
  const auto r_one = model_check(spec, one);
  const auto r_two = model_check(spec, two);

  ASSERT_FALSE(r_one.ok);
  ASSERT_FALSE(r_two.ok);
  ASSERT_TRUE(r_two.counterexample.has_value());
  ASSERT_EQ(
    r_one.counterexample->steps.size(), r_two.counterexample->steps.size());
  for (size_t i = 0; i < r_one.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(
      r_one.counterexample->steps[i].state,
      r_two.counterexample->steps[i].state);
  }
}

TEST(GoldenEquivalence, CounterCompleteRunMatches)
{
  const auto spec = counter_spec(500);
  CheckLimits four;
  four.threads = 4;
  const auto r_one = model_check(spec);
  const auto r_four = model_check(spec, four);

  EXPECT_TRUE(r_one.ok);
  EXPECT_TRUE(r_four.ok);
  EXPECT_TRUE(r_four.stats.complete);
  EXPECT_EQ(r_one.stats.distinct_states, 501u);
  EXPECT_EQ(r_one.stats.distinct_states, r_four.stats.distinct_states);
  EXPECT_EQ(r_one.stats.generated_states, r_four.stats.generated_states);
  EXPECT_EQ(r_one.stats.transitions, r_four.stats.transitions);
  EXPECT_EQ(r_one.stats.max_depth, r_four.stats.max_depth);
  EXPECT_GT(r_one.stats.store_bytes, 0u);
  // The chain's frontier is one state wide: one chunk per level arena.
  EXPECT_EQ(
    r_one.stats.peak_frontier_bytes,
    2 * LevelArena<CounterState>::chunk_bytes);
  // No duplicate hit, so no chance of a collision.
  EXPECT_EQ(r_one.stats.fp_collision_probability, 0.0);
}

TEST(GoldenEquivalence, ConsistencyObservedRoCounterexampleMatches)
{
  // The paper's ObservedRoInv refutation (§7): the counterexample is
  // rebuilt by replay, so it must be a genuine path of the spec, and one
  // and four workers must agree on its (level-minimal) length.
  specs::consistency::Params p;
  p.max_rw_txs = 1;
  p.max_ro_txs = 1;
  p.max_branches = 2;
  p.include_observed_ro = true;
  const auto spec = specs::consistency::build_spec(p);

  CheckLimits four;
  four.threads = 4;
  const auto r_one = model_check(spec);
  const auto r_four = model_check(spec, four);

  for (const auto* r : {&r_one, &r_four})
  {
    ASSERT_FALSE(r->ok);
    ASSERT_TRUE(r->counterexample.has_value());
    EXPECT_EQ(r->counterexample->property, "ObservedRoInv");
    expect_valid_path(spec, *r->counterexample);
    EXPECT_FALSE(
      specs::consistency::observed_ro_inv(r->counterexample->steps.back().state));
  }
  EXPECT_EQ(
    r_one.counterexample->steps.size(), r_four.counterexample->steps.size());
}

TEST(GoldenEquivalence, MemoryBudgetCutsRunAndExportsFrontier)
{
  const auto spec = counter_spec(1'000'000);
  CheckLimits limits;
  limits.store.memory_budget_bytes = 64 * 1024;
  ModelChecker<CounterState> checker(spec, limits);
  const auto result = checker.check();

  EXPECT_TRUE(result.ok); // no violation found...
  EXPECT_FALSE(result.stats.complete); // ...but the budget cut the run
  EXPECT_LT(result.stats.distinct_states, 1'000'000u);
  EXPECT_GT(result.stats.distinct_states, 0u);
  EXPECT_GT(result.stats.store_bytes, limits.store.memory_budget_bytes);
  EXPECT_GT(result.stats.peak_frontier_bytes, 0u);
  // The unexpanded frontier is exported for campaign hand-off.
  EXPECT_FALSE(checker.take_frontier().empty());
}

// The budget covers the frontier's bodies too: a store far below the
// ceiling still stops the run once the level arenas cross it.
TEST(GoldenEquivalence, MemoryBudgetCountsFrontierBodies)
{
  const auto spec = counter_spec(100);
  CheckLimits free_run;
  const auto r = model_check(spec, free_run);
  ASSERT_TRUE(r.stats.complete);
  CheckLimits limits;
  limits.store.memory_budget_bytes =
    r.stats.store_bytes + r.stats.peak_frontier_bytes / 4;
  const auto cut = model_check(spec, limits);
  EXPECT_FALSE(cut.stats.complete);
  EXPECT_LT(cut.stats.store_bytes, limits.store.memory_budget_bytes);
}

// ---- Golden equivalence: consensus trace validation ----

namespace
{
  driver::ClusterOptions three_nodes(uint64_t seed)
  {
    driver::ClusterOptions o;
    o.initial_config = {1, 2, 3};
    o.initial_leader = 1;
    o.seed = seed;
    return o;
  }

  std::vector<trace::TraceEvent> small_consensus_trace(
    uint64_t seed, int ticks = 25)
  {
    driver::Cluster c(three_nodes(seed));
    c.submit("x");
    c.sign();
    for (int i = 0; i < ticks; ++i)
    {
      c.tick_all();
      c.drain();
    }
    return c.trace();
  }

  /// `kept` ran with prune_bfs_store, whose witness is a chain of
  /// concrete states each frontier item carries; `replayed` rebuilt its
  /// witness from the store by replay. Both admit first-inserter-wins, so
  /// at one worker the witnesses are the same states.
  void expect_equal_validations(
    const ValidationResult<specs::ccfraft::State>& kept,
    const ValidationResult<specs::ccfraft::State>& replayed)
  {
    EXPECT_EQ(kept.ok, replayed.ok);
    EXPECT_EQ(kept.lines_matched, replayed.lines_matched);
    EXPECT_EQ(kept.frontier_sizes, replayed.frontier_sizes);
    EXPECT_EQ(kept.states_explored, replayed.states_explored);
    ASSERT_EQ(kept.witness.size(), replayed.witness.size());
    for (size_t i = 0; i < kept.witness.size(); ++i)
    {
      EXPECT_EQ(kept.witness[i], replayed.witness[i]) << "witness step " << i;
    }
  }
}

TEST(GoldenEquivalence, ConsensusTraceBfsWitnessMatches)
{
  const auto events = small_consensus_trace(113);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions replay;
  replay.search.mode = SearchMode::Bfs;
  trace::ConsensusValidationOptions kept = replay;
  kept.search.prune_bfs_store = true;

  const auto r_kept = trace::validate_consensus_trace(events, p, kept);
  const auto r_replay = trace::validate_consensus_trace(events, p, replay);
  ASSERT_TRUE(r_kept.ok);
  ASSERT_TRUE(r_replay.ok);
  EXPECT_EQ(r_replay.witness.size(), trace::preprocess(events).size() + 1);
  expect_equal_validations(r_kept, r_replay);
  EXPECT_GT(r_replay.stats.store_bytes, 0u);
}

TEST(GoldenEquivalence, FaultComposedWitnessReplayMatches)
{
  // IsFault · Next composition (Listing 5): each trace line here demands
  // a jump of 2 while the line expander only steps by 1, so EVERY witness
  // step needs exactly one composed (unlogged) fault. The witness replay
  // runs through the same with_faults() expansion as the search, and is
  // checked against the chain-keeping prune_bfs_store witness — full-trace
  // BFS with fault composition on the consensus spec
  // is combinatorial (§6.4, "about an hour with BFS"), so the forcing
  // house is this small spec, not a cluster trace.
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int k = 1; k <= 6; ++k)
  {
    lines.push_back(
      {"land_on_" + std::to_string(2 * k),
       [k](const CounterState& s, const Emit<CounterState>& emit) {
         if (s.value + 1 == 2 * k)
         {
           emit(CounterState{2 * k});
         }
       }});
  }
  const auto fault = [](const CounterState& s,
                        const Emit<CounterState>& emit) {
    emit(CounterState{s.value + 1});
  };

  ValidationOptions kept;
  kept.mode = SearchMode::Bfs;
  kept.max_faults_per_step = 1;
  kept.prune_bfs_store = true;
  ValidationOptions replay = kept;
  replay.prune_bfs_store = false;

  TraceValidator<CounterState> v_kept({CounterState{0}}, lines, kept);
  v_kept.set_fault_expander(fault);
  const auto r_kept = v_kept.run();
  TraceValidator<CounterState> v_replay({CounterState{0}}, lines, replay);
  v_replay.set_fault_expander(fault);
  const auto r_replay = v_replay.run();

  ASSERT_TRUE(r_kept.ok);
  ASSERT_TRUE(r_replay.ok);
  EXPECT_EQ(r_kept.lines_matched, r_replay.lines_matched);
  EXPECT_EQ(r_kept.frontier_sizes, r_replay.frontier_sizes);
  EXPECT_EQ(r_kept.states_explored, r_replay.states_explored);
  ASSERT_EQ(r_kept.witness.size(), 7u);
  ASSERT_EQ(r_replay.witness.size(), 7u);
  for (size_t i = 0; i < 7; ++i)
  {
    // Fault steps fold into the line they precede: the witness lands on
    // the even values only.
    EXPECT_EQ(r_kept.witness[i], CounterState{2 * static_cast<int>(i)});
    EXPECT_EQ(r_replay.witness[i], r_kept.witness[i]);
  }
}

TEST(GoldenEquivalence, ConsensusTraceParallelBfsFpOnlyMatchesSequential)
{
  const auto events = small_consensus_trace(113);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions seq;
  seq.search.mode = SearchMode::Bfs;
  trace::ConsensusValidationOptions par = seq;
  par.search.threads = 4;

  const auto r_seq = trace::validate_consensus_trace(events, p, seq);
  const auto r_par = trace::validate_consensus_trace(events, p, par);
  ASSERT_TRUE(r_seq.ok);
  ASSERT_TRUE(r_par.ok);
  EXPECT_EQ(r_seq.lines_matched, r_par.lines_matched);
  EXPECT_EQ(r_seq.frontier_sizes, r_par.frontier_sizes);
  EXPECT_EQ(r_seq.states_explored, r_par.states_explored);
  EXPECT_EQ(r_seq.witness.size(), r_par.witness.size());
}

TEST(GoldenEquivalence, ConsensusTraceRejectionDiagnosticsMatch)
{
  auto events = small_consensus_trace(115);
  bool corrupted = false;
  for (auto& e : events)
  {
    if (e.kind == trace::EventKind::AdvanceCommit && !corrupted)
    {
      e.commit_idx += 1;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions replay;
  replay.search.mode = SearchMode::Bfs;
  trace::ConsensusValidationOptions kept = replay;
  kept.search.prune_bfs_store = true;

  const auto r_kept = trace::validate_consensus_trace(events, p, kept);
  const auto r_replay = trace::validate_consensus_trace(events, p, replay);
  EXPECT_FALSE(r_kept.ok);
  EXPECT_FALSE(r_replay.ok);
  EXPECT_EQ(r_kept.lines_matched, r_replay.lines_matched);
  EXPECT_EQ(r_kept.failed_line, r_replay.failed_line);
  EXPECT_EQ(
    r_kept.frontier_at_failure.size(), r_replay.frontier_at_failure.size());
}

// ---- Rehash under concurrent insert (TSan) ----

TEST(StoreConcurrency, RehashUnderContention)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4);
  constexpr unsigned n_threads = 4;
  constexpr int per_thread = 50'000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n_threads; ++t)
  {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < per_thread; ++i)
      {
        const int value = static_cast<int>(t) * per_thread + i;
        // Injective synthetic fingerprint: every state distinct, inserts
        // spread over all shards, tables rehash many times under load.
        store.insert(
          static_cast<uint64_t>(value) + 1,
          Store::no_parent,
          Store::init_action,
          0,
          static_cast<uint8_t>(t % Store::max_origins));
      }
    });
  }
  for (auto& th : threads)
  {
    th.join();
  }
  EXPECT_EQ(store.size(), n_threads * static_cast<size_t>(per_thread));
  EXPECT_GT(store.rehash_count(), 0u);
  uint64_t total = 0;
  for (uint8_t origin = 0; origin < Store::max_origins; ++origin)
  {
    total += store.origin_count(origin);
  }
  EXPECT_EQ(total, store.size());

  // Every state is findable post-join (dedup says "present").
  for (int value : {0, 1, per_thread, 3 * per_thread + 17})
  {
    EXPECT_FALSE(store
                   .insert(
                     static_cast<uint64_t>(value) + 1,
                     Store::no_parent,
                     Store::init_action,
                     0)
                   .inserted)
      << "value " << value;
  }
}

// ---- Spill round-trip ----

TEST(Spill, RoundTripPreservesRecordsByteForByte)
{
  using Store = ShardedStateStore<CounterState>;
  StoreOptions options;
  options.spill_dir = make_spill_dir();
  ASSERT_FALSE(options.spill_dir.empty());
  // Zero budget: every frozen block spills on maybe_spill().
  Store store(1, options);

  // Fill past two block boundaries (65536 records per 1 MiB block).
  const uint32_t n = 2 * 65536 + 1000;
  Store::Id prev = Store::no_parent;
  std::vector<Store::Id> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i)
  {
    const auto ins = store.insert(
      static_cast<uint64_t>(i) + 1,
      prev,
      i == 0 ? Store::init_action : i % 7,
      i,
      static_cast<uint8_t>(i % 3));
    ASSERT_TRUE(ins.inserted);
    ids.push_back(ins.id);
    prev = ins.id;
  }

  const auto check_all = [&](const char* when) {
    for (uint32_t i = 0; i < n; ++i)
    {
      const auto r = store.record(ids[i]);
      ASSERT_EQ(r.parent, i == 0 ? Store::no_parent : ids[i - 1])
        << when << " record " << i;
      ASSERT_EQ(r.action, i == 0 ? Store::init_action : i % 7)
        << when << " record " << i;
      ASSERT_EQ(r.depth, i) << when << " record " << i;
      ASSERT_EQ(r.origin, i % 3) << when << " record " << i;
    }
  };
  check_all("pre-spill");
  const size_t resident_before = store.store_bytes();

  store.maybe_spill();
  // Two frozen blocks spilled; the growing tail block stays on the heap.
  EXPECT_EQ(store.spilled_bytes(), 2u * 1024 * 1024);
  EXPECT_EQ(store.store_bytes(), resident_before - 2u * 1024 * 1024);
  check_all("post-spill");

  // The store keeps growing after a spill; spilled reads and fresh
  // inserts coexist.
  for (uint32_t i = n; i < n + 70000; ++i)
  {
    const auto ins =
      store.insert(static_cast<uint64_t>(i) + 1, prev, i % 7, i);
    ASSERT_TRUE(ins.inserted);
    prev = ins.id;
  }
  store.maybe_spill();
  EXPECT_GT(store.spilled_bytes(), 2u * 1024 * 1024);
  check_all("post-growth");
  EXPECT_EQ(store.size(), n + 70000u);

  ::rmdir(options.spill_dir.c_str());
}

TEST(Spill, ClearReleasesSpillAndStoreIsReusable)
{
  using Store = ShardedStateStore<CounterState>;
  StoreOptions options;
  options.spill_dir = make_spill_dir();
  Store store(1, options);

  Store::Id prev = Store::no_parent;
  for (uint32_t i = 0; i < 70000; ++i)
  {
    prev = store
             .insert(
               static_cast<uint64_t>(i) + 1,
               prev,
               i == 0 ? Store::init_action : 0,
               i)
             .id;
  }
  store.maybe_spill();
  ASSERT_GT(store.spilled_bytes(), 0u);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.store_bytes(), 0u);

  const CounterState s{1};
  const auto ins =
    store.insert(fingerprint(s), Store::no_parent, Store::init_action, 0);
  EXPECT_TRUE(ins.inserted);
  EXPECT_EQ(store.find(fingerprint(s)), ins.id);
  EXPECT_EQ(store.record(ins.id).parent, Store::no_parent);

  ::rmdir(options.spill_dir.c_str());
}

TEST(Spill, CheckerSpillsAtHousekeepingPointsAndStaysCorrect)
{
  // End-to-end: a sequential check with an aggressive spill policy (zero
  // budget) still explores the exact same space and reports spilled
  // bytes once the arena freezes a block (>65536 states).
  auto spec = counter_spec(200'000);
  CheckLimits spill;
  spill.store.spill_dir = make_spill_dir();
  const auto r_spill = model_check(spec, spill);
  const auto r_heap = model_check(spec);

  EXPECT_TRUE(r_spill.ok);
  EXPECT_TRUE(r_spill.stats.complete);
  EXPECT_EQ(r_spill.stats.distinct_states, r_heap.stats.distinct_states);
  EXPECT_GT(r_spill.stats.spilled_bytes, 0u);
  ::rmdir(spill.store.spill_dir.c_str());
}
