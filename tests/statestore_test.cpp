// Tests for the state store (docs/SPEC.md "State store"): the flat
// open-addressing fingerprint index, dedup by fingerprint alone, the
// checker's level arenas, exact replay of counterexamples and witnesses,
// an exactness oracle (a naive BFS over serialized states) for the
// distinct counts, and rehash under concurrent insert (run under TSan in
// CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "counted_state.h"
#include "trace_witness.h"
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
}

// ---- FlatFpTable ----

TEST(FlatFpTable, InsertFindContains)
{
  FlatFpTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(42), FlatFpTable::empty_slot);

  EXPECT_EQ(table.find_or_insert(42, 7), 7u);
  EXPECT_EQ(table.find_or_insert(99, 3), 3u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(42), 7u);
  EXPECT_EQ(table.find(99), 3u);
  EXPECT_EQ(table.find(100), FlatFpTable::empty_slot);
}

TEST(FlatFpTable, RepeatedFindOrInsertReturnsFirstLocal)
{
  // The table is a set: a fingerprint already present keeps its first
  // local, and the repeat stores nothing.
  FlatFpTable table;
  EXPECT_EQ(table.find_or_insert(5, 10), 10u);
  EXPECT_EQ(table.find_or_insert(5, 11), 10u);
  EXPECT_EQ(table.find_or_insert(5, 12), 10u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(5), 10u);

  // Across rehashes too: fill past several doublings, then repeat every
  // insert with a different local.
  const uint32_t n = 1000;
  for (uint32_t i = 0; i < n; ++i)
  {
    EXPECT_EQ(table.find_or_insert(uint64_t{i} * 7919 + 100, i), i);
  }
  const uint64_t rehashes = table.rehash_count();
  EXPECT_GT(rehashes, 0u);
  for (uint32_t i = 0; i < n; ++i)
  {
    EXPECT_EQ(table.find_or_insert(uint64_t{i} * 7919 + 100, n + i), i);
  }
  EXPECT_EQ(table.find_or_insert(5, 13), 10u);
  EXPECT_EQ(table.size(), n + 1);
  EXPECT_EQ(table.rehash_count(), rehashes) << "a hit never grows the table";
}

TEST(FlatFpTable, GrowthRehashPreservesEntries)
{
  FlatFpTable table(16);
  const size_t n = 10'000;
  for (size_t i = 0; i < n; ++i)
  {
    table.find_or_insert(
      i * 0x9E3779B97F4A7C15ULL + 1, static_cast<uint32_t>(i));
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
      table.find(i * 0x9E3779B97F4A7C15ULL + 1), static_cast<uint32_t>(i))
      << "entry " << i << " lost across rehash";
  }
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
  /// constraint. Counts the states first reached at each depth and keeps
  /// every `stride`-th discovered state as a sample.
  template <class S>
  struct NaiveSpace
  {
    size_t distinct = 0;
    std::vector<size_t> level_sizes;
    std::vector<S> samples;
  };

  template <class S>
  NaiveSpace<S> naive_bfs(const SpecDef<S>& spec, size_t stride = 0)
  {
    NaiveSpace<S> out;
    std::set<std::string> seen;
    std::deque<std::pair<S, size_t>> queue;
    const auto visit = [&](const S& s, size_t depth) {
      if (seen.insert(serialized(s)).second)
      {
        if (stride > 0 && seen.size() % stride == 0)
        {
          out.samples.push_back(s);
        }
        out.level_sizes.resize(std::max(out.level_sizes.size(), depth + 1));
        out.level_sizes[depth]++;
        queue.emplace_back(s, depth);
      }
    };
    for (const S& init : spec.init)
    {
      visit(init, 0);
    }
    while (!queue.empty())
    {
      const S s = std::move(queue.front().first);
      const size_t depth = queue.front().second;
      queue.pop_front();
      if (!spec.within_constraint(s))
      {
        continue;
      }
      for (const auto& action : spec.actions)
      {
        action.expand(s, [&](S&& next) { visit(next, depth + 1); });
      }
    }
    out.distinct = seen.size();
    return out;
  }

  /// The checker's distinct count and per-depth counts against the
  /// oracle's; a complete check also reports its final, empty level.
  template <class S>
  void expect_oracle_count(const SpecDef<S>& spec, const NaiveSpace<S>& oracle)
  {
    std::vector<uint64_t> levels(
      oracle.level_sizes.begin(), oracle.level_sizes.end());
    levels.push_back(0);
    for (const unsigned threads : {1u, 4u})
    {
      CheckLimits limits;
      limits.threads = threads;
      limits.time_budget_seconds = 600.0;
      const auto r = model_check(spec, limits);
      ASSERT_TRUE(r.ok);
      ASSERT_TRUE(r.stats.complete);
      EXPECT_EQ(r.stats.distinct_states, oracle.distinct)
        << threads << " workers";
      EXPECT_EQ(r.stats.level_sizes, levels) << threads << " workers";
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
  expect_oracle_count(spec, naive_bfs(spec));
}

TEST(ExactnessOracle, ConsistencyModelMatchesNaiveBfs)
{
  specs::consistency::Params p;
  p.max_rw_txs = 2;
  p.max_ro_txs = 1;
  p.max_branches = 2;
  const auto spec = specs::consistency::build_spec(p);
  expect_oracle_count(spec, naive_bfs(spec));
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
  expect_oracle_count(spec, oracle);

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

// The trace product spec (TraceValidator::product_spec()) through the
// same oracle: the distinct (line, state) pairs the naive BFS finds per
// line are BFS validation's frontier sizes. Each line steps by 1 or 2 and
// one unlogged jump of 3 may precede it.
TEST(ExactnessOracle, TraceProductSpecMatchesNaiveBfs)
{
  const auto fuzzy_line = [](int line) {
    return TraceLineExpander<CounterState>{
      "fuzzy" + std::to_string(line),
      [](const CounterState& s, const Emit<CounterState>& emit) {
        emit(CounterState{s.value + 1});
        emit(CounterState{s.value + 2});
      }};
  };
  const auto jump = [](const CounterState& s, const Emit<CounterState>& emit) {
    emit(CounterState{s.value + 3});
  };
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 8; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }

  // A matched trace: BFS stops at the first state past the last line, so
  // every line but the last matches the oracle exactly.
  ValidationOptions options;
  options.mode = SearchMode::Bfs;
  options.max_faults_per_step = 1;
  TraceValidator<CounterState> valid({CounterState{0}}, lines, options);
  valid.set_fault_expander(jump);
  const auto oracle = naive_bfs(valid.product_spec());
  ASSERT_EQ(oracle.level_sizes.size(), lines.size() + 1);
  const auto matched = valid.run();
  ASSERT_TRUE(matched.ok);
  ASSERT_EQ(matched.frontier_sizes.size(), lines.size());
  for (size_t i = 0; i + 1 < lines.size(); ++i)
  {
    EXPECT_EQ(matched.frontier_sizes[i], oracle.level_sizes[i + 1])
      << "line " << i;
  }
  EXPECT_EQ(matched.frontier_sizes.back(), 1u);
  EXPECT_GT(oracle.level_sizes.back(), 1u);

  // A line no state matches makes the check complete: every line's count
  // and the distinct total match at one and at four workers.
  lines.push_back(
    {"impossible", [](const CounterState&, const Emit<CounterState>&) {}});
  for (const unsigned threads : {1u, 4u})
  {
    options.threads = threads;
    TraceValidator<CounterState> invalid({CounterState{0}}, lines, options);
    invalid.set_fault_expander(jump);
    const auto full = naive_bfs(invalid.product_spec());
    const auto r = invalid.run();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.stats.complete);
    std::vector<size_t> expected(
      full.level_sizes.begin() + 1, full.level_sizes.end());
    expected.push_back(0);
    EXPECT_EQ(r.frontier_sizes, expected) << threads << " workers";
    EXPECT_EQ(r.stats.distinct_states, full.distinct) << threads << " workers";
    EXPECT_EQ(r.lines_matched, lines.size() - 1);
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
  limits.memory_budget_bytes = 64 * 1024;
  ShardedStateStore<CounterState> store;
  ModelChecker<CounterState> checker(spec, limits);
  checker.attach_store(&store);
  const auto result = checker.check();

  EXPECT_TRUE(result.ok); // no violation found...
  EXPECT_FALSE(result.stats.complete); // ...but the budget cut the run
  EXPECT_LT(result.stats.distinct_states, 1'000'000u);
  EXPECT_GT(result.stats.distinct_states, 0u);
  EXPECT_GT(result.stats.store_bytes, limits.memory_budget_bytes);
  EXPECT_GT(result.stats.peak_frontier_bytes, 0u);
  // The unexpanded frontier is exported for campaign hand-off.
  EXPECT_FALSE(checker.take_frontier().empty());
}

namespace
{
  /// A binary tree over counted states (v -> 2v + 1, 2v + 2): a frontier
  /// that doubles each level, so a cut run leaves a wide one.
  SpecDef<test::CountedState> counted_tree_spec()
  {
    using test::CountedState;
    SpecDef<CountedState> def;
    def.name = "counted_tree";
    def.init = {CountedState{0}};
    def.actions.push_back(
      {"Branch", [](const CountedState& s, const Emit<CountedState>& emit) {
         emit(CountedState{2 * s.value + 1});
         emit(CountedState{2 * s.value + 2});
       }});
    return def;
  }
}

// Only a campaign reads the leftover frontier, so only a check over an
// attached store copies it out: a standalone check cut by its state cap
// copies no frontier body.
TEST(GoldenEquivalence, OnlyAttachedChecksCopyTheFrontierOut)
{
  using test::CountedState;
  const auto spec = counted_tree_spec();
  CheckLimits limits;
  limits.max_distinct_states = 1000;

  ModelChecker<CountedState> standalone(spec, limits);
  CountedState::reset_counts();
  const auto cut = standalone.check();
  const int standalone_copies = CountedState::copies;
  ASSERT_FALSE(cut.stats.complete);
  // The initial state's copy into the level arena is the only one.
  EXPECT_EQ(standalone_copies, static_cast<int>(spec.init.size()));
  EXPECT_TRUE(standalone.take_frontier().empty());

  ShardedStateStore<CountedState> store;
  ModelChecker<CountedState> attached(spec, limits);
  attached.attach_store(&store);
  CountedState::reset_counts();
  const auto attached_cut = attached.check();
  const int attached_copies = CountedState::copies;
  ASSERT_FALSE(attached_cut.stats.complete);
  EXPECT_EQ(attached_cut.stats.distinct_states, cut.stats.distinct_states);
  const std::vector<CountedState> frontier = attached.take_frontier();
  ASSERT_FALSE(frontier.empty());
  EXPECT_EQ(
    attached_copies, standalone_copies + static_cast<int>(frontier.size()));
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
  limits.memory_budget_bytes =
    r.stats.store_bytes + r.stats.peak_frontier_bytes / 4;
  const auto cut = model_check(spec, limits);
  EXPECT_FALSE(cut.stats.complete);
  EXPECT_LT(cut.stats.store_bytes, limits.memory_budget_bytes);
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

  using ConsensusState = specs::ccfraft::State;
}

// The BFS witness is the checker's counterexample on the trace product
// spec, rebuilt by exact replay of the store's records: a behavior of the
// spec that matches every line.
TEST(GoldenEquivalence, ConsensusTraceBfsWitnessMatches)
{
  const auto events = small_consensus_trace(113);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions bfs;
  bfs.search.mode = SearchMode::Bfs;
  const auto r = trace::validate_consensus_trace(events, p, bfs);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(test::is_trace_behavior(
    r.witness,
    {specs::ccfraft::initial_state(p)},
    trace::bind_consensus_trace(trace::preprocess(events), p)));
  EXPECT_GT(r.stats.store_bytes, 0u);
}

TEST(GoldenEquivalence, FaultComposedWitnessReplayMatches)
{
  // IsFault · Next composition (Listing 5): each trace line here demands
  // a jump of 2 while the line expander only steps by 1, so EVERY witness
  // step needs exactly one composed (unlogged) fault. The witness replay
  // runs through the same with_faults() expansion as the search.
  // Full-trace BFS with fault composition on the consensus spec is
  // combinatorial (§6.4, "about an hour with BFS"), so the forcing house
  // is this small spec, not a cluster trace.
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

  for (const unsigned threads : {1u, 4u})
  {
    ValidationOptions options;
    options.mode = SearchMode::Bfs;
    options.max_faults_per_step = 1;
    options.threads = threads;
    TraceValidator<CounterState> v({CounterState{0}}, lines, options);
    v.set_fault_expander(fault);
    const auto r = v.run();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.lines_matched, lines.size());
    EXPECT_TRUE(test::is_trace_behavior(
      r.witness, {CounterState{0}}, lines, fault, 1));
    // Fault steps fold into the line they precede: the witness lands on
    // the even values only.
    ASSERT_EQ(r.witness.size(), 7u);
    for (size_t i = 0; i < 7; ++i)
    {
      EXPECT_EQ(r.witness[i], CounterState{2 * static_cast<int>(i)});
    }
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
  EXPECT_EQ(r_seq.witness.size(), r_par.witness.size());
  ASSERT_EQ(r_seq.frontier_sizes.size(), r_par.frontier_sizes.size());
  ASSERT_FALSE(r_seq.frontier_sizes.empty());

  // BFS stops at the first state past the last line, as TLC stops at its
  // first violation: every line but the last is exact, and the last one
  // counts the end states admitted before the stop.
  const size_t last = r_seq.frontier_sizes.size() - 1;
  for (size_t i = 0; i < last; ++i)
  {
    EXPECT_EQ(r_seq.frontier_sizes[i], r_par.frontier_sizes[i]) << "line " << i;
  }
  EXPECT_EQ(r_seq.frontier_sizes[last], 1u);
  EXPECT_LE(r_seq.states_explored, r_par.states_explored);

  // The full final frontier: the same lines and one that no state
  // matches, so the check runs to completion.
  auto lines = trace::bind_consensus_trace(trace::preprocess(events), p);
  lines.push_back(
    {"unmatchable", [](const ConsensusState&, const Emit<ConsensusState>&) {}});
  ValidationOptions complete;
  complete.mode = SearchMode::Bfs;
  TraceValidator<ConsensusState> full_run(
    {specs::ccfraft::initial_state(p)}, std::move(lines), complete);
  const auto full = full_run.run();
  ASSERT_FALSE(full.ok);
  ASSERT_TRUE(full.stats.complete);
  ASSERT_GT(full.frontier_sizes.size(), last);
  EXPECT_GE(r_par.frontier_sizes[last], 1u);
  EXPECT_LE(r_par.frontier_sizes[last], full.frontier_sizes[last]);
}

// A rejected trace: BFS and DFS agree on the deepest line and the line
// that failed, and both report candidates the BFS frontier held there.
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

  trace::ConsensusValidationOptions bfs;
  bfs.search.mode = SearchMode::Bfs;
  bfs.search.max_diagnostic_states = 1000;
  trace::ConsensusValidationOptions dfs = bfs;
  dfs.search.mode = SearchMode::Dfs;

  const auto r_bfs = trace::validate_consensus_trace(events, p, bfs);
  const auto r_dfs = trace::validate_consensus_trace(events, p, dfs);
  EXPECT_FALSE(r_bfs.ok);
  EXPECT_FALSE(r_dfs.ok);
  EXPECT_TRUE(r_bfs.stats.complete);
  ASSERT_GT(r_bfs.lines_matched, 0u);
  EXPECT_EQ(r_bfs.lines_matched, r_dfs.lines_matched);
  EXPECT_EQ(r_bfs.failed_line, r_dfs.failed_line);
  // Under the raised cap the BFS keeps its whole frontier at the deepest
  // line, and the DFS entered only states from it.
  EXPECT_EQ(
    r_bfs.frontier_at_failure.size(),
    r_bfs.frontier_sizes[r_bfs.lines_matched - 1]);
  ASSERT_FALSE(r_dfs.frontier_at_failure.empty());
  for (const auto& s : r_dfs.frontier_at_failure)
  {
    EXPECT_NE(
      std::find(
        r_bfs.frontier_at_failure.begin(), r_bfs.frontier_at_failure.end(), s),
      r_bfs.frontier_at_failure.end());
  }
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
