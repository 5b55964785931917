// Tests for the state-store modes (docs/SPEC.md "Store modes"): the flat
// open-addressing fingerprint index, full vs fingerprint-only golden
// equivalence across engines, counterexample/witness reconstruction by
// replay, per-shard disk spill round-trips, forced fingerprint-collision
// chains, and rehash under concurrent insert (run under TSan in CI).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "counted_state.h"
#include "driver/cluster.h"
#include "spec/flat_fp_table.h"
#include "spec/model_checker.h"
#include "spec/sharded_state_store.h"
#include "spec/trace_validator.h"
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
  /// house for full-mode collision chains and fingerprint-only
  /// conflation.
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

  StoreOptions fp_only()
  {
    StoreOptions o;
    o.mode = StoreMode::fingerprint_only;
    return o;
  }

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
  // The full-mode store inserts one entry per *state*; colliding
  // fingerprints coexist and find() visits every one.
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

// ---- StripedKeySet on the flat tables ----

TEST(StripedKeySet, ConcurrentInsertDedups)
{
  StripedKeySet set(8);
  constexpr size_t per_thread = 20'000;
  constexpr unsigned n_threads = 4;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> fresh{0};
  for (unsigned t = 0; t < n_threads; ++t)
  {
    threads.emplace_back([&set, &fresh, t] {
      uint64_t mine = 0;
      for (size_t i = 0; i < per_thread; ++i)
      {
        // Overlapping ranges: every key is attempted by two threads.
        const uint64_t key = (t / 2) * per_thread + i + 1;
        if (set.insert(key))
        {
          mine++;
        }
      }
      fresh.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads)
  {
    th.join();
  }
  EXPECT_EQ(fresh.load(), 2 * per_thread);
  EXPECT_EQ(set.size(), 2 * per_thread);
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(0));
}

// ---- Store modes: dedup semantics and collision chains ----

TEST(StoreModes, FullModeDedupsByStateOnFingerprintCollision)
{
  using Store = ShardedStateStore<NarrowFpState>;
  Store store(1); // StoreMode::full
  const int n = 1000; // only 256 fingerprints available
  for (int i = 0; i < n; ++i)
  {
    const NarrowFpState s{i};
    const auto ins = store.insert(
      s, fingerprint(s), Store::no_parent, Store::init_action, 0);
    EXPECT_TRUE(ins.inserted) << "state " << i;
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(n));

  // Re-inserting any state hits the collision chain and finds the
  // original by full comparison.
  for (int i = 0; i < n; ++i)
  {
    const NarrowFpState s{i};
    const auto ins = store.insert(
      s, fingerprint(s), Store::no_parent, Store::init_action, 1);
    EXPECT_FALSE(ins.inserted);
    EXPECT_EQ(store.record(ins.id).state(), s);
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(n));
}

TEST(StoreModes, FingerprintOnlyConflatesCollidingStates)
{
  using Store = ShardedStateStore<NarrowFpState>;
  Store store(1, fp_only());
  size_t inserted = 0;
  for (int i = 0; i < 1000; ++i)
  {
    const NarrowFpState s{i};
    inserted += store
                  .insert(
                    s, fingerprint(s), Store::no_parent, Store::init_action, 0)
                  .inserted ?
      1 :
      0;
  }
  // 1000 distinct states, at most 256 fingerprints: the TLC trade
  // deliberately conflates — dedup is by fingerprint alone.
  EXPECT_EQ(inserted, 256u);
  EXPECT_EQ(store.size(), 256u);

  // A colliding insert returns the incumbent's id.
  const NarrowFpState again{256}; // collides with {0}
  const auto ins = store.insert(
    again, fingerprint(again), Store::no_parent, Store::init_action, 0);
  EXPECT_FALSE(ins.inserted);
  EXPECT_EQ(store.record(ins.id).state(), NarrowFpState{0});
}

TEST(StoreModes, DropBodyRetiresFrontierBodies)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(1, fp_only());
  const CounterState s{5};
  const auto ins =
    store.insert(s, fingerprint(s), Store::no_parent, Store::init_action, 0);
  ASSERT_TRUE(ins.inserted);
  ASSERT_NE(store.record(ins.id).body, nullptr);
  EXPECT_EQ(store.record(ins.id).state(), s);
  const size_t with_body = store.store_bytes();

  store.drop_body(ins.id);
  EXPECT_EQ(store.record(ins.id).body, nullptr);
  EXPECT_EQ(store.record(ins.id).body, nullptr);
  EXPECT_LT(store.store_bytes(), with_body);
  store.drop_body(ins.id); // idempotent
  EXPECT_EQ(store.record(ins.id).body, nullptr);

  // The hot record survives the drop; dedup still works.
  EXPECT_FALSE(
    store.insert(s, fingerprint(s), Store::no_parent, Store::init_action, 0)
      .inserted);

  // Full mode: drop_body is a no-op.
  Store full(1);
  const auto fins =
    full.insert(s, fingerprint(s), Store::no_parent, Store::init_action, 0);
  full.drop_body(fins.id);
  EXPECT_NE(full.record(fins.id).body, nullptr);
}

// ---- Body arena: rvalue admission and chunked per-worker storage ----

TEST(BodyArena, DuplicateRvalueInsertLeavesStateUntouched)
{
  using test::CountedState;
  using Store = ShardedStateStore<CountedState>;
  for (const bool fp_mode : {false, true})
  {
    Store store(1, fp_mode ? fp_only() : StoreOptions{});
    CountedState first{3};
    const uint64_t fp = fingerprint(first);
    CountedState::reset_counts();
    const auto ins = store.insert(
      std::move(first), fp, Store::no_parent, Store::init_action, 0);
    ASSERT_TRUE(ins.inserted);
    EXPECT_EQ(ins.body->value, 3);
    EXPECT_EQ(first.value, -1) << "admitted body is moved in";
    EXPECT_EQ(CountedState::copies, 0);

    CountedState again{3};
    const auto dup = store.insert(
      std::move(again), fp, Store::no_parent, Store::init_action, 1);
    EXPECT_FALSE(dup.inserted);
    EXPECT_EQ(dup.id, ins.id);
    EXPECT_EQ(again.value, 3) << "a duplicate is not moved from";
    EXPECT_EQ(CountedState::copies, 0);
  }
}

TEST(BodyArena, BodyPointersStayValidAcrossChunks)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4);
  store.reserve_arenas(2);
  // Over two chunks per worker (1024 bodies each).
  const int n = 5000;
  std::vector<const CounterState*> bodies;
  for (int i = 0; i < n; ++i)
  {
    CounterState s{i};
    const uint64_t fp = fingerprint(s);
    const auto ins = store.insert(
      std::move(s),
      fp,
      Store::no_parent,
      Store::init_action,
      0,
      0,
      static_cast<unsigned>(i % 2));
    ASSERT_TRUE(ins.inserted);
    bodies.push_back(ins.body);
  }
  for (int i = 0; i < n; ++i)
  {
    EXPECT_EQ(bodies[static_cast<size_t>(i)]->value, i);
  }
  size_t seen = 0;
  store.for_each([&](Store::Id, const Store::RecordView& r) {
    ASSERT_NE(r.body, nullptr);
    EXPECT_EQ(bodies[static_cast<size_t>(r.body->value)], r.body);
    ++seen;
  });
  EXPECT_EQ(seen, static_cast<size_t>(n));
}

TEST(BodyArena, ReleaseAndClearDestroyEveryBody)
{
  using test::CountedState;
  using Store = ShardedStateStore<CountedState>;
  const int live_before = CountedState::live;
  const auto fill = [](Store& store, int n) {
    for (int i = 0; i < n; ++i)
    {
      const CountedState s{i};
      (void)store.insert(
        s,
        fingerprint(s),
        Store::no_parent,
        Store::init_action,
        0,
        0,
        static_cast<unsigned>(i % 2));
    }
  };
  {
    Store store(2);
    store.reserve_arenas(2);
    fill(store, 3000);
    EXPECT_EQ(CountedState::live, live_before + 3000);
    store.release_arena(0);
    store.release_arena(1);
    EXPECT_EQ(CountedState::live, live_before);
  }
  {
    Store store(2);
    store.reserve_arenas(2);
    fill(store, 3000);
    store.clear();
    EXPECT_EQ(CountedState::live, live_before);
    EXPECT_EQ(store.size(), 0u);
    // The store is reusable after clear().
    fill(store, 10);
    EXPECT_EQ(store.size(), 10u);
  }
  // Destruction frees whatever is left.
  EXPECT_EQ(CountedState::live, live_before);
}

TEST(StoreModes, OriginCountsAreWaitFreeAndSumToSize)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4, fp_only());
  for (int i = 0; i < 100; ++i)
  {
    const CounterState s{i};
    store.insert(
      s,
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

// ---- Reconstruction by replay ----

TEST(Reconstruct, FastPathWalksLiveBodies)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(1); // full mode: every body stays live
  Store::Id prev = Store::no_parent;
  for (int i = 0; i <= 5; ++i)
  {
    const CounterState s{i};
    const auto ins = store.insert(
      s,
      fingerprint(s),
      prev,
      i == 0 ? Store::init_action : 0,
      static_cast<uint32_t>(i));
    ASSERT_TRUE(ins.inserted);
    prev = ins.id;
  }
  const auto path = store.reconstruct_path(
    prev,
    {CounterState{0}},
    [](const CounterState&, uint32_t, uint32_t, const Emit<CounterState>&) {
      FAIL() << "fast path must not replay";
    });
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 6u);
  for (int i = 0; i <= 5; ++i)
  {
    EXPECT_EQ((*path)[i], CounterState{i});
  }
}

TEST(Reconstruct, ReplayRebuildsDroppedChain)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(1, fp_only());
  std::vector<Store::Id> ids;
  Store::Id prev = Store::no_parent;
  for (int i = 0; i <= 5; ++i)
  {
    const CounterState s{i};
    const auto ins = store.insert(
      s,
      fingerprint(s),
      prev,
      i == 0 ? Store::init_action : 0,
      static_cast<uint32_t>(i));
    ASSERT_TRUE(ins.inserted);
    ids.push_back(ins.id);
    prev = ins.id;
  }
  // Interior bodies retire (the engines' pattern); the target stays live.
  for (size_t i = 0; i + 1 < ids.size(); ++i)
  {
    store.drop_body(ids[i]);
  }

  // A nondeterministic action (+1 or +2): replay fans out and the target
  // body disambiguates the final level.
  const auto path = store.reconstruct_path(
    ids.back(),
    {CounterState{0}},
    [](const CounterState& s, uint32_t action, uint32_t,
       const Emit<CounterState>& emit) {
      EXPECT_EQ(action, 0u);
      emit(CounterState{s.value + 1});
      emit(CounterState{s.value + 2});
    });
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 6u);
  for (int i = 0; i <= 5; ++i)
  {
    EXPECT_EQ((*path)[i], CounterState{i}) << "replayed step " << i;
  }

  // Dropping the target body too leaves the final level ambiguous (two
  // candidates, no hint): reconstruction reports failure, not a guess.
  store.drop_body(ids.back());
  const auto ambiguous = store.reconstruct_path(
    ids.back(),
    {CounterState{0}},
    [](const CounterState& s, uint32_t, uint32_t,
       const Emit<CounterState>& emit) {
      emit(CounterState{s.value + 1});
      emit(CounterState{s.value + 2});
    });
  EXPECT_FALSE(ambiguous.has_value());

  // ...unless the caller supplies the hint explicitly.
  const CounterState want{5};
  const auto hinted = store.reconstruct_path(
    ids.back(),
    {CounterState{0}},
    [](const CounterState& s, uint32_t, uint32_t,
       const Emit<CounterState>& emit) {
      emit(CounterState{s.value + 1});
      emit(CounterState{s.value + 2});
    },
    &want);
  ASSERT_TRUE(hinted.has_value());
  EXPECT_EQ(hinted->back(), want);
}

// ---- Golden equivalence: full vs fingerprint-only, every engine ----

TEST(GoldenEquivalence, CounterViolationSequential)
{
  auto spec = counter_spec(1000);
  spec.invariants.push_back(
    {"BelowSevenHundred",
     [](const CounterState& s) { return s.value != 700; }});

  CheckLimits full;
  CheckLimits fp;
  fp.store.mode = StoreMode::fingerprint_only;
  const auto r_full = model_check(spec, full);
  const auto r_fp = model_check(spec, fp);

  ASSERT_FALSE(r_full.ok);
  ASSERT_FALSE(r_fp.ok);
  EXPECT_EQ(r_full.stats.distinct_states, r_fp.stats.distinct_states);
  EXPECT_EQ(r_full.stats.generated_states, r_fp.stats.generated_states);
  ASSERT_TRUE(r_full.counterexample.has_value());
  ASSERT_TRUE(r_fp.counterexample.has_value());
  EXPECT_EQ(r_full.counterexample->property, r_fp.counterexample->property);
  ASSERT_EQ(
    r_full.counterexample->steps.size(), r_fp.counterexample->steps.size());
  ASSERT_EQ(r_fp.counterexample->steps.size(), 701u);
  for (size_t i = 0; i < r_full.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(
      r_full.counterexample->steps[i].action,
      r_fp.counterexample->steps[i].action);
    EXPECT_EQ(
      r_full.counterexample->steps[i].state,
      r_fp.counterexample->steps[i].state);
  }
}

TEST(GoldenEquivalence, CounterViolationParallel)
{
  auto spec = counter_spec(100);
  spec.invariants.push_back(
    {"BelowFifty", [](const CounterState& s) { return s.value != 50; }});

  CheckLimits full;
  full.threads = 2;
  CheckLimits fp = full;
  fp.store.mode = StoreMode::fingerprint_only;
  const auto r_full = model_check(spec, full);
  const auto r_fp = model_check(spec, fp);

  ASSERT_FALSE(r_full.ok);
  ASSERT_FALSE(r_fp.ok);
  ASSERT_TRUE(r_fp.counterexample.has_value());
  ASSERT_EQ(
    r_full.counterexample->steps.size(), r_fp.counterexample->steps.size());
  for (size_t i = 0; i < r_full.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(
      r_full.counterexample->steps[i].state,
      r_fp.counterexample->steps[i].state);
  }
}

TEST(GoldenEquivalence, CounterCompleteRunMatches)
{
  const auto spec = counter_spec(500);
  CheckLimits fp;
  fp.store.mode = StoreMode::fingerprint_only;
  const auto r_full = model_check(spec);
  const auto r_fp = model_check(spec, fp);

  EXPECT_TRUE(r_full.ok);
  EXPECT_TRUE(r_fp.ok);
  EXPECT_TRUE(r_fp.stats.complete);
  EXPECT_EQ(r_full.stats.distinct_states, r_fp.stats.distinct_states);
  EXPECT_EQ(r_full.stats.generated_states, r_fp.stats.generated_states);
  EXPECT_EQ(r_full.stats.transitions, r_fp.stats.transitions);
  EXPECT_EQ(r_full.stats.max_depth, r_fp.stats.max_depth);
  EXPECT_GT(r_fp.stats.store_bytes, 0u);
  // Fingerprint-only retires every expanded body: resident bytes stay
  // well below full mode's keep-everything footprint.
  EXPECT_LT(r_fp.stats.store_bytes, r_full.stats.store_bytes);
}

TEST(GoldenEquivalence, ConsistencyObservedRoCounterexampleMatches)
{
  // The paper's ObservedRoInv refutation (§7): the fingerprint-only
  // checker must find the same shortest counterexample the full store
  // does, reconstructed by replay instead of stored bodies.
  specs::consistency::Params p;
  p.max_rw_txs = 1;
  p.max_ro_txs = 1;
  p.max_branches = 2;
  p.include_observed_ro = true;
  const auto spec = specs::consistency::build_spec(p);

  CheckLimits fp;
  fp.store.mode = StoreMode::fingerprint_only;
  const auto r_full = model_check(spec);
  const auto r_fp = model_check(spec, fp);

  ASSERT_FALSE(r_full.ok);
  ASSERT_FALSE(r_fp.ok);
  ASSERT_TRUE(r_full.counterexample.has_value());
  ASSERT_TRUE(r_fp.counterexample.has_value());
  EXPECT_EQ(r_fp.counterexample->property, "ObservedRoInv");
  EXPECT_EQ(r_full.stats.distinct_states, r_fp.stats.distinct_states);
  ASSERT_EQ(
    r_full.counterexample->steps.size(), r_fp.counterexample->steps.size());
  for (size_t i = 0; i < r_full.counterexample->steps.size(); ++i)
  {
    EXPECT_EQ(
      r_full.counterexample->steps[i].action,
      r_fp.counterexample->steps[i].action)
      << "step " << i;
    EXPECT_EQ(
      fingerprint(r_full.counterexample->steps[i].state),
      fingerprint(r_fp.counterexample->steps[i].state))
      << "step " << i;
  }
}

TEST(GoldenEquivalence, MemoryBudgetCutsRunAndExportsFrontier)
{
  const auto spec = counter_spec(1'000'000);
  CheckLimits limits;
  limits.store.mode = StoreMode::fingerprint_only;
  limits.store.memory_budget_bytes = 64 * 1024;
  ModelChecker<CounterState> checker(spec, limits);
  const auto result = checker.check();

  EXPECT_TRUE(result.ok); // no violation found...
  EXPECT_FALSE(result.stats.complete); // ...but the budget cut the run
  EXPECT_LT(result.stats.distinct_states, 1'000'000u);
  EXPECT_GT(result.stats.distinct_states, 0u);
  EXPECT_GT(result.stats.store_bytes, limits.store.memory_budget_bytes);
  // The unexpanded frontier is exported for campaign hand-off.
  EXPECT_FALSE(checker.take_frontier().empty());
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

  void expect_equal_validations(
    const ValidationResult<specs::ccfraft::State>& full,
    const ValidationResult<specs::ccfraft::State>& fp)
  {
    EXPECT_EQ(full.ok, fp.ok);
    EXPECT_EQ(full.lines_matched, fp.lines_matched);
    EXPECT_EQ(full.frontier_sizes, fp.frontier_sizes);
    EXPECT_EQ(full.states_explored, fp.states_explored);
    ASSERT_EQ(full.witness.size(), fp.witness.size());
    for (size_t i = 0; i < full.witness.size(); ++i)
    {
      EXPECT_EQ(fingerprint(full.witness[i]), fingerprint(fp.witness[i]))
        << "witness step " << i;
    }
  }
}

TEST(GoldenEquivalence, ConsensusTraceBfsWitnessMatches)
{
  const auto events = small_consensus_trace(113);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions full;
  full.search.mode = SearchMode::Bfs;
  trace::ConsensusValidationOptions fp = full;
  fp.search.store.mode = StoreMode::fingerprint_only;

  const auto r_full = trace::validate_consensus_trace(events, p, full);
  const auto r_fp = trace::validate_consensus_trace(events, p, fp);
  ASSERT_TRUE(r_full.ok);
  ASSERT_TRUE(r_fp.ok);
  EXPECT_EQ(r_fp.witness.size(), trace::preprocess(events).size() + 1);
  expect_equal_validations(r_full, r_fp);
  EXPECT_GT(r_fp.stats.store_bytes, 0u);
}

TEST(GoldenEquivalence, FaultComposedWitnessReplayMatches)
{
  // IsFault · Next composition (Listing 5): each trace line here demands
  // a jump of 2 while the line expander only steps by 1, so EVERY witness
  // step needs exactly one composed (unlogged) fault. The fingerprint-only
  // witness replay runs through the same with_faults() expansion as the
  // search — full-trace BFS with fault composition on the consensus spec
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

  ValidationOptions full;
  full.mode = SearchMode::Bfs;
  full.max_faults_per_step = 1;
  ValidationOptions fp = full;
  fp.store.mode = StoreMode::fingerprint_only;

  TraceValidator<CounterState> v_full({CounterState{0}}, lines, full);
  v_full.set_fault_expander(fault);
  const auto r_full = v_full.run();
  TraceValidator<CounterState> v_fp({CounterState{0}}, lines, fp);
  v_fp.set_fault_expander(fault);
  const auto r_fp = v_fp.run();

  ASSERT_TRUE(r_full.ok);
  ASSERT_TRUE(r_fp.ok);
  EXPECT_EQ(r_full.lines_matched, r_fp.lines_matched);
  EXPECT_EQ(r_full.frontier_sizes, r_fp.frontier_sizes);
  EXPECT_EQ(r_full.states_explored, r_fp.states_explored);
  ASSERT_EQ(r_full.witness.size(), 7u);
  ASSERT_EQ(r_fp.witness.size(), 7u);
  for (size_t i = 0; i < 7; ++i)
  {
    // Fault steps fold into the line they precede: the witness lands on
    // the even values only.
    EXPECT_EQ(r_full.witness[i], CounterState{2 * static_cast<int>(i)});
    EXPECT_EQ(r_fp.witness[i], r_full.witness[i]);
  }
}

TEST(GoldenEquivalence, ConsensusTraceParallelBfsFpOnlyMatchesSequential)
{
  const auto events = small_consensus_trace(113);
  const auto p =
    trace::validation_params({1, 2, 3}, 1, 3, consensus::BugFlags{});

  trace::ConsensusValidationOptions seq;
  seq.search.mode = SearchMode::Bfs;
  seq.search.store.mode = StoreMode::fingerprint_only;
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

  trace::ConsensusValidationOptions full;
  full.search.mode = SearchMode::Bfs;
  trace::ConsensusValidationOptions fp = full;
  fp.search.store.mode = StoreMode::fingerprint_only;

  const auto r_full = trace::validate_consensus_trace(events, p, full);
  const auto r_fp = trace::validate_consensus_trace(events, p, fp);
  EXPECT_FALSE(r_full.ok);
  EXPECT_FALSE(r_fp.ok);
  EXPECT_EQ(r_full.lines_matched, r_fp.lines_matched);
  EXPECT_EQ(r_full.failed_line, r_fp.failed_line);
  EXPECT_EQ(
    r_full.frontier_at_failure.size(), r_fp.frontier_at_failure.size());
}

// ---- Rehash under concurrent insert (TSan) ----

TEST(StoreConcurrency, RehashUnderContention)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4, fp_only());
  constexpr unsigned n_threads = 4;
  constexpr int per_thread = 50'000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n_threads; ++t)
  {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < per_thread; ++i)
      {
        const int value = static_cast<int>(t) * per_thread + i;
        const CounterState s{value};
        // Injective synthetic fingerprint: every state distinct, inserts
        // spread over all shards, tables rehash many times under load.
        store.insert(
          s,
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
    const CounterState s{value};
    EXPECT_FALSE(store
                   .insert(
                     s,
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
  StoreOptions options = fp_only();
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
    const CounterState s{static_cast<int>(i)};
    const auto ins = store.insert(
      s,
      static_cast<uint64_t>(i) + 1,
      prev,
      i == 0 ? Store::init_action : i % 7,
      i,
      static_cast<uint8_t>(i % 3));
    ASSERT_TRUE(ins.inserted);
    ids.push_back(ins.id);
    store.drop_body(ins.id);
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
    const CounterState s{static_cast<int>(i)};
    const auto ins = store.insert(
      s, static_cast<uint64_t>(i) + 1, prev, i % 7, i);
    ASSERT_TRUE(ins.inserted);
    store.drop_body(ins.id);
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
  StoreOptions options = fp_only();
  options.spill_dir = make_spill_dir();
  Store store(1, options);

  Store::Id prev = Store::no_parent;
  for (uint32_t i = 0; i < 70000; ++i)
  {
    const CounterState s{static_cast<int>(i)};
    prev = store
             .insert(
               s,
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
    store.insert(s, fingerprint(s), Store::no_parent, Store::init_action, 0);
  EXPECT_TRUE(ins.inserted);
  EXPECT_EQ(store.record(ins.id).state(), s);

  ::rmdir(options.spill_dir.c_str());
}

TEST(Spill, CheckerSpillsAtHousekeepingPointsAndStaysCorrect)
{
  // End-to-end: a sequential fingerprint-only check with an aggressive
  // spill policy (zero budget) still explores the exact same space and
  // reports spilled bytes once the arena freezes a block (>65536 states).
  auto spec = counter_spec(200'000);
  CheckLimits fp;
  fp.store.mode = StoreMode::fingerprint_only;
  fp.store.spill_dir = make_spill_dir();
  const auto r_fp = model_check(spec, fp);
  const auto r_full = model_check(spec);

  EXPECT_TRUE(r_fp.ok);
  EXPECT_TRUE(r_fp.stats.complete);
  EXPECT_EQ(r_fp.stats.distinct_states, r_full.stats.distinct_states);
  EXPECT_GT(r_fp.stats.spilled_bytes, 0u);
  ::rmdir(fp.store.spill_dir.c_str());
}
