// Tests for verification campaigns: the TimeBox scheduler, Budget
// parent/child splits, cross-engine seeding through the shared store
// (checker first; union == sum of contributions), and threads=1 golden
// results that pin the unified entry points to the pre-redesign engines'
// output.
#include <gtest/gtest.h>

#include "spec/campaign.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "spec/trace_validator.h"
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

  /// A trace of `n` increments: line i matches exactly the transition to
  /// value i+1.
  std::vector<TraceLineExpander<CounterState>> increment_trace(int n)
  {
    std::vector<TraceLineExpander<CounterState>> lines;
    for (int i = 1; i <= n; ++i)
    {
      lines.push_back(
        {"Increment to " + std::to_string(i),
         [i](const CounterState& s, const Emit<CounterState>& emit) {
           if (s.value + 1 == i)
           {
             emit(CounterState{i});
           }
         }});
    }
    return lines;
  }

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
}

// ---------------------------------------------------------------------------
// TimeBox and Budget::child
// ---------------------------------------------------------------------------

TEST(TimeBox, SplitsByWeightAndDonatesLeftoverForward)
{
  // No wall clock elapses between begin_phase calls, so each phase's
  // "leftover" is its entire allotment — later allotments grow above
  // their naive share of the box, which is exactly the reassignment the
  // scheduler exists for.
  TimeBox box(100.0, {0.5, 0.3, 0.2});
  const double first = box.begin_phase();
  EXPECT_NEAR(first, 50.0, 1.0); // 100 * 0.5 / (0.5+0.3+0.2)
  const double second = box.begin_phase();
  // Naive share would be 30; phase 1 spent ~nothing, so phase 2 inherits
  // its leftover: remaining(~100) * 0.3 / (0.3+0.2) = ~60.
  EXPECT_GT(second, 50.0);
  EXPECT_NEAR(second, 60.0, 2.0);
  const double third = box.begin_phase();
  // Last phase gets everything that remains.
  EXPECT_NEAR(third, 100.0, 2.0);
}

TEST(TimeBox, PhasesPastWeightsGetAllRemaining)
{
  TimeBox box(10.0, {1.0});
  EXPECT_NEAR(box.begin_phase(), 10.0, 0.5);
  EXPECT_NEAR(box.begin_phase(), 10.0, 0.5); // unweighted trailing phase
}

TEST(BudgetChild, ClampsToParentRemaining)
{
  const Budget parent(Budget::Caps{2.0, UINT64_MAX, UINT64_MAX});
  const Budget child = parent.child(100.0);
  EXPECT_LE(child.caps().time_budget_seconds, 2.0);
  const Budget small = parent.child(0.5);
  EXPECT_NEAR(small.caps().time_budget_seconds, 0.5, 0.1);
}

TEST(BudgetChild, InheritsParentStopFlag)
{
  std::atomic<bool> stop{false};
  Budget parent(Budget::Caps{100.0, UINT64_MAX, UINT64_MAX});
  parent.set_stop_flag(&stop);
  const Budget child = parent.child(50.0);
  EXPECT_FALSE(child.time_exhausted());
  stop.store(true);
  EXPECT_TRUE(child.time_exhausted());
}

// ---------------------------------------------------------------------------
// Cross-engine seeding through one shared store
// ---------------------------------------------------------------------------

// Simulator first, checker second is refused. The store keeps no state
// bodies, so a checker could not expand the states another engine had
// admitted: its BFS would start from an empty frontier (the initial state
// is already in the store) and report a complete check of a space it
// never explored. The repro is a simulator run (seed 9, 20 behaviors) into
// a shared store on the small consensus model; the checker attached after
// it refuses, and a campaign run in that order never reports a checker
// phase, complete or otherwise.
TEST(CampaignSeeding, CheckerRefusesStoreTheSimulatorFilled)
{
  using State = specs::ccfraft::State;
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());

  SimOptions sim_options;
  sim_options.seed = 9;
  sim_options.max_behaviors = 20;
  sim_options.max_depth = 12;
  sim_options.time_budget_seconds = 30.0;

  ShardedStateStore<State> store(1);
  Simulator<State> sim(spec, sim_options);
  sim.attach_store(&store, EngineId::Simulator);
  (void)sim.run();
  ASSERT_GT(store.size(), 0u);
  ModelChecker<State> checker(spec);
  EXPECT_THROW(checker.attach_store(&store, EngineId::Checker), CheckFailure);

  Campaign<State>::Options options;
  options.total_seconds = 30.0;
  options.sim = sim_options;
  Campaign<State> campaign(spec, options);
  (void)campaign.run_simulator();
  EXPECT_THROW((void)campaign.run_checker(), CheckFailure);
  EXPECT_EQ(campaign.report().phase(EngineId::Checker), nullptr);

  // A second check() over the store its first run filled is the same
  // order, and is refused the same way.
  const auto counter = counter_spec(10);
  ShardedStateStore<CounterState> shared(1);
  ModelChecker<CounterState> once(counter);
  once.attach_store(&shared, EngineId::Checker);
  EXPECT_TRUE(once.check().stats.complete);
  EXPECT_THROW((void)once.check(), CheckFailure);
}

// Checker first with a tight cap, simulator second: walks start from the
// checker's unexpanded frontier, not the initial states.
TEST(CampaignSeeding, CheckerFrontierSeedsSimulatorWalksOnCounter)
{
  const auto spec = counter_spec(1000);
  Campaign<CounterState>::Options options;
  options.total_seconds = 30.0;
  options.check.max_distinct_states = 5;
  options.sim.seed = 1;
  options.sim.max_behaviors = 8;
  options.sim.max_depth = 10;
  Campaign<CounterState> campaign(spec, options);

  const auto check_result = campaign.run_checker();
  EXPECT_TRUE(check_result.ok);
  EXPECT_FALSE(check_result.stats.complete);
  ASSERT_FALSE(campaign.frontier().empty());
  // The counter BFS admits 0..4 before the cap: the frontier (admitted,
  // unexpanded) holds the deepest admitted value.
  int max_frontier = 0;
  for (const CounterState& s : campaign.frontier())
  {
    max_frontier = std::max(max_frontier, s.value);
  }
  EXPECT_GE(max_frontier, 4);

  const auto sim_result = campaign.run_simulator();
  EXPECT_TRUE(sim_result.ok);
  // Every walk was seeded from the frontier...
  EXPECT_EQ(sim_result.stats.seeded_states, sim_result.behaviors);
  EXPECT_GT(sim_result.behaviors, 0u);
  // ...so the simulator only discovered values past the frontier: its
  // fresh contribution is disjoint from the checker's 0..4.
  const auto report = campaign.report();
  const PhaseReport* check_phase = report.phase(EngineId::Checker);
  const PhaseReport* sim_phase = report.phase(EngineId::Simulator);
  ASSERT_NE(check_phase, nullptr);
  ASSERT_NE(sim_phase, nullptr);
  EXPECT_EQ(
    check_phase->store_new + sim_phase->store_new, report.union_distinct);
  EXPECT_GT(sim_phase->store_new, 0u);
}

TEST(CampaignSeeding, CheckerFrontierSeedsSimulatorWalksOnConsensus)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  Campaign<specs::ccfraft::State>::Options options;
  options.total_seconds = 60.0;
  options.check.max_distinct_states = 200; // cut the BFS early
  options.sim.seed = 4;
  options.sim.max_behaviors = 10;
  options.sim.max_depth = 10;
  Campaign<specs::ccfraft::State> campaign(spec, options);

  const auto check_result = campaign.run_checker();
  EXPECT_TRUE(check_result.ok);
  EXPECT_FALSE(check_result.stats.complete);
  EXPECT_FALSE(campaign.frontier().empty());

  const auto sim_result = campaign.run_simulator();
  EXPECT_TRUE(sim_result.ok);
  EXPECT_EQ(sim_result.stats.seeded_states, sim_result.behaviors);
  EXPECT_GT(sim_result.behaviors, 0u);

  const auto report = campaign.report();
  EXPECT_EQ(
    report.phase(EngineId::Checker)->store_new +
      report.phase(EngineId::Simulator)->store_new,
    report.union_distinct);
  // Union covers at least what either engine contributed.
  EXPECT_GE(
    report.union_distinct, report.phase(EngineId::Checker)->store_new);
  EXPECT_GE(
    report.union_distinct, report.phase(EngineId::Simulator)->store_new);
}

// Walk seeds route the walk starts themselves: on a monotone counter,
// walks seeded at value 5 can never visit smaller values.
TEST(CampaignSeeding, WalkSeedsReplaceInitialStates)
{
  const auto spec = counter_spec(100);
  SimOptions options;
  options.seed = 2;
  options.max_behaviors = 6;
  options.max_depth = 4;
  options.time_budget_seconds = 30.0;
  Simulator<CounterState> sim(spec, options);
  sim.set_walk_seeds({CounterState{5}});
  int min_seen = 1 << 30;
  sim.set_observer(
    [&min_seen](const CounterState& s) { min_seen = std::min(min_seen, s.value); });
  const auto result = sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.stats.seeded_states, result.behaviors);
  EXPECT_EQ(min_seen, 5);
}

// The trace validator's coverage tap: states another engine already
// admitted are deduplicated, new candidates are tagged Validator.
TEST(CampaignSeeding, ValidatorCoverageDedupsAgainstOtherEngines)
{
  const auto spec = counter_spec(100);
  ShardedStateStore<CounterState> store(1);

  // Pre-discover 0..5 with a capped checker.
  CheckLimits limits;
  limits.max_distinct_states = 6;
  ModelChecker<CounterState> checker(spec, limits);
  checker.attach_store(&store, EngineId::Checker);
  (void)checker.check();
  const uint64_t checker_new =
    store.origin_count(static_cast<uint8_t>(EngineId::Checker));
  ASSERT_GE(checker_new, 6u);

  // Validate a 10-line increment trace: candidates 0..10, of which only
  // the ones past the checker's coverage are new.
  ValidationOptions vopts;
  vopts.mode = SearchMode::Dfs;
  TraceValidator<CounterState> validator(
    {CounterState{0}}, increment_trace(10), vopts);
  validator.set_coverage_store(&store, EngineId::Validator);
  const auto result = validator.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.engine, EngineId::Validator);

  const uint64_t validator_new =
    store.origin_count(static_cast<uint8_t>(EngineId::Validator));
  EXPECT_EQ(validator_new, 11u - checker_new);
  EXPECT_EQ(store.size(), 11u);
  EXPECT_EQ(checker_new + validator_new, store.size());
}

// ---------------------------------------------------------------------------
// Full campaign runs
// ---------------------------------------------------------------------------

TEST(Campaign, AllThreePhasesRunAndPartitionTheUnion)
{
  const auto spec = counter_spec(50);
  Campaign<CounterState>::Options options;
  options.total_seconds = 30.0;
  options.sim.seed = 7;
  options.sim.max_behaviors = 4;
  options.sim.max_depth = 5;
  Campaign<CounterState> campaign(spec, options);
  campaign.add_trace(
    "increments", {CounterState{0}}, increment_trace(8));

  const auto report = campaign.run();
  ASSERT_EQ(report.phases.size(), 3u);
  uint64_t contributions = 0;
  for (const PhaseReport& phase : report.phases)
  {
    EXPECT_TRUE(phase.ran) << engine_name(phase.engine);
    EXPECT_TRUE(phase.ok) << engine_name(phase.engine);
    EXPECT_GT(phase.allotted_seconds, 0.0);
    EXPECT_GE(report.union_distinct, phase.store_new);
    contributions += phase.store_new;
  }
  // Per-engine contributions partition the union exactly.
  EXPECT_EQ(contributions, report.union_distinct);
  // The checker completed the 51-state space; everything else deduped.
  EXPECT_EQ(report.union_distinct, 51u);
  EXPECT_EQ(report.phase(EngineId::Checker)->store_new, 51u);
  EXPECT_EQ(report.phase(EngineId::Simulator)->store_new, 0u);
  EXPECT_EQ(report.phase(EngineId::Validator)->store_new, 0u);

  // Report renderings carry the union and every engine name.
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("checker"), std::string::npos);
  EXPECT_NE(summary.find("simulator"), std::string::npos);
  EXPECT_NE(summary.find("validator"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"union_distinct\":51"), std::string::npos);
}

TEST(Campaign, ValidatorPhaseSkippedWithoutTraces)
{
  const auto spec = counter_spec(10);
  Campaign<CounterState>::Options options;
  options.total_seconds = 10.0;
  options.sim.max_behaviors = 2;
  options.sim.max_depth = 3;
  Campaign<CounterState> campaign(spec, options);
  const auto report = campaign.run();
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_TRUE(report.phase(EngineId::Checker)->ran);
  EXPECT_TRUE(report.phase(EngineId::Simulator)->ran);
  EXPECT_FALSE(report.phase(EngineId::Validator)->ran);
}

TEST(Campaign, LeftoverBudgetReassignmentIsVisibleInStats)
{
  // The checker exhausts a tiny space almost instantly; the simulator's
  // allotment must then exceed its naive share of the box, and the
  // allotment each phase ran under is visible as stats.budget_seconds.
  const auto spec = counter_spec(20);
  Campaign<CounterState>::Options options;
  options.total_seconds = 20.0;
  options.check_weight = 0.5;
  options.sim_weight = 0.3;
  options.validate_weight = 0.2;
  options.sim.max_behaviors = 3;
  options.sim.max_depth = 3;
  Campaign<CounterState> campaign(spec, options);
  const auto report = campaign.run();

  const PhaseReport* sim_phase = report.phase(EngineId::Simulator);
  ASSERT_NE(sim_phase, nullptr);
  const double naive_share = 20.0 * 0.3;
  EXPECT_GT(sim_phase->allotted_seconds, naive_share);
  EXPECT_GT(sim_phase->stats.budget_seconds, naive_share);
}

// ---------------------------------------------------------------------------
// threads=1 golden results: the unified entry points must reproduce the
// pre-redesign engines bit for bit. These constants were produced by the
// pre-unification sequential engines.
// ---------------------------------------------------------------------------

namespace
{
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
}

TEST(GoldenThreadsOne, ModelCheckCounterMatchesPreRedesignOutput)
{
  CheckLimits limits;
  limits.threads = 1;
  const auto result = model_check(counter_spec(100), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 101u);
  EXPECT_EQ(result.stats.generated_states, 101u);
  EXPECT_EQ(result.stats.transitions, 100u);
  EXPECT_EQ(result.stats.max_depth, 100u);
  EXPECT_EQ(result.stats.action_coverage.at("Increment"), 100u);
}

TEST(GoldenThreadsOne, ModelCheckDieHardMatchesPreRedesignOutput)
{
  CheckLimits limits;
  limits.threads = 1;
  const auto result = model_check(die_hard_spec(), limits);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "NotFourGallons");
  // The classic shortest solution: 7 steps, ending at big == 4.
  ASSERT_EQ(result.counterexample->steps.size(), 7u);
  EXPECT_EQ(result.counterexample->steps.front().action, "<init>");
  EXPECT_EQ(result.counterexample->steps.back().state.big, 4);
}

TEST(GoldenThreadsOne, SimulateCounterMatchesPreRedesignOutput)
{
  SimOptions options;
  options.seed = 1;
  options.max_behaviors = 10;
  options.max_depth = 7;
  options.time_budget_seconds = 30.0;
  options.threads = 1;
  const auto result = simulate(counter_spec(100), options);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.engine, EngineId::Simulator);
  // Deterministic seeded walks: 10 behaviors of 7 increments each from 0
  // visit exactly values 0..7.
  EXPECT_EQ(result.behaviors, 10u);
  EXPECT_EQ(result.stats.transitions, 70u);
  EXPECT_EQ(result.stats.distinct_states, 8u);
}

TEST(GoldenThreadsOne, ValidateIncrementTraceMatchesPreRedesignOutput)
{
  for (const SearchMode mode : {SearchMode::Dfs, SearchMode::Bfs})
  {
    ValidationOptions options;
    options.mode = mode;
    options.threads = 1;
    TraceValidator<CounterState> validator(
      {CounterState{0}}, increment_trace(6), options);
    const auto result = validator.run();
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.lines_matched, 6u);
    EXPECT_EQ(result.states_explored, 6u);
    ASSERT_EQ(result.witness.size(), 7u);
    for (int i = 0; i <= 6; ++i)
    {
      EXPECT_EQ(result.witness[static_cast<size_t>(i)].value, i);
    }
  }
}
