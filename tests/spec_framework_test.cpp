// Tests for the spec framework itself (model checker, simulator, trace
// validator) against small well-understood specs: a bounded counter, the
// classic Die Hard jugs puzzle (known shortest counterexample), and
// hand-built traces.
#include <gtest/gtest.h>

#include "counted_state.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "spec/trace_validator.h"

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

  // Die Hard: 3- and 5-gallon jugs; reach exactly 4 in the big jug.
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

TEST(ModelChecker, ExhaustsBoundedCounter)
{
  const auto result = model_check(counter_spec(10));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 11u);
  EXPECT_EQ(result.stats.max_depth, 10u);
}

TEST(ModelChecker, InvariantViolationYieldsShortestTrace)
{
  auto spec = counter_spec(10);
  spec.invariants.push_back(
    {"BelowFive", [](const CounterState& s) { return s.value < 5; }});
  const auto result = model_check(spec);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "BelowFive");
  // BFS guarantees the shortest path: init + 5 increments.
  ASSERT_EQ(result.counterexample->steps.size(), 6u);
  EXPECT_EQ(result.counterexample->steps.front().action, "<init>");
  EXPECT_EQ(result.counterexample->steps.back().state.value, 5);
}

TEST(ModelChecker, DieHardSolvedWithShortestSolution)
{
  const auto result = model_check(die_hard_spec());
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  // The classic solution takes 6 steps.
  EXPECT_EQ(result.counterexample->steps.size(), 7u);
  EXPECT_EQ(result.counterexample->steps.back().state.big, 4);
}

TEST(ModelChecker, DieHardStateSpaceIsExactly16)
{
  auto spec = die_hard_spec();
  spec.invariants.clear();
  const auto result = model_check(spec);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  // Reachable states of the two-jug system: known to be 16.
  EXPECT_EQ(result.stats.distinct_states, 16u);
}

TEST(ModelChecker, ActionPropertyViolationDetected)
{
  auto spec = counter_spec(10);
  // Add a buggy decrement and the monotonicity property it violates.
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
  const auto result = model_check(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample->property, "Monotonic");
  EXPECT_EQ(result.counterexample->steps.back().action, "Decrement");
}

TEST(ModelChecker, StateConstraintPrunesExploration)
{
  auto spec = counter_spec(1000);
  spec.constraint = [](const CounterState& s) { return s.value < 5; };
  const auto result = model_check(spec);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  // States 0..5 are discovered; successors of 5 are not explored.
  EXPECT_EQ(result.stats.distinct_states, 6u);
}

TEST(ModelChecker, LimitsStopExploration)
{
  CheckLimits limits;
  limits.max_distinct_states = 5;
  const auto result = model_check(counter_spec(1000), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.stats.complete);
  EXPECT_LE(result.stats.distinct_states, 5u);
}

TEST(ModelChecker, DepthLimitRespected)
{
  CheckLimits limits;
  limits.max_depth = 3;
  const auto result = model_check(counter_spec(1000), limits);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 4u); // 0..3
}

TEST(Simulator, FindsViolationInRandomWalks)
{
  auto spec = counter_spec(20);
  spec.invariants.push_back(
    {"BelowTen", [](const CounterState& s) { return s.value < 10; }});
  SimOptions options;
  options.seed = 5;
  options.max_depth = 30;
  options.time_budget_seconds = 5.0;
  const auto result = simulate(spec, options);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample->property, "BelowTen");
  EXPECT_EQ(result.counterexample->steps.back().state.value, 10);
}

TEST(Simulator, DeterministicUnderSeed)
{
  auto spec = die_hard_spec();
  SimOptions options;
  options.seed = 42;
  options.max_behaviors = 50;
  options.max_depth = 10;
  options.time_budget_seconds = 10.0;
  const auto r1 = simulate(spec, options);
  const auto r2 = simulate(spec, options);
  EXPECT_EQ(r1.ok, r2.ok);
  EXPECT_EQ(r1.stats.transitions, r2.stats.transitions);
  EXPECT_EQ(r1.stats.distinct_states, r2.stats.distinct_states);
}

TEST(Simulator, ZeroWeightActionNeverTaken)
{
  auto spec = counter_spec(10);
  bool decremented = false;
  spec.actions.push_back(
    {"Decrement",
     [&decremented](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value > 0)
       {
         emit(CounterState{s.value - 1});
       }
       (void)decremented;
     },
     0.0});
  spec.action_properties.push_back(
    {"NeverDecrement", [](const CounterState& a, const CounterState& b) {
       return b.value >= a.value;
     }});
  SimOptions options;
  options.seed = 3;
  options.max_behaviors = 200;
  options.max_depth = 15;
  options.time_budget_seconds = 10.0;
  const auto result = simulate(spec, options);
  EXPECT_TRUE(result.ok); // the zero-weight action is never selected
}

TEST(Simulator, WeightsBiasActionChoice)
{
  // Two competing self-loop-free actions: up (weight 10) and down (1).
  SpecDef<CounterState> def;
  def.init = {CounterState{500}};
  def.actions.push_back(
    {"Up",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       emit(CounterState{s.value + 1});
     },
     10.0});
  def.actions.push_back(
    {"Down",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       emit(CounterState{s.value - 1});
     },
     1.0});
  SimOptions options;
  options.seed = 7;
  options.max_behaviors = 1;
  options.max_depth = 1000;
  options.time_budget_seconds = 10.0;

  Simulator<CounterState> weighted(def, options);
  int last_weighted = 0;
  weighted.set_observer(
    [&last_weighted](const CounterState& s) { last_weighted = s.value; });
  (void)weighted.run();
  EXPECT_GT(last_weighted, 700); // strong upward drift

  options.use_weights = false;
  Simulator<CounterState> uniform(def, options);
  int last_uniform = 0;
  uniform.set_observer(
    [&last_uniform](const CounterState& s) { last_uniform = s.value; });
  (void)uniform.run();
  EXPECT_LT(last_uniform, 700); // near-random walk stays close to start
}

TEST(Simulator, QLearningPrefersNoveltyProducingActions)
{
  // Two actions: Productive moves to fresh states, Stuck self-loops.
  // Q-learning should learn to favor Productive and reach deeper values
  // than uniform choice within the same number of steps.
  SpecDef<CounterState> def;
  def.init = {CounterState{0}};
  def.actions.push_back(
    {"Productive",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       emit(CounterState{s.value + 1});
     },
     1.0});
  def.actions.push_back(
    {"Stuck",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       emit(CounterState{s.value}); // revisits the same state
     },
     1.0});

  const auto deepest = [&def](WeightingMode mode) {
    SimOptions options;
    options.seed = 9;
    options.max_behaviors = 1;
    options.max_depth = 2000;
    options.time_budget_seconds = 20.0;
    options.mode = mode;
    Simulator<CounterState> sim(def, options);
    // A generalizing feature hash: every state shares one bucket, so the
    // learned action values transfer along the walk. (With the default
    // per-state fingerprint nothing generalizes — which is exactly the
    // paper's difficulty in choosing H.)
    sim.set_q_features([](const CounterState&) { return 1ull; });
    int deepest_value = 0;
    sim.set_observer([&deepest_value](const CounterState& s) {
      deepest_value = std::max(deepest_value, s.value);
    });
    (void)sim.run();
    return deepest_value;
  };

  const int uniform = deepest(WeightingMode::Uniform);
  const int qlearning = deepest(WeightingMode::QLearning);
  EXPECT_GT(qlearning, uniform);
  // With epsilon 0.1, nearly every greedy step should be Productive.
  EXPECT_GT(qlearning, 1500);
}

TEST(Simulator, QLearningCustomFeatures)
{
  // A coarse feature hash (all states in one bucket) still runs and
  // terminates; it just cannot distinguish states — the paper's H-choice
  // difficulty in miniature.
  auto def = counter_spec(50);
  SimOptions options;
  options.seed = 3;
  options.max_behaviors = 20;
  options.max_depth = 60;
  options.time_budget_seconds = 10.0;
  options.mode = WeightingMode::QLearning;
  Simulator<CounterState> sim(def, options);
  sim.set_q_features([](const CounterState&) { return 42ull; });
  const auto result = sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.stats.transitions, 0u);
}

namespace
{
  /// Trace line for the counter: "value became v".
  TraceLineExpander<CounterState> counter_line(int v)
  {
    return {
      "value=" + std::to_string(v),
      [v](const CounterState& s, const Emit<CounterState>& emit) {
        if (s.value + 1 == v)
        {
          emit(CounterState{v});
        }
      }};
  }
}

TEST(TraceValidator, ValidTracePassesBothModes)
{
  for (const SearchMode mode : {SearchMode::Dfs, SearchMode::Bfs})
  {
    ValidationOptions options;
    options.mode = mode;
    TraceValidator<CounterState> v(
      {CounterState{0}}, {counter_line(1), counter_line(2), counter_line(3)},
      options);
    const auto result = v.run();
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.lines_matched, 3u);
  }
}

TEST(TraceValidator, InvalidTraceReportsDeepestLine)
{
  for (const SearchMode mode : {SearchMode::Dfs, SearchMode::Bfs})
  {
    ValidationOptions options;
    options.mode = mode;
    // Line 3 skips a value: no behavior matches.
    TraceValidator<CounterState> v(
      {CounterState{0}}, {counter_line(1), counter_line(2), counter_line(4)},
      options);
    const auto result = v.run();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.lines_matched, 2u);
    EXPECT_EQ(result.failed_line, "value=4");
    ASSERT_FALSE(result.frontier_at_failure.empty());
    EXPECT_EQ(result.frontier_at_failure.front().value, 2);
  }
}

TEST(TraceValidator, FaultCompositionBridgesUnloggedSteps)
{
  // The trace "jumps" from 0 to 2: only valid if an unlogged increment
  // (the fault action) is composed before the line (IsFault · Next, §6.2).
  ValidationOptions options;
  options.mode = SearchMode::Dfs;
  TraceValidator<CounterState> without(
    {CounterState{0}}, {counter_line(2)}, options);
  EXPECT_FALSE(without.run().ok);

  options.max_faults_per_step = 1;
  TraceValidator<CounterState> with(
    {CounterState{0}}, {counter_line(2)}, options);
  with.set_fault_expander(
    [](const CounterState& s, const Emit<CounterState>& emit) {
      emit(CounterState{s.value + 1});
    });
  EXPECT_TRUE(with.run().ok);
}

TEST(TraceValidator, DfsReturnsWitnessBehavior)
{
  ValidationOptions options;
  options.mode = SearchMode::Dfs;
  TraceValidator<CounterState> v(
    {CounterState{0}}, {counter_line(1), counter_line(2)}, options);
  const auto result = v.run();
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.witness.size(), 3u); // init + 2 steps
  EXPECT_EQ(result.witness.back().value, 2);
}

TEST(TraceValidator, BfsTracksFrontierSizes)
{
  // A nondeterministic expander: each line allows +1 or +2.
  const auto fuzzy_line = [](int line) {
    return TraceLineExpander<CounterState>{
      "fuzzy" + std::to_string(line),
      [](const CounterState& s, const Emit<CounterState>& emit) {
        emit(CounterState{s.value + 1});
        emit(CounterState{s.value + 2});
      }};
  };
  ValidationOptions options;
  options.mode = SearchMode::Bfs;
  TraceValidator<CounterState> v(
    {CounterState{0}}, {fuzzy_line(0), fuzzy_line(1), fuzzy_line(2)},
    options);
  const auto result = v.run();
  EXPECT_TRUE(result.ok);
  // Frontier: {1,2} -> {2,3,4} -> {3,...}. The search stops at the first
  // state past the last line, as TLC stops at its first violation, so the
  // last line counts that one state: sizes 2, 3, 1.
  EXPECT_EQ(result.frontier_sizes, (std::vector<size_t>{2, 3, 1}));
}

TEST(Reachability, FindsShortestWitness)
{
  const auto result = find_reachable<CounterState>(
    counter_spec(20), "ReachSeven",
    [](const CounterState& s) { return s.value == 7; });
  ASSERT_TRUE(result.reachable);
  EXPECT_TRUE(result.definitive);
  EXPECT_EQ(result.witness.size(), 8u); // init + 7 increments (shortest)
  EXPECT_EQ(result.witness.back().state.value, 7);
}

TEST(Reachability, UnreachableIsDefinitiveWhenComplete)
{
  const auto result = find_reachable<CounterState>(
    counter_spec(5), "ReachTen",
    [](const CounterState& s) { return s.value == 10; });
  EXPECT_FALSE(result.reachable);
  EXPECT_TRUE(result.definitive); // the bounded space was exhausted
}

TEST(Reachability, IndefiniteUnderLimits)
{
  CheckLimits limits;
  limits.max_distinct_states = 3;
  const auto result = find_reachable<CounterState>(
    counter_spec(100), "ReachFifty",
    [](const CounterState& s) { return s.value == 50; }, limits);
  EXPECT_FALSE(result.reachable);
  EXPECT_FALSE(result.definitive); // exploration was cut short
}

TEST(ModelChecker, ReportsActionCoverage)
{
  auto spec = counter_spec(10);
  spec.actions.push_back(
    {"NeverEnabled",
     [](const CounterState&, const Emit<CounterState>&) {},
     1.0});
  const auto result = model_check(spec);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.action_coverage.at("Increment"), 10u);
  EXPECT_EQ(result.stats.action_coverage.count("NeverEnabled"), 0u);
  const std::string report = result.stats.coverage_report();
  EXPECT_NE(report.find("Increment: 10"), std::string::npos);
}

TEST(Simulator, ReportsActionCoverage)
{
  const auto spec = counter_spec(5);
  SimOptions options;
  options.seed = 2;
  options.max_behaviors = 10;
  options.max_depth = 5;
  options.time_budget_seconds = 5.0;
  const auto result = simulate(spec, options);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.stats.action_coverage.at("Increment"), 0u);
}

TEST(Fingerprint, EqualStatesEqualFingerprints)
{
  EXPECT_EQ(fingerprint(CounterState{7}), fingerprint(CounterState{7}));
  EXPECT_NE(fingerprint(CounterState{7}), fingerprint(CounterState{8}));
}

TEST(Stats, StatesPerMinute)
{
  ExplorationStats stats;
  stats.generated_states = 600;
  stats.seconds = 60.0;
  EXPECT_DOUBLE_EQ(stats.states_per_minute(), 600.0);
  EXPECT_NE(stats.summary().find("generated=600"), std::string::npos);
}

// ---- Emit: the non-allocating successor callback (docs/SPEC.md "The Emit
// contract") ----

using scv::test::CountedState;

TEST(Emit, RvalueEmitMakesNoCopy)
{
  std::vector<CountedState> got;
  got.reserve(2);
  const Emit<CountedState> emit = [&](CountedState&& s) {
    got.push_back(std::move(s));
  };
  CountedState::reset_counts();
  CountedState built{4};
  emit(std::move(built));
  emit(CountedState{5});
  EXPECT_EQ(CountedState::copies, 0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].value, 4);
  EXPECT_EQ(got[1].value, 5);
  EXPECT_EQ(built.value, -1); // handed over
}

TEST(Emit, LvalueEmitCopiesAndKeepsSource)
{
  std::vector<CountedState> got;
  const Emit<CountedState> emit = [&](CountedState&& s) {
    got.push_back(std::move(s));
  };
  CountedState::reset_counts();
  const CountedState source{7};
  emit(source);
  EXPECT_EQ(CountedState::copies, 1);
  EXPECT_EQ(source.value, 7);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, 7);
}

TEST(Emit, StoredFromTemporaryLambdaStaysCallable)
{
  int sum = 0;
  int calls = 0;
  // The lambda is a temporary: Emit must own its copy, not refer to it.
  const Emit<CountedState> stored = [&](const CountedState& s) {
    sum += s.value;
    ++calls;
  };
  const Emit<CountedState> copied = stored;
  stored(CountedState{2});
  copied(CountedState{3});
  stored(CountedState{5});
  EXPECT_EQ(sum, 10);
  EXPECT_EQ(calls, 3);
}

TEST(ModelChecker, SuccessorsReachTheStoreWithoutCopies)
{
  SpecDef<CountedState> def;
  def.name = "counted";
  def.init = {CountedState{0}};
  def.actions.push_back(
    {"Increment",
     [](const CountedState& s, const Emit<CountedState>& emit) {
       if (s.value < 200)
       {
         emit(CountedState{s.value + 1});
       }
     },
     1.0});
  def.actions.push_back(
    {"Stay",
     [](const CountedState& s, const Emit<CountedState>& emit) {
       emit(CountedState{s.value});
     },
     1.0});
  def.invariants.push_back(
    {"NonNegative", [](const CountedState& s) { return s.value >= 0; }});
  CountedState::reset_counts();
  const int live_before = CountedState::live;
  const auto result = model_check(def);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.distinct_states, 201u);
  EXPECT_EQ(result.stats.duplicate_states, 201u);
  // Only the initial state is copied into the store; every successor is
  // moved in, and duplicates are dropped untouched.
  EXPECT_EQ(CountedState::copies, 1);
  // The store destroyed every body it built.
  EXPECT_EQ(CountedState::live, live_before);
}
