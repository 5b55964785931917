// Symmetry reduction (docs/SPEC.md "Symmetry reduction"): canonicalizer
// properties (canon(perm(s)) == canon(s)), golden symmetry-on vs
// symmetry-off equivalence across the engines (identical verdicts,
// reduced distinct counts matching a ground-truth quotient), concrete
// replayability of counterexamples found under symmetry, fault-closure
// interaction, and the campaign plumbing.
#include <deque>
#include <unordered_set>

#include <gtest/gtest.h>

#include "spec/campaign.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "spec/symmetry.h"
#include "specs/consensus/spec.h"
#include "specs/consensus/symmetry.h"
#include "specs/consistency/spec.h"
#include "specs/consistency/symmetry.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::spec;

namespace
{
  // --- helpers -------------------------------------------------------------

  Perm random_perm(size_t k, Rng& rng)
  {
    Perm perm(k);
    std::iota(perm.begin(), perm.end(), uint8_t{0});
    for (size_t i = k; i > 1; --i)
    {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    return perm;
  }

  /// Collects up to `cap` distinct reachable states by BFS (ground truth,
  /// no engine involved). Expansion honors the constraint like the
  /// engines do.
  template <SpecState S>
  std::vector<S> reachable_states(const SpecDef<S>& spec, size_t cap)
  {
    std::vector<S> out;
    std::unordered_set<uint64_t> seen;
    std::deque<S> queue;
    for (const S& init : spec.init)
    {
      if (seen.insert(fingerprint(init)).second)
      {
        out.push_back(init);
        queue.push_back(init);
      }
    }
    while (!queue.empty() && out.size() < cap)
    {
      const S state = std::move(queue.front());
      queue.pop_front();
      if (!spec.within_constraint(state))
      {
        continue;
      }
      for (const auto& action : spec.actions)
      {
        action.expand(state, [&](const S& next) {
          if (out.size() < cap && seen.insert(fingerprint(next)).second)
          {
            out.push_back(next);
            queue.push_back(next);
          }
        });
      }
    }
    return out;
  }

  /// Distinct canonical fingerprints over a state set — the ground-truth
  /// quotient size.
  template <SpecState S>
  size_t quotient_size(const Symmetry<S>& sym, const std::vector<S>& states)
  {
    std::unordered_set<uint64_t> canon;
    for (const S& s : states)
    {
      canon.insert(canonical_fingerprint(sym, s));
    }
    return canon.size();
  }

  /// Every counterexample step must be a genuine concrete transition:
  /// the named action, expanded from the previous state, produces exactly
  /// the recorded next state.
  template <SpecState S>
  ::testing::AssertionResult concretely_replayable(
    const SpecDef<S>& spec, const Counterexample<S>& cex)
  {
    if (cex.steps.empty() || cex.steps[0].action != "<init>")
    {
      return ::testing::AssertionFailure() << "missing <init> step";
    }
    bool rooted = false;
    for (const S& init : spec.init)
    {
      rooted = rooted || init == cex.steps[0].state;
    }
    if (!rooted)
    {
      return ::testing::AssertionFailure() << "step 0 is not an initial state";
    }
    for (size_t i = 1; i < cex.steps.size(); ++i)
    {
      const auto& step = cex.steps[i];
      bool found = false;
      for (const auto& action : spec.actions)
      {
        if (action.name != step.action)
        {
          continue;
        }
        action.expand(cex.steps[i - 1].state, [&](const S& next) {
          found = found || next == step.state;
        });
      }
      if (!found)
      {
        return ::testing::AssertionFailure()
          << "step " << i << " (" << step.action
          << ") is not a concrete successor of step " << i - 1;
      }
    }
    return ::testing::AssertionSuccess();
  }

  specs::ccfraft::Params small_consensus_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 3;
    p.max_batch = 1;
    p.max_network = 2;
    p.max_copies = 1;
    return p;
  }

  specs::consistency::Params small_consistency_model()
  {
    specs::consistency::Params p;
    p.max_rw_txs = 2;
    p.max_ro_txs = 1;
    p.max_branches = 2;
    return p;
  }
}

// ---------------------------------------------------------------------------
// Canonicalizer properties: canon(perm(s)) == canon(s).
// ---------------------------------------------------------------------------

TEST(SymmetryCanonical, ConsensusInvariantUnderRandomPermutations)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  ASSERT_TRUE(spec.has_symmetry());
  const auto states = reachable_states(spec, 300);
  ASSERT_GT(states.size(), 50u);

  Rng rng(7);
  for (const auto& s : states)
  {
    const uint64_t canon_fp = canonical_fingerprint(spec.symmetry, s);
    const auto canon_state = canonicalize(spec.symmetry, s);
    for (int trial = 0; trial < 4; ++trial)
    {
      const Perm perm = random_perm(s.n_nodes, rng);
      const auto permuted = specs::ccfraft::permute_state(s, perm);
      EXPECT_EQ(canonical_fingerprint(spec.symmetry, permuted), canon_fp);
      EXPECT_TRUE(canonicalize(spec.symmetry, permuted) == canon_state);
    }
  }
}

// canonical_fingerprint hashes through the same digest as fingerprint:
// with symmetry off it is fingerprint itself, and with symmetry on it is
// the fingerprint of the canonical representative (the state itself when
// no relabeling applies).
TEST(SymmetryCanonical, CanonicalFingerprintIsTheStateFingerprint)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  const auto states = reachable_states(spec, 300);
  const Symmetry<specs::ccfraft::State> off;
  ASSERT_FALSE(off.enabled());
  size_t relabeled = 0;
  for (const auto& s : states)
  {
    EXPECT_EQ(canonical_fingerprint(off, s), fingerprint(s));
    bool changed = true;
    const uint64_t canon = canonical_fingerprint(spec.symmetry, s, &changed);
    EXPECT_EQ(canon, fingerprint(canonicalize(spec.symmetry, s)));
    if (!changed)
    {
      EXPECT_EQ(canon, fingerprint(s));
    }
    relabeled += changed ? 1 : 0;
  }
  EXPECT_GT(relabeled, 0u);
  EXPECT_LT(relabeled, states.size());
}

TEST(SymmetryCanonical, ConsensusSignatureIsCovariant)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  const auto states = reachable_states(spec, 200);
  Rng rng(13);
  for (const auto& s : states)
  {
    const Perm perm = random_perm(s.n_nodes, rng);
    const auto permuted = specs::ccfraft::permute_state(s, perm);
    for (size_t i = 0; i < s.n_nodes; ++i)
    {
      EXPECT_EQ(
        specs::ccfraft::node_signature(permuted, perm[i]),
        specs::ccfraft::node_signature(s, i));
    }
  }
}

TEST(SymmetryCanonical, ConsistencyInvariantUnderRandomPermutations)
{
  const auto spec = specs::consistency::build_spec(small_consistency_model());
  ASSERT_TRUE(spec.has_symmetry());
  const auto states = reachable_states(spec, 300);
  ASSERT_GT(states.size(), 50u);

  Rng rng(23);
  for (const auto& s : states)
  {
    const size_t k = static_cast<size_t>(s.next_tx - 1);
    if (k < 2)
    {
      continue;
    }
    const uint64_t canon_fp = canonical_fingerprint(spec.symmetry, s);
    for (int trial = 0; trial < 4; ++trial)
    {
      const Perm perm = random_perm(k, rng);
      const auto permuted = specs::consistency::permute_state(s, perm);
      EXPECT_EQ(canonical_fingerprint(spec.symmetry, permuted), canon_fp);
    }
  }
}

// A model with named reconfiguration targets only admits the stabilizer
// subgroup: {0b011, 0b101} is preserved by swapping nodes 2 and 3, and by
// nothing else but the identity.
TEST(SymmetryCanonical, ReconfigModelRestrictsToStabilizerSubgroup)
{
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  p.allowed_reconfigs = {0b011, 0b101};
  const auto sym = specs::ccfraft::node_symmetry(p);
  ASSERT_EQ(sym.group.size(), 2u);

  const auto spec = specs::ccfraft::build_spec(p);
  const auto states = reachable_states(spec, 150);
  for (const auto& s : states)
  {
    const uint64_t canon_fp = canonical_fingerprint(spec.symmetry, s);
    for (const Perm& perm : sym.group)
    {
      const auto permuted = specs::ccfraft::permute_state(s, perm);
      EXPECT_EQ(canonical_fingerprint(spec.symmetry, permuted), canon_fp);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: symmetry on vs off.
// ---------------------------------------------------------------------------

// A spec without a Symmetry hook: the flag is inert and results are
// bit-identical.
TEST(SymmetryGolden, FlagIsNoOpWithoutHook)
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
  SpecDef<CounterState> spec;
  spec.name = "counter";
  spec.init = {CounterState{0}};
  spec.actions.push_back(
    {"Increment", [](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value < 10)
       {
         emit(CounterState{s.value + 1});
       }
     }});

  CheckLimits off;
  CheckLimits on;
  on.symmetry = true;
  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_EQ(r_on.stats.distinct_states, r_off.stats.distinct_states);
  EXPECT_EQ(r_on.stats.generated_states, r_off.stats.generated_states);
  EXPECT_EQ(r_on.stats.canonicalized_states, 0u);
  EXPECT_EQ(r_on.stats.symmetry_hits, 0u);
}

TEST(SymmetryGolden, ConsensusExhaustiveSameVerdictQuotientDistinct)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  CheckLimits off;
  off.time_budget_seconds = 120.0;
  CheckLimits on = off;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_TRUE(r_off.stats.complete);
  ASSERT_TRUE(r_on.stats.complete);
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_TRUE(r_on.ok);
  EXPECT_GT(r_on.stats.canonicalized_states, 0u);
  EXPECT_GT(r_on.stats.symmetry_hits, 0u);
  EXPECT_LT(r_on.stats.distinct_states, r_off.stats.distinct_states);

  // The engine's symmetry-on distinct count equals the ground-truth
  // quotient of the full (symmetry-off) reachable set.
  const auto all = reachable_states(spec, SIZE_MAX);
  ASSERT_EQ(all.size(), r_off.stats.distinct_states);
  EXPECT_EQ(r_on.stats.distinct_states, quotient_size(spec.symmetry, all));
}

TEST(SymmetryGolden, ConsensusParallelBfsMatchesSequential)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  CheckLimits seq;
  seq.symmetry = true;
  seq.time_budget_seconds = 120.0;
  CheckLimits par = seq;
  par.threads = 4;

  const auto r_seq = model_check(spec, seq);
  const auto r_par = model_check(spec, par);
  ASSERT_TRUE(r_seq.stats.complete);
  ASSERT_TRUE(r_par.stats.complete);
  EXPECT_EQ(r_par.ok, r_seq.ok);
  EXPECT_EQ(r_par.stats.distinct_states, r_seq.stats.distinct_states);
  EXPECT_EQ(r_par.stats.transitions, r_seq.stats.transitions);
}

TEST(SymmetryGolden, ConsistencyExhaustiveSameVerdictQuotientDistinct)
{
  const auto spec = specs::consistency::build_spec(small_consistency_model());
  CheckLimits off;
  off.time_budget_seconds = 120.0;
  CheckLimits on = off;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_TRUE(r_off.stats.complete);
  ASSERT_TRUE(r_on.stats.complete);
  EXPECT_EQ(r_on.ok, r_off.ok);
  // Tx relabeling buys no reduction on the *reachable* space: ids are
  // allocated in request order, so each id is pinned by its request
  // event's history position and every orbit has exactly one reachable
  // member. The group is still a sound automorphism (the canonicalizer
  // property tests above exercise it on relabeled states); what this
  // golden case checks is that the engine count equals the ground-truth
  // quotient exactly.
  EXPECT_LE(r_on.stats.distinct_states, r_off.stats.distinct_states);

  const auto all = reachable_states(spec, SIZE_MAX);
  ASSERT_EQ(all.size(), r_off.stats.distinct_states);
  EXPECT_EQ(r_on.stats.distinct_states, quotient_size(spec.symmetry, all));
}

// The refutable read-only-linearizability property is still found under
// symmetry, at the same (level-minimal) depth, and the counterexample is
// a concrete replayable trace — symmetry never hands back a relabeled
// witness.
TEST(SymmetryGolden, ConsistencyViolationSameDepthConcreteWitness)
{
  auto p = small_consistency_model();
  p.include_observed_ro = true;
  const auto spec = specs::consistency::build_spec(p);
  CheckLimits off;
  CheckLimits on;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_FALSE(r_off.ok);
  ASSERT_FALSE(r_on.ok);
  ASSERT_TRUE(r_off.counterexample.has_value());
  ASSERT_TRUE(r_on.counterexample.has_value());
  EXPECT_EQ(r_on.counterexample->property, r_off.counterexample->property);
  EXPECT_EQ(
    r_on.counterexample->steps.size(), r_off.counterexample->steps.size());
  EXPECT_TRUE(concretely_replayable(spec, *r_on.counterexample));
}

TEST(SymmetryGolden, ConsensusBugViolationSameDepthConcreteWitness)
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
  const auto spec = specs::ccfraft::build_spec(p);

  CheckLimits off;
  off.time_budget_seconds = 120.0;
  CheckLimits on = off;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_FALSE(r_off.ok);
  ASSERT_FALSE(r_on.ok);
  EXPECT_EQ(r_on.counterexample->property, "MonotonicMatchIndexProp");
  EXPECT_EQ(r_on.counterexample->property, r_off.counterexample->property);
  // BFS over the quotient is still level-minimal for symmetric
  // properties: same shortest-counterexample length.
  EXPECT_EQ(
    r_on.counterexample->steps.size(), r_off.counterexample->steps.size());
  EXPECT_TRUE(concretely_replayable(spec, *r_on.counterexample));
}

TEST(SymmetryGolden, SimulatorSameWalksCanonicalCoverage)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  SimOptions off;
  off.seed = 42;
  off.max_behaviors = 200;
  off.max_depth = 30;
  off.time_budget_seconds = 60.0;
  SimOptions on = off;
  on.symmetry = true;

  const auto r_off = simulate(spec, off);
  const auto r_on = simulate(spec, on);
  // The walks themselves are identical (symmetry only changes the dedup
  // key), so verdict and volume match; coverage counts the quotient.
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_EQ(r_on.behaviors, r_off.behaviors);
  EXPECT_EQ(r_on.stats.generated_states, r_off.stats.generated_states);
  EXPECT_GT(r_on.stats.canonicalized_states, 0u);
  EXPECT_LE(r_on.stats.distinct_states, r_off.stats.distinct_states);
}

// ---------------------------------------------------------------------------
// Fault-closure interaction (Expander::with_faults).
// ---------------------------------------------------------------------------

namespace
{
  // Two symmetric slots; the symmetry swaps them.
  struct Pair
  {
    std::array<uint8_t, 2> slots{};
    bool operator==(const Pair&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u8(slots[0]);
      sink.u8(slots[1]);
    }
    [[nodiscard]] std::string to_string() const
    {
      return std::to_string(slots[0]) + "," + std::to_string(slots[1]);
    }
  };

  SpecDef<Pair> pair_spec(uint8_t cap)
  {
    SpecDef<Pair> def;
    def.name = "pair";
    def.init = {Pair{}};
    for (size_t i = 0; i < 2; ++i)
    {
      def.actions.push_back(
        {"Bump" + std::to_string(i), [i](const Pair& s, const Emit<Pair>& emit) {
           Pair next = s;
           next.slots[i]++;
           emit(std::move(next));
         }});
    }
    def.constraint = [cap](const Pair& s) {
      return s.slots[0] <= cap && s.slots[1] <= cap;
    };
    def.symmetry.domain = [](const Pair&) { return size_t{2}; };
    def.symmetry.apply = [](const Pair& s, const Perm& perm) {
      Pair out;
      out.slots[perm[0]] = s.slots[0];
      out.slots[perm[1]] = s.slots[1];
      return out;
    };
    def.symmetry.signature = [](const Pair& s, size_t i) {
      return static_cast<uint64_t>(s.slots[i]);
    };
    return def;
  }
}

// Regression for the base-state vs constraint-gate contract: the base
// state is always emitted (the validator must consider it even where an
// engine would prune it), while fault-generated successors honor the
// bound spec's constraint and are closure-deduplicated.
TEST(SymmetryFaults, ClosureGatesFaultSuccessorsNotBase)
{
  const auto spec = pair_spec(3);
  Expander<Pair> expander(&spec);
  // Fault: bump slot 0 by 3 (can leave the constraint).
  expander.set_fault(
    [](const Pair& s, const Emit<Pair>& emit) {
      Pair next = s;
      next.slots[0] = static_cast<uint8_t>(next.slots[0] + 3);
      emit(std::move(next));
    },
    2);

  // Out-of-constraint base: emitted itself, no fault successors.
  std::vector<Pair> emitted;
  expander.with_faults(Pair{{4, 0}}, [&](const Pair& s) {
    emitted.push_back(s);
  });
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], (Pair{{4, 0}}));

  // In-constraint base: one fault layer lands on {3,0} (in constraint),
  // the second layer's {6,0} is gated out.
  emitted.clear();
  expander.with_faults(Pair{{0, 0}}, [&](const Pair& s) {
    emitted.push_back(s);
  });
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1], (Pair{{3, 0}}));
}

// With symmetry on, the fault closure dedups modulo the orbit: faults
// reaching two states that are relabelings of each other emit only one.
TEST(SymmetryFaults, ClosureDedupsModuloSymmetry)
{
  const auto spec = pair_spec(5);
  Expander<Pair> off(&spec);
  Expander<Pair> on(&spec);
  on.enable_symmetry(true);
  // Fault: bump either slot — from {0,0} the first layer yields {1,0}
  // and {0,1}, one orbit.
  const auto fault = [](const Pair& s, const Emit<Pair>& emit) {
    for (size_t i = 0; i < 2; ++i)
    {
      Pair next = s;
      next.slots[i]++;
      emit(std::move(next));
    }
  };
  off.set_fault(fault, 1);
  on.set_fault(fault, 1);

  std::vector<Pair> got_off;
  std::vector<Pair> got_on;
  off.with_faults(Pair{}, [&](const Pair& s) { got_off.push_back(s); });
  on.with_faults(Pair{}, [&](const Pair& s) { got_on.push_back(s); });
  EXPECT_EQ(got_off.size(), 3u); // base + {1,0} + {0,1}
  EXPECT_EQ(got_on.size(), 2u); // base + one orbit representative
}

// ---------------------------------------------------------------------------
// Campaign plumbing.
// ---------------------------------------------------------------------------

TEST(SymmetryCampaign, SharedStoreCampaignReportsCanonicalization)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  Campaign<specs::ccfraft::State>::Options copts;
  copts.total_seconds = 6.0;
  copts.check.symmetry = true;
  copts.sim.symmetry = true;
  copts.check.max_distinct_states = 20'000;
  copts.sim.max_behaviors = 100;
  copts.sim.max_depth = 20;
  Campaign<specs::ccfraft::State> campaign(spec, copts);
  const auto report = campaign.run();

  const auto* check_phase = report.phase(EngineId::Checker);
  ASSERT_NE(check_phase, nullptr);
  EXPECT_TRUE(check_phase->ok);
  EXPECT_GT(check_phase->stats.canonicalized_states, 0u);
  const auto* sim_phase = report.phase(EngineId::Simulator);
  ASSERT_NE(sim_phase, nullptr);
  EXPECT_TRUE(sim_phase->ok);
  EXPECT_GT(sim_phase->stats.canonicalized_states, 0u);

  // Union accounting still holds on the canonical-keyed shared store.
  uint64_t contributions = 0;
  for (const auto& phase : report.phases)
  {
    contributions += phase.store_new;
  }
  EXPECT_EQ(report.union_distinct, contributions);

  // The JSON schema carries the new per-phase fields.
  EXPECT_NE(report.to_json().find("canonicalized_states"), std::string::npos);
  EXPECT_NE(report.to_json().find("symmetry_hits"), std::string::npos);
}
