// Verification campaign demo (§4–§6): the paper's portfolio — exhaustive
// model checking, randomized simulation, trace validation — as ONE
// session over ONE shared state store and ONE wall-clock box.
//
//   ./campaign_demo [--seconds=S] [--threads=N] [--check-cap=STATES]
//                   [--store=full|fp] [--symmetry]
//
// The campaign runs its three phases in exhaustive-first order:
//   1. BFS model checking of a bounded consensus model. A complete check
//      finishes early and donates its leftover box time forward; a check
//      cut short (--check-cap) exports its unexpanded frontier instead.
//   2. Simulation, seeded from that frontier when there is one — random
//      deepening exactly where exhaustive search stopped.
//   3. Trace validation of an implementation run, whose candidate states
//      feed the same store as coverage.
// Every state admission is tagged with the discovering engine, so the
// final table shows per-engine contributions next to the unioned total
// (Table-1-style): a state two engines reach is counted once.
//
// Exit status is 0 only if all three phases ran, the union covers at
// least the largest per-engine count, the union does not exceed the sum
// of per-engine counts, and — when the checker finished early — the
// leftover-budget reassignment is visible in the simulator's allotment.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "driver/cluster.h"
#include "spec/campaign.h"
#include "specs/consensus/spec.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"

using namespace scv;
using State = scv::specs::ccfraft::State;

int main(int argc, char** argv)
{
  double seconds = 10.0;
  unsigned threads = 1;
  uint64_t check_cap = 0;
  bool symmetry = false;
  spec::StoreMode store_mode = spec::StoreMode::full;
  for (int i = 1; i < argc; ++i)
  {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0)
    {
      seconds = std::strtod(argv[i] + 10, nullptr);
    }
    else if (std::strncmp(argv[i], "--threads=", 10) == 0)
    {
      threads = static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
    }
    else if (std::strncmp(argv[i], "--check-cap=", 12) == 0)
    {
      check_cap = std::strtoull(argv[i] + 12, nullptr, 10);
    }
    else if (std::strcmp(argv[i], "--store=full") == 0)
    {
      store_mode = spec::StoreMode::full;
    }
    else if (std::strcmp(argv[i], "--store=fp") == 0)
    {
      store_mode = spec::StoreMode::fingerprint_only;
    }
    else if (std::strcmp(argv[i], "--symmetry") == 0)
    {
      symmetry = true;
    }
    else
    {
      std::fprintf(
        stderr,
        "usage: %s [--seconds=S] [--threads=N] [--check-cap=STATES]\n"
        "          [--store=full|fp] [--symmetry]\n",
        argv[0]);
      return 2;
    }
  }

  // 1. An implementation run for the validation phase: replication plus a
  //    signature, collected as a trace.
  driver::ClusterOptions o;
  o.initial_config = {1, 2, 3};
  o.initial_leader = 1;
  o.seed = 42;
  driver::Cluster c(o);
  c.submit("alpha");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.submit("beta");
  c.sign();
  for (int i = 0; i < 40; ++i)
  {
    c.tick_all();
    c.drain();
  }
  const auto events = trace::preprocess(c.trace());
  const auto vparams = trace::validation_params({1, 2, 3}, 1, 3);
  std::printf("trace: %zu preprocessed events\n", events.size());

  // 2. A bounded consensus model for the exhaustive and randomized
  //    phases; small enough that BFS completes it in seconds, so the demo
  //    shows leftover-budget donation by default. --check-cap cuts the
  //    checker short instead, showing frontier seeding.
  specs::ccfraft::Params p;
  p.n_nodes = 2;
  p.max_term = 1;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  const auto spec = specs::ccfraft::build_spec(p);

  spec::Campaign<State>::Options copts;
  copts.total_seconds = seconds;
  copts.check.threads = threads;
  copts.sim.threads = threads;
  copts.sim.seed = 7;
  copts.sim.max_depth = 60;
  // --store=fp runs the whole portfolio fingerprint-only: the shared
  // coverage store AND the validator's private BFS search store, so the
  // campaign invariants below double as a golden check of that mode.
  copts.store.mode = store_mode;
  copts.check.store.mode = store_mode;
  copts.sim.store.mode = store_mode;
  copts.validate.store.mode = store_mode;
  // --symmetry dedups the checker and simulator modulo node permutation
  // (docs/SPEC.md "Symmetry reduction"); the validator always keys its
  // coverage by concrete states, so its contribution is unchanged.
  copts.check.symmetry = symmetry;
  copts.sim.symmetry = symmetry;
  if (check_cap > 0)
  {
    copts.check.max_distinct_states = check_cap;
  }

  spec::Campaign<State> campaign(spec, copts);
  campaign.add_trace(
    "cluster-run",
    {specs::ccfraft::initial_state(vparams)},
    trace::bind_consensus_trace(events, vparams));

  const auto report = campaign.run();
  std::printf("\n%s\n%s\n", report.summary().c_str(), report.to_json().c_str());

  // 3. The campaign invariants the paper's portfolio view relies on.
  const auto* check = report.phase(spec::EngineId::Checker);
  const auto* sim = report.phase(spec::EngineId::Simulator);
  const auto* validate = report.phase(spec::EngineId::Validator);
  if (
    check == nullptr || sim == nullptr || validate == nullptr || !check->ran ||
    !sim->ran || !validate->ran)
  {
    std::fprintf(stderr, "FAIL: not all three phases ran\n");
    return 1;
  }
  if (!check->ok || !sim->ok || !validate->ok)
  {
    std::fprintf(stderr, "FAIL: a phase reported a violation/mismatch\n");
    return 1;
  }
  const uint64_t max_engine = std::max(
    {check->stats.distinct_states,
     sim->stats.distinct_states,
     validate->stats.distinct_states});
  const uint64_t sum_engine = check->stats.distinct_states +
    sim->stats.distinct_states + validate->stats.distinct_states;
  if (report.union_distinct < max_engine || report.union_distinct > sum_engine)
  {
    std::fprintf(
      stderr,
      "FAIL: union %llu outside [max %llu, sum %llu]\n",
      static_cast<unsigned long long>(report.union_distinct),
      static_cast<unsigned long long>(max_engine),
      static_cast<unsigned long long>(sum_engine));
    return 1;
  }
  if (check->stats.complete)
  {
    // The checker exhausted its model early: its unused allotment must be
    // visible downstream as a simulator allotment above the naive
    // sim-weight share of the box.
    const double naive_share = seconds * 0.3 / (0.5 + 0.3 + 0.2);
    if (sim->allotted_seconds <= naive_share)
    {
      std::fprintf(
        stderr,
        "FAIL: no leftover reassignment (sim allotted %.2fs <= naive "
        "%.2fs)\n",
        sim->allotted_seconds,
        naive_share);
      return 1;
    }
    std::printf(
      "leftover reassignment: checker used %.2fs of %.2fs; simulator "
      "allotment grew to %.2fs (naive share %.2fs)\n",
      check->stats.seconds,
      check->allotted_seconds,
      sim->allotted_seconds,
      naive_share);
  }
  else if (!campaign.frontier().empty())
  {
    std::printf(
      "frontier seeding: checker left %zu unexpanded states; simulator "
      "seeded %llu walks from them\n",
      campaign.frontier().size(),
      static_cast<unsigned long long>(sim->stats.seeded_states));
  }
  std::printf("campaign OK: all phases ran, union coverage consistent\n");
  return 0;
}
