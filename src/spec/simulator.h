// Randomized simulation of a spec (§4).
//
// The paper found exhaustive model checking too slow for CI once the
// consensus spec modeled reconfiguration, and fell back to simulation: a
// time-quota'd random walk over behaviors up to a given depth. Coverage is
// improved by *action weighting* — failure actions (message drops,
// timeouts) are down-weighted so walks make more forward progress. The
// weight field on Action feeds the weighted pick here; a weight override
// map supports the manual-vs-uniform weighting experiment
// (bench/sim_weighting).
//
// One engine, one entry point: Simulator::run() (and the free function
// simulate()) dispatch on SimOptions::threads:
//   * threads = 1 runs the single-threaded walk loop; per-seed walks are
//     bit-reproducible.
//   * threads != 1 fans independent seeded walks across a WorkerPool —
//     worker w runs a private child simulator with seed = base_seed + w,
//     results merged at the end (counts summed, coverage maps merged,
//     per-worker fingerprint sets unioned so distinct_states measures
//     *joint* coverage). A violation in any worker raises a shared stop
//     flag; the lowest-indexed violating worker's counterexample wins.
//
// Campaign mode (campaign.h): attach_store() admits every visited state
// into a shared ShardedStateStore (tagged with the simulator's EngineId),
// so cross-engine coverage is unioned instead of double-counted —
// distinct_states then reports only states *this run* discovered first.
// set_walk_seeds() starts walks from the checker's leftover BFS frontier
// instead of the spec's initial states.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/worker_pool.h"
#include "util/rng.h"

namespace scv::spec
{
  enum class WeightingMode
  {
    /// All enabled actions equally likely.
    Uniform,
    /// Static per-action weights from the spec (the paper's manual
    /// weighting of failure actions, §4).
    Static,
    /// Q-learning over (state features, action) pairs, rewarding novel
    /// states — the paper's attempt at automatic weighting ("we were
    /// unable to find the right set of variables as input to Q-Learning's
    /// state hash function H that achieved better coverage at the same
    /// cost compared to manual weighting").
    QLearning,
  };

  struct SimOptions : EngineOptions
  {
    SimOptions()
    {
      // Simulation is quota-driven: default to a 1-second box rather than
      // the engine-wide "effectively unlimited".
      time_budget_seconds = 1.0;
    }

    uint64_t seed = 1;
    uint64_t max_behaviors = UINT64_MAX;
    /// Bounds each walk rather than the whole run.
    uint64_t max_depth = 50;
    WeightingMode mode = WeightingMode::Static;

    // Q-learning hyperparameters.
    double q_alpha = 0.3; // learning rate
    double q_gamma = 0.7; // discount
    double q_epsilon = 0.1; // exploration probability

    /// The exploration-core budget: work counter = behaviors started.
    [[nodiscard]] Budget::Caps budget_caps() const
    {
      return make_caps(max_behaviors, max_depth);
    }
  };

  template <SpecState S>
  struct SimResult : EngineReport
  {
    SimResult()
    {
      engine = EngineId::Simulator;
    }

    std::optional<Counterexample<S>> counterexample;
    uint64_t behaviors = 0;
    /// The visited fingerprint set; the fan-out path unions these across
    /// workers to measure joint coverage.
    std::unordered_set<uint64_t> distinct_fingerprints;
  };

  template <SpecState S>
  class Simulator
  {
  public:
    Simulator(const SpecDef<S>& spec, SimOptions options = {}) :
      spec_(spec),
      options_(options),
      rng_(options.seed),
      expander_(&spec_)
    {
      expander_.enable_symmetry(options_.symmetry);
    }

    /// Optional per-state observer for domain-specific coverage metrics.
    /// On the fan-out path calls are serialized on an internal mutex, so
    /// the callback itself need not be thread-safe.
    void set_observer(std::function<void(const S&)> observer)
    {
      observer_ = std::move(observer);
    }

    /// Q-learning state-feature hash H: maps a state to the bucket whose
    /// action values are learned. Defaults to the full fingerprint; the
    /// paper's difficulty was exactly choosing a coarser H that
    /// generalizes (§4). Forwarded to every fan-out worker (each worker
    /// learns its own Q table); must be a pure function of the state.
    void set_q_features(std::function<uint64_t(const S&)> features)
    {
      q_features_ = std::move(features);
    }

    /// Optional cooperative stop: when the flag becomes true the run winds
    /// down as if the time budget expired. The fan-out path uses this to
    /// halt sibling workers once one of them finds a violation.
    void set_stop_flag(const std::atomic<bool>* stop)
    {
      external_stop_ = stop;
    }

    /// Campaign mode: admit every visited state into `store` (shared with
    /// other engines, never cleared), tagged `origin`. distinct_states in
    /// the result then counts only first discoveries by this run — states
    /// another engine already found are not re-counted. The store must
    /// be quiescent now and outlive the simulator.
    void attach_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Simulator)
    {
      store_ = store;
      expander_.set_origin(static_cast<uint8_t>(origin));
    }

    /// Campaign mode: start walks from these states (chosen uniformly)
    /// instead of the spec's initial states — typically the checker's
    /// leftover BFS frontier. Empty reverts to spec_.init.
    void set_walk_seeds(std::vector<S> seeds)
    {
      seeds_ = std::move(seeds);
    }

    /// Unified entry point: dispatches on SimOptions::threads (see
    /// docs/SPEC.md "threads semantics").
    SimResult<S> run()
    {
      if (resolve_worker_count(options_.threads) == 1)
      {
        return run_single();
      }
      return run_fanout();
    }

  private:
    using Store = ShardedStateStore<S>;
    using Id = typename Store::Id;

    SimResult<S> run_single()
    {
      // Time (or the external stop flag) exhausts a behavior mid-walk; the
      // behavior cap only stops *starting* new walks.
      Budget budget(options_.budget_caps());
      budget.set_stop_flag(external_stop_);
      SimResult<S> result;
      std::unordered_set<uint64_t> distinct;
      // First discoveries by this run when a shared store is attached.
      uint64_t fresh = 0;
      const std::vector<S>& starts =
        seeds_.empty() ? spec_.init : seeds_;

      while (!budget.exhausted(result.behaviors))
      {
        result.behaviors++;
        // Pick a walk start uniformly.
        S current = starts[rng_.below(starts.size())];
        if (!seeds_.empty())
        {
          result.stats.seeded_states++;
        }
        Id cur_id = Store::no_parent;
        if (store_ != nullptr)
        {
          const auto ins = expander_.admit(
            *store_,
            current,
            Store::no_parent,
            Store::init_action,
            0,
            worker_);
          fresh += ins.inserted ? 1 : 0;
          cur_id = ins.id;
        }
        note_state(current, distinct, result);

        std::vector<TraceStep<S>> walk;
        walk.push_back({"<init>", current});

        for (uint64_t depth = 0; !budget.depth_exceeded(depth); ++depth)
        {
          if (!spec_.within_constraint(current))
          {
            break;
          }
          // Expand every action; pick among enabled ones according to the
          // weighting mode, then a successor uniformly within the chosen
          // action.
          std::vector<std::vector<S>> successors(spec_.actions.size());
          std::vector<bool> enabled(spec_.actions.size(), false);
          bool any = false;
          for (size_t a = 0; a < spec_.actions.size(); ++a)
          {
            spec_.actions[a].expand(current, [&](S&& next) {
              successors[a].push_back(std::move(next));
            });
            result.stats.generated_states += successors[a].size();
            enabled[a] = !successors[a].empty();
            any = any || enabled[a];
          }
          if (!any)
          {
            break; // deadlock
          }
          const uint64_t bucket = q_bucket(current);
          const auto picked = pick_action(options_.mode, enabled, bucket);
          if (!picked.has_value())
          {
            break; // all enabled actions have zero weight
          }
          const size_t a = *picked;
          S next =
            std::move(successors[a][rng_.below(successors[a].size())]);
          result.stats.transitions++;
          result.stats.action_coverage[spec_.actions[a].name]++;

          if (options_.mode == WeightingMode::QLearning)
          {
            // Reward novelty; bootstrap from the best known value of the
            // successor bucket. Keyed like note_state() so the distinct
            // lookup matches (canonical when symmetry is on).
            const uint64_t next_fp = expander_.fingerprint_of(next);
            const double reward = distinct.contains(next_fp) ? 0.0 : 1.0;
            const uint64_t next_bucket =
              q_features_ ? q_features_(next) : next_fp;
            double best_next = 0.0;
            for (size_t a2 = 0; a2 < spec_.actions.size(); ++a2)
            {
              best_next = std::max(best_next, q_value(next_bucket, a2));
            }
            const double old = q_value(bucket, a);
            q_[q_key(bucket, a)] = old +
              options_.q_alpha *
                (reward + options_.q_gamma * best_next - old);
          }

          for (const auto& prop : spec_.action_properties)
          {
            if (!prop.check(current, next))
            {
              result.ok = false;
              result.counterexample = make_cex(walk, prop.name);
              result.counterexample->steps.push_back(
                {spec_.actions[a].name, next});
              finish(result, budget, distinct, fresh);
              return result;
            }
          }

          current = std::move(next);
          if (store_ != nullptr)
          {
            const auto ins = expander_.admit(
              *store_,
              current,
              cur_id,
              static_cast<uint32_t>(a),
              static_cast<uint32_t>(depth + 1),
              worker_);
            fresh += ins.inserted ? 1 : 0;
            cur_id = ins.id;
          }
          walk.push_back({spec_.actions[a].name, current});
          note_state(current, distinct, result);
          result.stats.max_depth =
            std::max<uint64_t>(result.stats.max_depth, depth + 1);

          for (const auto& inv : spec_.invariants)
          {
            if (!inv.check(current))
            {
              result.ok = false;
              result.counterexample = make_cex(walk, inv.name);
              finish(result, budget, distinct, fresh);
              return result;
            }
          }
          if (budget.time_exhausted())
          {
            break;
          }
        }
      }

      finish(result, budget, distinct, fresh);
      return result;
    }

    // ---- threads != 1: independent seeded walks across a WorkerPool ----

    SimResult<S> run_fanout()
    {
      const WorkerPool pool(options_.threads);
      const unsigned threads = pool.size();

      // Workers apply their own (shared-caps) budgets; this one only
      // times the merged run.
      const Budget budget(options_.budget_caps());
      std::atomic<bool> stop{false};
      std::vector<SimResult<S>> results(threads);
      std::mutex observer_mu;

      const auto work = [&](unsigned w) {
        SimOptions options = options_;
        options.seed = options_.seed + w;
        options.max_behaviors = behaviors_share(threads, w);
        options.threads = 1; // children run the single-threaded loop
        Simulator<S> sim(spec_, options);
        sim.set_stop_flag(&stop);
        if (store_ != nullptr)
        {
          sim.store_ = store_;
          sim.worker_ = w;
          sim.expander_.set_origin(origin());
        }
        if (!seeds_.empty())
        {
          sim.set_walk_seeds(seeds_);
        }
        if (observer_)
        {
          sim.set_observer([this, &observer_mu](const S& s) {
            std::lock_guard<std::mutex> lock(observer_mu);
            observer_(s);
          });
        }
        if (q_features_)
        {
          sim.set_q_features(q_features_);
        }
        results[w] = sim.run();
        if (!results[w].ok)
        {
          stop.store(true, std::memory_order_release);
        }
      };

      pool.run(work);

      SimResult<S> merged;
      uint64_t fresh = 0;
      for (unsigned w = 0; w < threads; ++w)
      {
        SimResult<S>& r = results[w];
        merged.behaviors += r.behaviors;
        fresh += r.stats.distinct_states;
        merged.stats.absorb_counts(r.stats);
        if (!r.ok && merged.ok)
        {
          merged.ok = false;
          merged.counterexample = std::move(r.counterexample);
        }
        merged.distinct_fingerprints.merge(r.distinct_fingerprints);
      }
      // A shared store dedups across workers globally, so summing the
      // children's first-discovery counts is exact; otherwise joint
      // coverage is the unioned fingerprint set.
      merged.stats.distinct_states =
        store_ != nullptr ? fresh : merged.distinct_fingerprints.size();
      merged.stats.seconds = budget.elapsed();
      if (budget.caps().time_budget_seconds < 1e17)
      {
        merged.stats.budget_seconds = budget.caps().time_budget_seconds;
      }
      merged.stats.complete = false;
      return merged;
    }

    [[nodiscard]] uint8_t origin() const
    {
      return expander_.origin();
    }

    /// Splits options_.max_behaviors across workers (first workers take
    /// the remainder); an unlimited budget stays unlimited everywhere.
    [[nodiscard]] uint64_t behaviors_share(unsigned threads, unsigned w) const
    {
      if (options_.max_behaviors == UINT64_MAX)
      {
        return UINT64_MAX;
      }
      const uint64_t base = options_.max_behaviors / threads;
      const uint64_t remainder = options_.max_behaviors % threads;
      return base + (w < remainder ? 1 : 0);
    }

    [[nodiscard]] uint64_t q_bucket(const S& state) const
    {
      return q_features_ ? q_features_(state) : fingerprint(state);
    }

    [[nodiscard]] static uint64_t q_key(uint64_t bucket, size_t action)
    {
      return hash_combine(bucket, static_cast<uint64_t>(action) + 1);
    }

    [[nodiscard]] double q_value(uint64_t bucket, size_t action) const
    {
      const auto it = q_.find(q_key(bucket, action));
      return it != q_.end() ? it->second : 0.0;
    }

    std::optional<size_t> pick_action(
      WeightingMode mode,
      const std::vector<bool>& enabled,
      uint64_t bucket)
    {
      std::vector<double> weights(enabled.size(), 0.0);
      switch (mode)
      {
        case WeightingMode::Uniform:
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] = enabled[a] ? 1.0 : 0.0;
          }
          break;
        case WeightingMode::Static:
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] = enabled[a] ? spec_.actions[a].weight : 0.0;
          }
          break;
        case WeightingMode::QLearning:
        {
          if (rng_.chance(options_.q_epsilon))
          {
            for (size_t a = 0; a < enabled.size(); ++a)
            {
              weights[a] = enabled[a] ? 1.0 : 0.0;
            }
            break;
          }
          // Greedy: the enabled action with the highest learned value
          // (ties broken uniformly).
          double best = -1.0;
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            if (enabled[a])
            {
              best = std::max(best, q_value(bucket, a));
            }
          }
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] =
              enabled[a] && q_value(bucket, a) >= best - 1e-12 ? 1.0 : 0.0;
          }
          break;
        }
      }
      double total = 0;
      for (const double w : weights)
      {
        total += w;
      }
      if (total <= 0)
      {
        return std::nullopt;
      }
      return rng_.weighted_pick(weights);
    }

    void note_state(
      const S& state,
      std::unordered_set<uint64_t>& distinct,
      SimResult<S>& result)
    {
      (void)result;
      // Canonical when symmetry is on, so distinct counts (and the
      // cross-worker union) measure coverage modulo the orbit.
      distinct.insert(expander_.fingerprint_of(state));
      if (observer_)
      {
        observer_(state);
      }
    }

    static Counterexample<S> make_cex(
      const std::vector<TraceStep<S>>& walk, const std::string& property)
    {
      Counterexample<S> cex;
      cex.property = property;
      cex.steps = walk;
      return cex;
    }

    void finish(
      SimResult<S>& result,
      const Budget& budget,
      std::unordered_set<uint64_t>& distinct,
      uint64_t fresh)
    {
      result.stats.seconds = budget.elapsed();
      if (budget.caps().time_budget_seconds < 1e17)
      {
        result.stats.budget_seconds = budget.caps().time_budget_seconds;
      }
      result.stats.distinct_states =
        store_ != nullptr ? fresh : distinct.size();
      result.stats.canonicalized_states = expander_.canonicalized_count();
      result.stats.symmetry_hits = expander_.symmetry_hit_count();
      if (store_ != nullptr)
      {
        result.stats.store_bytes = store_->store_bytes();
        result.stats.rehash_count = store_->rehash_count();
      }
      result.stats.complete = false;
      result.distinct_fingerprints = std::move(distinct);
    }

    const SpecDef<S>& spec_;
    SimOptions options_;
    Rng rng_;
    Expander<S> expander_;
    std::function<void(const S&)> observer_;
    std::function<uint64_t(const S&)> q_features_;
    std::unordered_map<uint64_t, double> q_;
    const std::atomic<bool>* external_stop_ = nullptr;
    Store* store_ = nullptr;
    /// Fan-out child: its worker index (the symmetry counter slot).
    unsigned worker_ = 0;
    std::vector<S> seeds_;
  };

  /// Entry point: dispatches on SimOptions::threads.
  template <SpecState S>
  SimResult<S> simulate(const SpecDef<S>& spec, SimOptions options = {})
  {
    Simulator<S> sim(spec, options);
    return sim.run();
  }
}
