// smallbank: open-loop SmallBank through one driver::Session on a 3-node
// cluster, with one leader crash and restart in the middle of the load.
//
// One arrival every kPeriod ticks, whatever is in flight. An arrival that
// finds no leader waits in the client's backlog and is submitted as soon
// as one is elected; a transaction acknowledged INVALID (executed by a
// leader that lost its term) is submitted again. Both keep the arrival's
// due tick, so commit latency counts the outage. The seed drives the
// operation stream only; the cluster's own randomness is fixed.
//
// A round runs the shard alone (t1), then N independent shards, one per
// worker, each with its own seed-derived operation stream (tN). Every
// shard's output is checked after its drain.
#include <deque>
#include <latch>
#include <optional>
#include <thread>

#include "app/smallbank/smallbank.h"
#include "crypto/sha256.h"
#include "driver/cluster.h"
#include "driver/session.h"
#include "kv/store.h"
#include "kv/tx.h"
#include "stats.h"
#include "trace/client_history_io.h"
#include "trace/consistency_binding.h"
#include "tracer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using namespace scv;
    namespace sb = scv::app::smallbank;
    using consensus::TxStatus;

    constexpr uint64_t kTicks = 4000; // load phase
    constexpr uint64_t kPeriod = 2;
    constexpr size_t kBatch = 4;
    constexpr uint64_t kAccounts = 50;
    constexpr uint64_t kCrashTick = kTicks * 3 / 8;
    constexpr uint64_t kRestartTick = kTicks / 2;
    constexpr uint64_t kDrainTicks = 400;
    /// Transactions of the history prefix validated against the
    /// consistency spec (its packed TxId bounds the modeled history).
    constexpr size_t kHistoryPrefix = 14;
    /// Set-ups timed back to back per round; the round's set-up time is
    /// their median.
    constexpr int kSetups = 5;

    struct Ids
    {
      int timed = tracer::id("bench.timed");
      int next_op = tracer::id("app.smallbank.next_op");
      int execute = tracer::id("app.smallbank.execute");
      int submit_app = tracer::id("driver.session.submit_app", true);
      int sign = tracer::id("driver.session.sign", true);
      int flush = tracer::id("driver.session.flush");
      int submit_ro = tracer::id("driver.session.submit_ro");
      int poll = tracer::id("driver.session.poll");
      int commit_ack = tracer::id("driver.session.commit_ack");
      int tick_all = tracer::id("driver.cluster.tick_all");
      int drain = tracer::id("driver.cluster.drain");
      int find_leader = tracer::id("driver.cluster.find_leader");
      int crash = tracer::id("driver.cluster.crash");
      int restart = tracer::id("driver.cluster.restart");
    };

    uint64_t shard_seed(uint64_t seed, uint64_t shard)
    {
      uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
      return splitmix64(state);
    }

    struct Arrival
    {
      sb::Op op;
      uint64_t due = 0;
    };

    /// What one shard's run produced.
    struct ShardRun
    {
      uint64_t arrivals = 0;
      /// Arrivals answered: committed, refused by the procedure, or read.
      uint64_t answered = 0;
      uint64_t committed = 0;
      uint64_t resubmitted = 0;
      uint64_t unresolved = 0;
      /// Commits acknowledged during the load phase, overall and in its
      /// first and last quarter.
      uint64_t load_commits = 0;
      uint64_t q1_commits = 0;
      uint64_t q4_commits = 0;
      double setup_s = 0.0;
      double load_s = 0.0;
      double q1_s = 0.0;
      double q4_s = 0.0;
      std::vector<double> submit_s;
      std::vector<double> commit_ticks;
      uint64_t unavailable_ticks = 0;
      std::vector<std::string> errors;

      [[nodiscard]] double tx_per_s() const
      {
        return static_cast<double>(load_commits) / load_s;
      }

      [[nodiscard]] double steadiness() const
      {
        return (static_cast<double>(q4_commits) / q4_s) /
          (static_cast<double>(q1_commits) / q1_s);
      }
    };

    class Shard
    {
    public:
      Shard(uint64_t seed, const Ids& ids) :
        ids_(ids),
        rng_(seed),
        cluster_(driver::ClusterOptions{}),
        session_(cluster_, driver::SessionOptions{kBatch})
      {
        workload_.accounts = kAccounts;
      }

      /// Creates the accounts and waits for them to commit.
      void setup()
      {
        const auto created = session_.submit_app([](kv::Tx& tx) {
          sb::create_accounts(tx, kAccounts, 10000, 10000);
          return true;
        });
        session_.flush();
        for (int i = 0; i < 200 && created.seq; ++i)
        {
          cluster_.tick_all();
          cluster_.drain();
          if (session_.commit_ack(*created.seq) == TxStatus::Committed)
          {
            session_.poll(*created.seq);
            return;
          }
        }
        run_.errors.push_back("account creation did not commit");
      }

      /// The open-loop load phase.
      void load()
      {
        const Span timed(ids_.timed);
        const auto start = Clock::now();
        Clock::time_point q1_end;
        Clock::time_point q4_start;
        for (uint64_t t = 0; t < kTicks; ++t)
        {
          if (t == kTicks / 4)
          {
            q1_end = Clock::now();
            run_.q1_commits = run_.load_commits;
          }
          if (t == kTicks * 3 / 4)
          {
            q4_start = Clock::now();
            run_.q4_commits = run_.load_commits;
          }
          if (t == kCrashTick)
          {
            {
              const Span span(ids_.find_leader);
              crashed_ = cluster_.find_leader();
            }
            if (crashed_)
            {
              const Span span(ids_.crash);
              cluster_.crash(*crashed_);
            }
          }
          if (t == kRestartTick && crashed_)
          {
            const Span span(ids_.restart);
            cluster_.restart(*crashed_);
          }
          if (t % kPeriod == 0)
          {
            const Span span(ids_.next_op);
            backlog_.push_back({sb::next_op(rng_, workload_), t});
            run_.arrivals += 1;
          }
          submit_backlog(t);
          step(t + 1, true);
        }
        const auto end = Clock::now();
        run_.q4_commits = run_.load_commits - run_.q4_commits;
        run_.load_s = std::chrono::duration<double>(end - start).count();
        run_.q1_s = std::chrono::duration<double>(q1_end - start).count();
        run_.q4_s = std::chrono::duration<double>(end - q4_start).count();
      }

      /// Closes the open batch, lets in-flight work resolve, then waits
      /// until every node's committed prefix matches.
      void drain()
      {
        uint64_t now = kTicks;
        for (uint64_t i = 0; i < kDrainTicks &&
             (!outstanding_.empty() || !backlog_.empty());
             ++i)
        {
          submit_backlog(now);
          flush();
          step(++now, false);
        }
        run_.unresolved = outstanding_.size() + backlog_.size();
        for (uint64_t i = 0; i < kDrainTicks && !converged(); ++i)
        {
          step(++now, false);
        }
      }

      /// Output checks: replica agreement, no negative savings, the
      /// ledger-oracle replay, and (optionally) the history prefix
      /// against the consistency spec.
      void check(bool validate_history)
      {
        auto& errors = run_.errors;
        if (run_.unresolved != 0)
        {
          errors.push_back(std::to_string(run_.unresolved) + " arrivals unresolved");
        }
        const auto ids = cluster_.node_ids();
        const auto ref = ids.front();
        const auto ref_keys = cluster_.store(ref).keys_with_prefix("smallbank.");
        for (const auto id : ids)
        {
          if (cluster_.node(id).commit_index() != cluster_.node(ref).commit_index() ||
              cluster_.store(id).keys_with_prefix("smallbank.") != ref_keys)
          {
            errors.push_back("replica " + std::to_string(id) + " diverges");
            continue;
          }
          for (const auto& key : ref_keys)
          {
            if (cluster_.store(id).get(key) != cluster_.store(ref).get(key))
            {
              errors.push_back("replica " + std::to_string(id) + " diverges at " + key);
              break;
            }
          }
        }
        for (const auto& key : cluster_.store(ref).keys_with_prefix("smallbank.savings/"))
        {
          const auto value = cluster_.store(ref).get(key);
          if (!value || std::stoll(*value) < 0)
          {
            errors.push_back("negative savings at " + key);
          }
        }
        const auto leader = cluster_.find_leader();
        if (!leader)
        {
          errors.push_back("no leader after drain");
          return;
        }
        kv::Store oracle;
        replay(oracle);
        for (const auto& key : ref_keys)
        {
          if (oracle.get(key) != cluster_.store(*leader).get(key))
          {
            errors.push_back("ledger-oracle replay diverges at " + key);
            break;
          }
        }
        if (validate_history)
        {
          const auto prefix =
            trace::history_prefix_within(session_.history(), kHistoryPrefix);
          if (!trace::validate_consistency_trace(prefix).ok)
          {
            errors.push_back("history prefix rejected by the consistency spec");
          }
        }
      }

      /// Replays the leader's committed Data entries into `store`;
      /// returns the number of entries applied.
      uint64_t replay(kv::Store& store)
      {
        const auto& node = cluster_.node(*cluster_.find_leader());
        uint64_t applied = 0;
        for (consensus::Index i = node.ledger().start_index() + 1;
             i <= node.commit_index();
             ++i)
        {
          const auto& entry = node.ledger().at(i);
          if (entry.type != consensus::EntryType::Data)
          {
            continue;
          }
          if (const auto ws = kv::decode_payload(entry.data))
          {
            store.commit(store.apply(*ws));
            applied += 1;
          }
        }
        return applied;
      }

      [[nodiscard]] ShardRun& run()
      {
        return run_;
      }

      [[nodiscard]] driver::Cluster& cluster()
      {
        return cluster_;
      }

      [[nodiscard]] driver::Session& session()
      {
        return session_;
      }

    private:
      struct Outstanding
      {
        uint64_t seq;
        Arrival arrival;
        uint64_t submitted;
      };

      void flush()
      {
        const size_t sigs = session_.batch_signatures().size();
        Span span(ids_.flush);
        session_.flush();
        if (session_.batch_signatures().size() > sigs)
        {
          span.retarget(ids_.sign);
        }
      }

      void submit_backlog(uint64_t now)
      {
        while (!backlog_.empty())
        {
          const Arrival arrival = backlog_.front();
          if (arrival.op.kind == sb::OpKind::Balance)
          {
            std::optional<uint64_t> seq;
            {
              const Span span(ids_.submit_ro);
              seq = session_.submit_ro();
            }
            if (!seq)
            {
              return; // no leader: wait
            }
            run_.answered += 1;
            backlog_.pop_front();
            continue;
          }
          const size_t sigs = session_.batch_signatures().size();
          const auto start = Clock::now();
          driver::AppSubmitResult sub;
          {
            Span span(ids_.submit_app);
            sub = session_.submit_app([&](kv::Tx& tx) {
              const Span body(ids_.execute);
              return sb::execute(tx, arrival.op).ok;
            });
            if (session_.batch_signatures().size() > sigs)
            {
              span.retarget(ids_.sign);
            }
          }
          run_.submit_s.push_back(seconds_since(start));
          if (sub.outcome == driver::AppOutcome::NoLeader ||
              sub.outcome == driver::AppOutcome::Refused)
          {
            return; // wait for a leader that accepts
          }
          backlog_.pop_front();
          if (sub.outcome == driver::AppOutcome::Submitted && sub.seq)
          {
            outstanding_.push_back({*sub.seq, arrival, now});
          }
          else
          {
            run_.answered += 1; // the procedure refused; nothing to commit
          }
        }
      }

      /// Advances one tick and acknowledges outstanding transactions.
      void step(uint64_t now, bool in_load)
      {
        {
          const Span span(ids_.tick_all);
          cluster_.tick_all();
        }
        {
          const Span span(ids_.drain);
          cluster_.drain();
        }
        for (auto it = outstanding_.begin(); it != outstanding_.end();)
        {
          TxStatus ack;
          {
            const Span span(ids_.commit_ack);
            ack = session_.commit_ack(it->seq);
          }
          {
            const Span span(ids_.poll);
            session_.poll(it->seq);
          }
          if (ack == TxStatus::Committed)
          {
            run_.committed += 1;
            run_.answered += 1;
            run_.load_commits += in_load ? 1 : 0;
            run_.commit_ticks.push_back(static_cast<double>(now - it->arrival.due));
            if (crashed_ && run_.unavailable_ticks == 0 && it->submitted > kCrashTick)
            {
              run_.unavailable_ticks = now - kCrashTick;
            }
            it = outstanding_.erase(it);
          }
          else if (ack == TxStatus::Invalid)
          {
            run_.resubmitted += 1;
            backlog_.push_front(it->arrival);
            it = outstanding_.erase(it);
          }
          else
          {
            ++it;
          }
        }
      }

      [[nodiscard]] bool converged() const
      {
        for (const auto id : cluster_.node_ids())
        {
          if (cluster_.node(id).commit_index() != cluster_.max_commit())
          {
            return false;
          }
        }
        return true;
      }

      const Ids& ids_;
      Rng rng_;
      sb::WorkloadOptions workload_;
      driver::Cluster cluster_;
      driver::Session session_;
      std::deque<Arrival> backlog_;
      std::vector<Outstanding> outstanding_;
      std::optional<driver::NodeId> crashed_;
      ShardRun run_;
    };

    /// Builds and sets up a shard, timing both.
    std::unique_ptr<Shard> make_shard(uint64_t seed, const Ids& ids)
    {
      const auto start = Clock::now();
      auto shard = std::make_unique<Shard>(seed, ids);
      shard->setup();
      shard->run().setup_s = seconds_since(start);
      return shard;
    }

    void absorb(Report& report, const ShardRun& run, const std::string& label)
    {
      report.attempted += run.arrivals;
      report.failed += run.arrivals - std::min(run.arrivals, run.answered);
      for (const auto& e : run.errors)
      {
        report.check(false, label + ": " + e);
      }
    }

    /// crypto / kv probes on the leader's state at the end of the load.
    void probe(Shard& shard, Report& report)
    {
      auto& cluster = shard.cluster();
      const auto leader = cluster.find_leader();
      if (!leader)
      {
        report.check(false, "no leader at the end of the load phase");
        return;
      }
      const auto& ledger = cluster.node(*leader).ledger();
      auto& L = report.layer;
      crypto::Digest sink{};
      size_t proof_hashes = 0;
      L["crypto.merkle.root_us"] =
        1e6 * median_seconds(21, [&] { sink = ledger.root(); });
      L["crypto.merkle.proof_us"] = 1e6 * median_seconds(21, [&] {
        proof_hashes += ledger.proof(ledger.last_index() / 2).size();
      });
      sink[0] ^= static_cast<uint8_t>(proof_hashes);
      std::vector<uint8_t> block(64);
      for (size_t i = 0; i < block.size(); ++i)
      {
        block[i] = static_cast<uint8_t>(sink[i % sink.size()] + i);
      }
      constexpr int kHashes = 20000;
      const auto start = Clock::now();
      for (int i = 0; i < kHashes; ++i)
      {
        const auto d = crypto::sha256(block);
        block[0] ^= d[0];
      }
      L["crypto.sha256_64B_ns"] = 1e9 * seconds_since(start) / kHashes;
      kv::Store oracle;
      const auto replay_start = Clock::now();
      const uint64_t entries = shard.replay(oracle);
      L["kv.replay_us_per_entry"] =
        1e6 * seconds_since(replay_start) / static_cast<double>(std::max<uint64_t>(entries, 1));
    }

    /// Counters from the traced shard after its drain.
    void count(Shard& shard, Report& report)
    {
      auto& cluster = shard.cluster();
      const auto& node = cluster.node(*cluster.find_leader());
      uint64_t signatures = 0;
      uint64_t data = 0;
      for (consensus::Index i = 1; i <= node.last_index(); ++i)
      {
        const auto type = node.ledger().type_at(i);
        signatures += type == consensus::EntryType::Signature ? 1 : 0;
        data += type == consensus::EntryType::Data ? 1 : 0;
      }
      uint64_t observed = 0;
      for (const auto& ev : shard.session().history())
      {
        observed += ev.observed.size();
      }
      const auto& net = cluster.network().stats();
      auto& L = report.layer;
      L["consensus.signatures"] = static_cast<double>(signatures);
      L["consensus.ledger_entries"] = static_cast<double>(node.last_index());
      L["consensus.tx_per_signature"] =
        static_cast<double>(data) / static_cast<double>(std::max<uint64_t>(signatures, 1));
      L["consensus.elections"] = static_cast<double>(cluster.leaders_by_term().size());
      L["net.sent"] = static_cast<double>(net.sent);
      L["net.delivered"] = static_cast<double>(net.delivered);
      L["net.msgs_per_commit"] = static_cast<double>(net.delivered) /
        static_cast<double>(std::max<uint64_t>(shard.run().committed, 1));
      L["driver.session.observed_ids"] = static_cast<double>(observed);
    }

    /// The simulated-tick results of a run, which must repeat exactly for
    /// the same inputs.
    std::vector<double> signature_of(const ShardRun& run)
    {
      std::vector<double> sig = run.commit_ticks;
      sig.push_back(static_cast<double>(run.committed));
      sig.push_back(static_cast<double>(run.arrivals));
      sig.push_back(static_cast<double>(run.resubmitted));
      sig.push_back(static_cast<double>(run.unavailable_ticks));
      return sig;
    }
  }

  void run_smallbank(const Options& options, Report& report)
  {
    const Ids ids;
    const uint64_t seed = shard_seed(options.seed, 0);

    // Set-up: a fresh cluster and the committed accounts. Timed once per
    // round, so the samples spread over the run like the rates do.
    auto& setup = report.figure("setup_s", "s").samples;
    const auto time_setup = [&] {
      const PinnedCpu pin(static_cast<unsigned>(setup.size()));
      setup.push_back(median_seconds(kSetups, [&] { make_shard(seed, ids); }));
    };

    std::optional<std::vector<double>> reference;
    unsigned round = 0;
    const auto t1_round = [&](bool traced) {
      const PinnedCpu pin(traced ? 0 : round++);
      auto shard = make_shard(seed, ids);
      tracer::reset();
      tracer::set_enabled(traced);
      shard->load();
      tracer::set_enabled(false);
      if (traced)
      {
        probe(*shard, report);
      }
      shard->drain();
      shard->check(true);
      absorb(report, shard->run(), traced ? "traced t1" : "t1");
      const auto sig = signature_of(shard->run());
      if (!reference)
      {
        reference = sig;
      }
      report.check(sig == *reference, "t1 shard results differ between rounds");
      return shard;
    };

    // Returns (commits in the load phases, wall time of the slowest).
    const auto tN_round = [&]() {
      std::vector<std::unique_ptr<Shard>> shards(options.workers);
      std::latch ready(options.workers);
      std::vector<std::thread> threads;
      for (unsigned w = 0; w < options.workers; ++w)
      {
        threads.emplace_back([&, w] {
          shards[w] = make_shard(shard_seed(options.seed, w), ids);
          ready.arrive_and_wait();
          shards[w]->load();
          shards[w]->drain();
        });
      }
      for (auto& t : threads)
      {
        t.join();
      }
      uint64_t commits = 0;
      double wall = 0.0;
      for (unsigned w = 0; w < options.workers; ++w)
      {
        shards[w]->check(false);
        absorb(report, shards[w]->run(), "t" + std::to_string(options.workers) + " shard " + std::to_string(w));
        commits += shards[w]->run().load_commits;
        wall = std::max(wall, shards[w]->run().load_s);
      }
      return std::pair{static_cast<double>(commits), wall};
    };

    if (!options.trace)
    {
      auto& tx1 = report.figure("sb_tx_per_s", "1/s").samples;
      auto& txN = report.figure("sb_tx_per_s_tN", "1/s").samples;
      auto& steady = report.figure("sb_steadiness", "ratio").samples;
      Figure& submit50 = report.figure("sb_submit_p50_us", "us");
      Figure& submit99 = report.figure("sb_submit_p99_us", "us");
      Figure& commit50 = report.figure("sb_commit_p50_ticks", "ticks");
      Figure& commit99 = report.figure("sb_commit_p99_ticks", "ticks");
      auto& unavailable = report.figure("sb_unavailable_ticks", "ticks").samples;
      PooledRate rate1;
      PooledRate rateN;
      const auto start = Clock::now();
      while (tx1.empty() || seconds_since(start) < options.seconds)
      {
        time_setup();
        const auto shard = t1_round(false);
        const ShardRun& run = shard->run();
        tx1.push_back(run.tx_per_s());
        rate1.add(static_cast<double>(run.load_commits), run.load_s);
        steady.push_back(run.steadiness());
        std::vector<double> submit_us;
        for (const double s : run.submit_s)
        {
          submit_us.push_back(1e6 * s);
        }
        submit50.samples.push_back(quantile(submit_us, 0.5));
        submit99.samples.push_back(quantile(submit_us, 0.99));
        submit50.measurements += submit_us.size();
        submit99.measurements += submit_us.size();
        commit50.samples.push_back(quantile(run.commit_ticks, 0.5));
        commit99.samples.push_back(quantile(run.commit_ticks, 0.99));
        commit50.measurements += run.commit_ticks.size();
        commit99.measurements += run.commit_ticks.size();
        unavailable.push_back(static_cast<double>(run.unavailable_ticks));
        const auto [commits, wall] = tN_round();
        txN.push_back(commits / wall);
        rateN.add(commits, wall);
      }
      report.e2e["throughput_t1"] = rate1.value();
      report.e2e["throughput_tN"] = rateN.value();
      return;
    }

    // Traced run: one untraced round for the baseline, then a traced one,
    // on the same CPU.
    time_setup();
    const auto plain = t1_round(false);
    const auto shard = t1_round(true);
    const auto spans = tracer::snapshot();
    const auto span = [&](const std::string& name) { return tracer::find(spans, name); };
    auto& L = report.layer;
    for (const char* name :
         {"driver.session.submit_app",
          "driver.session.sign",
          "driver.session.submit_ro",
          "driver.session.poll",
          "driver.session.commit_ack"})
    {
      L[std::string(name) + ".calls"] = static_cast<double>(span(name).calls);
      L[std::string(name) + ".s"] = span(name).self_s;
    }
    L["driver.session.sign.p99_us"] = 1e6 * quantile(span("driver.session.sign").samples, 0.99);
    L["app.smallbank.execute.s"] = span("app.smallbank.execute").self_s;
    L["driver.cluster.tick_all.s"] = span("driver.cluster.tick_all").self_s;
    L["driver.cluster.drain.s"] = span("driver.cluster.drain").self_s;
    L["driver.cluster.restart.s"] = span("driver.cluster.restart").self_s;
    count(*shard, report);

    const ShardRun& run = plain->run();
    std::vector<double> submit_us;
    for (const double s : run.submit_s)
    {
      submit_us.push_back(1e6 * s);
    }
    L["sb_steadiness"] = run.steadiness();
    L["sb_submit_p50_us"] = quantile(submit_us, 0.5);
    L["sb_submit_p99_us"] = quantile(submit_us, 0.99);
    L["sb_commit_p50_ticks"] = quantile(run.commit_ticks, 0.5);
    L["sb_commit_p99_ticks"] = quantile(run.commit_ticks, 0.99);
    L["sb_unavailable_ticks"] = static_cast<double>(run.unavailable_ticks);
    const SpanTotals root = span("bench.timed");
    L["bench.timed_s"] = run.load_s;
    L["bench.trace_overhead"] = shard->run().load_s / run.load_s - 1.0;
    L["bench.trace_coverage"] = 1.0 - root.self_s / root.total_s;
  }
}
