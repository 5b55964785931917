// Google-benchmark micro benchmarks for the substrates: hashing, Merkle
// tree maintenance, message serialization, the simulated network, the KV
// store and its replicated payload codec, single-node protocol steps,
// spec-state fingerprinting and one-worker DFS trace validation. These
// quantify the cost of the building blocks the verification workloads
// (Table 1) are made of.
#include <benchmark/benchmark.h>

#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "consensus/raft_node.h"
#include "crypto/merkle_tree.h"
#include "crypto/sha256.h"
#include "driver/nemesis.h"
#include "kv/store.h"
#include "kv/tx.h"
#include "net/sim_network.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/symmetry.h"
#include "specs/consensus/spec.h"
#include "specs/consensus/symmetry.h"
#include "trace/consensus_binding.h"

using namespace scv;

static void BM_Sha256(benchmark::State& state)
{
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(
    static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

static void BM_MerkleAppend(benchmark::State& state)
{
  const auto leaf = crypto::sha256("leaf");
  for (auto _ : state)
  {
    crypto::MerkleTree tree;
    for (int i = 0; i < state.range(0); ++i)
    {
      tree.append(leaf);
    }
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(
    static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleAppend)->Arg(16)->Arg(256);

/// A tree one leaf short of `n`, built once per size: at 2^k - 1 leaves
/// root() and path() walk the longest ragged right edge (k - 1 hashes on
/// top of the cached perfect subtrees), the worst case for a given depth.
static const crypto::MerkleTree& merkle_tree_below(int64_t n)
{
  static std::map<int64_t, crypto::MerkleTree> trees;
  auto it = trees.find(n);
  if (it == trees.end())
  {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(static_cast<size_t>(n - 1));
    for (int64_t i = 0; i + 1 < n; ++i)
    {
      leaves.push_back(crypto::sha256("leaf" + std::to_string(i)));
    }
    it = trees.emplace(n, crypto::MerkleTree(std::move(leaves))).first;
  }
  return it->second;
}

static void BM_MerkleRoot(benchmark::State& state)
{
  const auto& tree = merkle_tree_below(state.range(0));
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

static void BM_MerklePath(benchmark::State& state)
{
  const auto& tree = merkle_tree_below(state.range(0));
  size_t index = 0;
  for (auto _ : state)
  {
    // A fresh leaf each iteration, spread over the whole tree.
    index = (index * 2654435761u + 1) % tree.size();
    benchmark::DoNotOptimize(tree.path(index));
  }
}
BENCHMARK(BM_MerklePath)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

static void BM_MessageSerialize(benchmark::State& state)
{
  consensus::AppendEntriesRequest m;
  m.term = 3;
  m.leader = 1;
  m.prev_idx = 10;
  m.prev_term = 2;
  m.leader_commit = 8;
  for (int i = 0; i < state.range(0); ++i)
  {
    consensus::Entry e;
    e.term = 3;
    e.data = "payload-" + std::to_string(i);
    m.entries.push_back(e);
  }
  const consensus::Message msg(m);
  for (auto _ : state)
  {
    const auto bytes = consensus::serialize(msg);
    benchmark::DoNotOptimize(consensus::deserialize(bytes));
  }
}
BENCHMARK(BM_MessageSerialize)->Arg(0)->Arg(8);

static void BM_NetworkSendDeliver(benchmark::State& state)
{
  net::SimNetwork<int> network;
  Rng rng(1);
  for (auto _ : state)
  {
    network.send(1, 2, 42, 0, rng);
    benchmark::DoNotOptimize(network.deliver_one(0, rng));
  }
}
BENCHMARK(BM_NetworkSendDeliver);

static void BM_KvApplyCommit(benchmark::State& state)
{
  for (auto _ : state)
  {
    kv::Store store;
    for (int i = 0; i < 64; ++i)
    {
      store.apply({{{"key" + std::to_string(i % 8), "value"}}});
    }
    store.commit(64);
    benchmark::DoNotOptimize(store.get("key3"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_KvApplyCommit);

static void BM_KvDecodePayload(benchmark::State& state)
{
  // A SmallBank-sized write set: two balances under table-qualified keys.
  kv::WriteSet ws;
  ws.writes.push_back({"smallbank.checking/17", "10250"});
  ws.writes.push_back({"smallbank.savings/17", "9750"});
  const std::string payload = kv::encode_payload(ws);
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(kv::decode_payload(payload));
  }
}
BENCHMARK(BM_KvDecodePayload);

static void BM_KvGetAtColdKey(benchmark::State& state)
{
  // A key written once at version 1 and read at the head of a history of
  // range(0) versions that write other keys: the per-key version index
  // keeps the read at O(log writes to that key), flat across sizes. The
  // first read builds the index, outside the timed loop.
  kv::Store store;
  store.apply({{{"smallbank.checking/cold", "100"}}});
  for (int64_t v = 1; v < state.range(0); ++v)
  {
    store.apply({{{"smallbank.checking/" + std::to_string(v % 50), "1"}}});
  }
  const std::string key = "smallbank.checking/cold";
  const kv::Version head = store.current_version();
  benchmark::DoNotOptimize(store.get_at(key, head));
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(store.get_at(key, head));
  }
}
BENCHMARK(BM_KvGetAtColdKey)->Arg(1000)->Arg(10000)->Arg(100000);

static void BM_RaftReplicationRound(benchmark::State& state)
{
  // One full leader round: client request, signature, quorum ack, commit.
  consensus::NodeConfig cfg;
  cfg.id = 1;
  cfg.rng_seed = 3;
  for (auto _ : state)
  {
    state.PauseTiming();
    consensus::RaftNode leader(cfg, {1, 2, 3}, 1);
    state.ResumeTiming();
    leader.client_request("x");
    leader.emit_signature();
    leader.receive(
      2, consensus::AppendEntriesResponse{1, 2, true, leader.last_index()});
    benchmark::DoNotOptimize(leader.commit_index());
    (void)leader.take_outbox();
  }
}
BENCHMARK(BM_RaftReplicationRound);

static void BM_RaftFollowerAppend(benchmark::State& state)
{
  consensus::NodeConfig cfg;
  cfg.id = 2;
  cfg.rng_seed = 3;
  consensus::Entry e;
  e.term = 1;
  e.type = consensus::EntryType::Data;
  e.data = "x";
  for (auto _ : state)
  {
    state.PauseTiming();
    consensus::RaftNode follower(cfg, {1, 2, 3}, 1);
    state.ResumeTiming();
    for (consensus::Index i = 0; i < 32; ++i)
    {
      follower.receive(
        1, consensus::AppendEntriesRequest{1, 1, 2 + i, 1, 2, {e}});
    }
    (void)follower.take_outbox();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_RaftFollowerAppend);

/// A mid-run state of the 3-node consensus model: a deterministic walk
/// that takes, at each step, the successor with the longest encoding, so
/// logs have grown past the bootstrap entries and messages (some carrying
/// entries) are in flight. About the size of the states trace validation
/// fingerprints.
static specs::ccfraft::State mid_run_state()
{
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  p.max_requests = 2;
  const auto spec = specs::ccfraft::build_spec(p);
  auto s = specs::ccfraft::initial_state(p);
  const auto size_of = [](const specs::ccfraft::State& st) {
    ByteSink sink;
    st.serialize(sink);
    return sink.bytes().size();
  };
  for (int step = 0; step < 12; ++step)
  {
    auto best = s;
    size_t best_size = 0;
    for (const auto& action : spec.actions)
    {
      action.expand(s, [&](specs::ccfraft::State&& next) {
        const size_t n = size_of(next);
        if (n > best_size)
        {
          best = std::move(next);
          best_size = n;
        }
      });
    }
    s = best;
  }
  return s;
}

static void BM_SpecFingerprint(benchmark::State& state)
{
  const auto s = mid_run_state();
  ByteSink sink;
  s.serialize(sink);
  state.counters["state_bytes"] = static_cast<double>(sink.bytes().size());
  state.counters["messages"] = static_cast<double>(s.network.size());
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(spec::fingerprint(s));
  }
}
BENCHMARK(BM_SpecFingerprint);

static void BM_SpecFingerprintFreshSink(benchmark::State& state)
{
  // Baseline for BM_SpecFingerprint: what fingerprinting costs when the
  // serialization buffer is constructed (and so reallocated) per call
  // instead of reused thread-locally. The delta is the scratch-reuse win.
  const auto s = mid_run_state();
  for (auto _ : state)
  {
    ByteSink sink;
    s.serialize(sink);
    benchmark::DoNotOptimize(sink.digest());
  }
}
BENCHMARK(BM_SpecFingerprintFreshSink);

static void BM_ByteSinkDigest(benchmark::State& state)
{
  // The fingerprint hash alone, over a buffer of the given size.
  ByteSink sink;
  for (int64_t i = 0; i < state.range(0); ++i)
  {
    sink.u8(static_cast<uint8_t>(i * 31 + 7));
  }
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(sink.digest());
  }
  state.SetBytesProcessed(
    static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ByteSinkDigest)->Arg(64)->Arg(128)->Arg(1024);

static void BM_SpecCanonicalFingerprint(benchmark::State& state)
{
  // Symmetry-reduction overhead per generated state: canonicalize under
  // the full node-permutation group, then hash the representative's
  // bytes. The initial state has a distinguished leader, so two of three
  // identities tie — this exercises both the signature sort and a small
  // tie-block enumeration.
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  const auto sym = specs::ccfraft::node_symmetry(p);
  const auto s = specs::ccfraft::initial_state(p);
  for (auto _ : state)
  {
    benchmark::DoNotOptimize(spec::canonical_fingerprint(sym, s));
  }
}
BENCHMARK(BM_SpecCanonicalFingerprint);

static void BM_ExpanderFaultClosure(benchmark::State& state)
{
  // with_faults() runs once per trace line in DFS validation; its seen-set
  // and layer vectors are thread_local so steady-state closures allocate
  // nothing. Measures the closure over a 2-layer message-drop fault.
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  const auto spec = specs::ccfraft::build_spec(p);
  spec::Expander<specs::ccfraft::State> expander(&spec);
  expander.set_fault(
    [](const specs::ccfraft::State& s,
       const spec::Emit<specs::ccfraft::State>& emit) {
      for (size_t i = 0; i < s.network.size(); ++i)
      {
        auto dropped = s;
        dropped.network.erase(dropped.network.begin() + i);
        emit(std::move(dropped));
      }
    },
    2);
  // Give the closure something to drop: step until traffic is in flight.
  auto s = specs::ccfraft::initial_state(p);
  for (const auto& action : spec.actions)
  {
    action.expand(s, [&](const specs::ccfraft::State& next) {
      if (s.network.empty() && !next.network.empty())
      {
        s = next;
      }
    });
    if (!s.network.empty())
    {
      break;
    }
  }
  for (auto _ : state)
  {
    size_t emitted = 0;
    expander.with_faults(
      s, [&emitted](const specs::ccfraft::State&) { ++emitted; });
    benchmark::DoNotOptimize(emitted);
  }
}
BENCHMARK(BM_ExpanderFaultClosure);

static void BM_ValidateDfs(benchmark::State& state)
{
  // The validator layer: one-worker DFS with one drop/duplicate fault per
  // line and a 20,000-state cap (the nemesis' and the tracecheck
  // workload's shape) over one fixed trace, the first nemesis schedule of
  // seed 2026 with 6-12 ops that runs.
  driver::nemesis::NemesisOptions nopts;
  nopts.seed = 2026;
  nopts.min_ops = 6;
  nopts.max_ops = 12;
  const driver::nemesis::Nemesis nemesis(nopts);
  std::vector<trace::TraceEvent> events;
  specs::ccfraft::Params params;
  for (uint64_t run = 0;; ++run)
  {
    const auto schedule = nemesis.generate(run);
    auto out = nemesis.execute(schedule);
    if (out.script_error || out.violation)
    {
      continue;
    }
    events = std::move(out.trace);
    params = trace::validation_params(
      {schedule.initial_config.begin(), schedule.initial_config.end()},
      schedule.initial_leader,
      static_cast<uint8_t>(schedule.max_node),
      nopts.node_template.bugs);
    break;
  }
  trace::ConsensusValidationOptions o;
  o.fault_composition = true;
  o.search.mode = spec::SearchMode::Dfs;
  o.search.max_states = 20000;
  spec::ValidationResult<specs::ccfraft::State> r;
  for (auto _ : state)
  {
    r = trace::validate_consensus_trace(events, params, o);
    benchmark::DoNotOptimize(r.ok);
  }
  if (!r.ok)
  {
    state.SkipWithError("the fixed nemesis trace did not validate");
  }
  state.counters["lines"] = static_cast<double>(r.lines_matched);
  state.counters["states"] = static_cast<double>(r.states_explored);
}
BENCHMARK(BM_ValidateDfs);

/// The first `count` states a BFS of the Table-1 model reaches, each once.
static std::vector<specs::ccfraft::State> table1_states(size_t count)
{
  specs::ccfraft::Params p;
  p.n_nodes = 2;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  const auto spec = specs::ccfraft::build_spec(p);
  std::vector<specs::ccfraft::State> states = spec.init;
  std::unordered_set<uint64_t> seen = {spec::fingerprint(states[0])};
  for (size_t i = 0; i < states.size() && states.size() < count; ++i)
  {
    const auto s = states[i];
    for (const auto& action : spec.actions)
    {
      action.expand(s, [&](specs::ccfraft::State&& next) {
        if (
          states.size() < count &&
          seen.insert(spec::fingerprint(next)).second)
        {
          states.push_back(std::move(next));
        }
      });
    }
  }
  return states;
}

static void BM_StoreInsert(benchmark::State& state)
{
  // The "store insert" layer of the checker: one insert of a Table-1
  // state's fingerprint, precomputed. The store keeps no body, so this is
  // the index probe plus, for a fresh key, the 16-byte hot record. Arg 0
  // admits fresh keys into a store that starts empty every 4096 inserts,
  // so it includes the index's growth, as a checker's store does; arg 1
  // re-inserts keys already stored, the duplicate hit that decides most
  // successors.
  using Store = spec::ShardedStateStore<specs::ccfraft::State>;
  const bool duplicate = state.range(0) == 1;
  const auto states = table1_states(4096);
  std::vector<uint64_t> fps;
  for (const auto& s : states)
  {
    fps.push_back(spec::fingerprint(s));
  }
  std::optional<Store> store;
  const auto refill = [&] {
    store.emplace(1);
    if (duplicate)
    {
      for (const uint64_t fp : fps)
      {
        (void)store->insert(fp, Store::no_parent, Store::init_action, 0);
      }
    }
  };
  refill();
  size_t i = 0;
  for (auto _ : state)
  {
    if (i == fps.size())
    {
      state.PauseTiming();
      if (!duplicate)
      {
        refill();
      }
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
      store->insert(fps[i], Store::no_parent, Store::init_action, 1));
    ++i;
  }
}
BENCHMARK(BM_StoreInsert)->Arg(0)->Arg(1);

static void BM_StateCopy(benchmark::State& state)
{
  // The copy each successor starts from: copy-construct one of the
  // Table-1 states BM_StoreInsert inserts, then destroy it.
  const auto states = table1_states(4096);
  size_t i = 0;
  for (auto _ : state)
  {
    auto copy = states[i];
    benchmark::DoNotOptimize(copy);
    benchmark::ClobberMemory();
    i = i + 1 == states.size() ? 0 : i + 1;
  }
  state.counters["sizeof_state"] = static_cast<double>(sizeof(states[0]));
}
BENCHMARK(BM_StateCopy);

static void BM_SpecExpandAll(benchmark::State& state)
{
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  p.max_requests = 2;
  const auto spec = specs::ccfraft::build_spec(p);
  const auto s = specs::ccfraft::initial_state(p);
  for (auto _ : state)
  {
    size_t successors = 0;
    for (const auto& action : spec.actions)
    {
      action.expand(
        s, [&successors](const specs::ccfraft::State&) { ++successors; });
    }
    benchmark::DoNotOptimize(successors);
  }
}
BENCHMARK(BM_SpecExpandAll);

BENCHMARK_MAIN();
