#!/usr/bin/env bash
# CI gate: build + test the Release configuration, then rebuild with
# ThreadSanitizer (-DSCV_SANITIZE=thread) and re-run the suite so data
# races in the parallel checker/simulator/validator fail the build. Both
# variants build with -Werror (SCV_WERROR).
#
# Usage: ci/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_variant() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DSCV_WERROR=ON "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_variant build-release
run_variant build-tsan -DSCV_SANITIZE=thread

# Trace-validation smoke under TSan: the demo exercises the end-to-end
# pipeline (scenario -> trace -> validator) in both the sequential
# reference configuration and the parallel BFS frontier, so a data race in
# the parallel validator fails CI even on timing-friendly hosts.
echo "=== tsan trace-validation smoke (threads=1) ==="
./build-tsan/examples/trace_validate_demo --threads=1
echo "=== tsan trace-validation smoke (threads=4) ==="
./build-tsan/examples/trace_validate_demo --threads=4

# Time-boxed campaign smoke: all three engines (checker -> simulator ->
# trace validation) over ONE shared store and ONE wall-clock box on the
# consensus spec. The demo exits non-zero unless all three phases ran and
# the unioned coverage is consistent (>= max per-engine contribution,
# <= sum of per-engine contributions), so a broken origin tag, a lost
# frontier export, or a phase that never starts fails CI. Release gets
# the full 30s box; TSan runs ~10x slower, so it gets a shorter box with
# the parallel engines on (races in cross-engine store sharing show up
# here).
echo "=== release campaign smoke (30s box) ==="
./build-release/examples/campaign_demo --seconds=30
echo "=== tsan campaign smoke (10s box, threads=4) ==="
./build-tsan/examples/campaign_demo --seconds=10 --threads=4

# Fingerprint-only campaign smoke: the same portfolio with --store=fp
# switches every store (shared coverage + the validator's BFS search) to
# fingerprint-only dedup with body dropping. The demo's own invariants
# (all phases ran, union within [max, sum]) now gate the mode's
# correctness end to end; the model is small enough that a 64-bit
# collision is implausible, so the counts must match the full-mode run
# above. TSan gets the parallel engines so the frontier-body map and
# barrier drops race-check against concurrent inserts.
echo "=== release campaign smoke, fingerprint-only store ==="
./build-release/examples/campaign_demo --seconds=30 --store=fp
echo "=== tsan campaign smoke, fingerprint-only store (threads=4) ==="
./build-tsan/examples/campaign_demo --seconds=10 --threads=4 --store=fp

# Symmetry-reduction smoke: the ablation bench model-checks the consensus
# spec exhaustively with canonical-under-node-permutation fingerprinting
# ON vs OFF and exits non-zero unless the verdicts are identical AND the
# quotient is strictly smaller AND parallel BFS under symmetry matches the
# sequential quotient — an unsound canonicalizer (orbit splitting or
# cross-orbit merging) fails CI here. --quick runs the symmetric-init pair
# only, which keeps the Release smoke under ~10s. The TSan campaign smoke
# runs all engines with --symmetry at threads=4 so the canonicalizer's
# thread-local scratch and the shared fingerprint-dedup store race-check.
echo "=== release symmetry-ablation smoke ==="
./build-release/bench/symmetry_ablation --quick
echo "=== tsan campaign smoke, symmetry reduction (threads=4) ==="
./build-tsan/examples/campaign_demo --seconds=10 --threads=4 --symmetry

# Deterministic nemesis smoke, fixed seed: the demo checks (1) same seed
# => byte-identical fault schedules, traces, and verdicts, (2) every
# clean fuzz-generated trace validates against the spec, and (3) with
# Table-2 bug 1 re-injected the fuzzer finds a violation, shrinks it, and
# the minimal .scen replays to the same failure. Any drift in the seeded
# Rng plumbing (cluster seeds, node incarnation streams, schedule
# generation) fails CI. Release gets the full demo; TSan runs the same
# seed so a race-induced nondeterminism in the driver shows up as a
# determinism failure, with a smaller clean batch for speed.
echo "=== release nemesis smoke (seed 2026) ==="
./build-release/examples/nemesis_demo --seed=2026 \
  --scen-out=build-release/nemesis_min.scen
echo "=== tsan nemesis smoke (seed 2026) ==="
./build-tsan/examples/nemesis_demo --seed=2026 --clean-runs=4 \
  --seconds=120 --scen-out=build-tsan/nemesis_min.scen

# Snapshot / catch-up / disaster-recovery smokes. Release runs the two
# shipped snapshot scenario families through scenario_runner, which both
# executes them (join-from-snapshot under an active partition;
# compact-then-crash-then-recover) and validates the collected traces
# against the consensus spec. The TSan nemesis pass fuzzes another fixed
# seed with the snapshot motifs in the generator pool, so a race in the
# driver's snapshot, InstallSnapshot and CompactLedger paths fails CI.
echo "=== release snapshot scenario smoke (join + recovery families) ==="
./build-release/examples/scenario_runner \
  examples/scenarios/snapshot_join.scen \
  examples/scenarios/compaction_recovery.scen
echo "=== tsan nemesis snapshot smoke (seed 2027) ==="
./build-tsan/examples/nemesis_demo --seed=2027 --clean-runs=4 \
  --seconds=120 --scen-out=build-tsan/nemesis_snapshot_min.scen

# SmallBank serving-layer smoke, fixed seed and short box: the open-loop
# load harness drives client sessions (batching, TxStatus commit acks,
# speculative leader reads) over the replicated KV and exits non-zero if
# any shard fails its replica-agreement / ledger-oracle / savings-
# nonnegative checks, if the load history stops validating against the
# consistency spec, or (--determinism) if two identical runs diverge.
# Release runs the determinism pass; TSan runs 4 load workers so the
# shard-result merge race-checks.
echo "=== release smallbank load smoke (seed 2026, determinism) ==="
./build-release/bench/smallbank_load --seed=2026 --threads=2 --ticks=400 \
  --determinism
echo "=== tsan smallbank load smoke (threads=4) ==="
./build-tsan/bench/smallbank_load --seed=2026 --threads=4 --ticks=200

# SmallBank serving soak: 20,000 ticks (~8k committed transactions) on one
# shard under a 1 GiB address-space cap and a 60 s wall-clock cap. The run
# takes about a second and 600 MB; a per-transaction cost that grows with
# history length (a Merkle root recomputed from every leaf, a session
# rescanning the ledger, a second copy of each observation list) blows
# one of the caps long before a user notices.
echo "=== release smallbank serving soak (20k ticks, 1 GiB cap) ==="
(
  ulimit -v $((1024 * 1024))
  timeout 60 ./build-release/bench/smallbank_load --seed=2026 --threads=1 \
    --ticks=20000
)

# UBSan over the driver-facing suites: crash-restart recovery and the
# nemesis stress pointer/variant/overflow-heavy paths (ledger rebuilds,
# message replay, schedule mutation), where UB would otherwise pass
# silently on friendly compilers. The hashing and trace-validation suites
# run here too: state serialization copies packed runs with memcpy, the
# digest reads unaligned 8-byte words, and the one-worker DFS reuses its
# frames across descents. So do the checker suites: successors are moved
# through the engines, and the store's body arena constructs and destroys
# bodies by hand.
echo "=== configure build-ubsan (-DSCV_SANITIZE=undefined) ==="
# -Wno-stringop-overflow: GCC 12's stringop-overflow analysis false-
# positives on vector<unsigned char>::push_back when UBSan
# instrumentation changes the inlining shape; the same code builds
# warning-clean in the Release and TSan variants above, which keep the
# diagnostic armed.
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Release -DSCV_WERROR=ON \
  -DSCV_SANITIZE=undefined -DCMAKE_CXX_FLAGS=-Wno-stringop-overflow
echo "=== build build-ubsan (driver tests) ==="
cmake --build build-ubsan -j "${JOBS}" --target \
  raft_node_test scenario_dsl_test scenario_test e2e_test bugs_test \
  nemesis_test session_api_test snapshot_test util_test \
  trace_validation_test validator_golden_test checker_golden_test \
  consensus_spec_test spec_framework_test alloc_budget_test
echo "=== test build-ubsan (driver tests) ==="
for t in raft_node_test scenario_dsl_test scenario_test e2e_test \
  bugs_test nemesis_test session_api_test snapshot_test util_test \
  trace_validation_test validator_golden_test checker_golden_test \
  consensus_spec_test spec_framework_test alloc_budget_test; do
  echo "--- ${t} (ubsan) ---"
  "./build-ubsan/tests/${t}"
done

# ASan over the suites doing manual memory work: the state store (slab
# blocks handed to mmap'd spill files, bodies freed behind the frontier,
# record views into frozen arenas, bodies constructed and destroyed by
# hand in raw arena chunks), ByteSink and the packed consensus encoder
# (memcpy into a grown buffer), the one-worker DFS (frames reused across
# descents, the witness moved out of them), and the checker suites, where
# moved-from successors flow through the engines. An off-by-one there is
# silent heap corruption under the normal builds. TSan (above, via ctest)
# covers the races; this covers the memory.
echo "=== configure build-asan (-DSCV_SANITIZE=address) ==="
# -Wno-maybe-uninitialized: like the UBSan variant's stringop-overflow
# exception below, GCC 12's analysis false-positives inside std::variant
# when ASan instrumentation changes the inlining shape; Release and TSan
# keep the diagnostic armed.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Release -DSCV_WERROR=ON \
  -DSCV_SANITIZE=address -DCMAKE_CXX_FLAGS=-Wno-maybe-uninitialized
echo "=== build build-asan (memory-heavy suites) ==="
cmake --build build-asan -j "${JOBS}" --target statestore_test util_test \
  trace_validation_test validator_golden_test checker_golden_test \
  consensus_spec_test spec_framework_test alloc_budget_test
for t in statestore_test util_test trace_validation_test \
  validator_golden_test checker_golden_test consensus_spec_test \
  spec_framework_test alloc_budget_test; do
  echo "--- ${t} (asan) ---"
  "./build-asan/tests/${t}"
done

echo "=== ci/check.sh: all variants passed ==="
