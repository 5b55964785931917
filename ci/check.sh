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
# pipeline (scenario -> trace -> validator) at one worker and at four.
# BFS validation model-checks the trace product spec, so the four-worker
# run drives the checker's workers through the validator's shared
# diagnostics and coverage taps, and a data race there fails CI even on
# timing-friendly hosts.
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

# Symmetry-reduction smoke: the ablation bench model-checks the consensus
# spec exhaustively with canonical-under-node-permutation fingerprinting
# ON vs OFF and exits non-zero unless the verdicts are identical AND the
# quotient is strictly smaller AND parallel BFS under symmetry matches the
# sequential quotient — an unsound canonicalizer (orbit splitting or
# cross-orbit merging) fails CI here. --quick runs the symmetric-init pair
# only, which keeps the Release smoke under ~10s. The TSan campaign smoke
# runs all engines with --symmetry at threads=4 so the canonicalizer's
# thread-local scratch and the shared fingerprint-dedup store race-check.
# The smoke runs inside build-release/, so the quick run writes its own
# BENCH_symmetry.json there and leaves the committed one untouched.
echo "=== release symmetry-ablation smoke ==="
(cd build-release && ./bench/symmetry_ablation --quick)
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

# SmallBank serving soaks on one shard, each under an address-space cap of
# about twice its measured peak (VmPeak, Release, x86-64 glibc) and a 60 s
# wall-clock cap. 20,000 ticks (~8k committed transactions) peak at about
# 142 MB of address space and take a quarter of a second; 100,000 ticks
# (~40k) peak at about 334 MB and take under two seconds. Memory that grows
# faster than the history (a per-response copy of every observed id, as
# before run-length observation lists: 600 MB at 20k ticks) or a
# per-transaction cost that grows with it (a Merkle root recomputed from
# every leaf, a session rescanning the ledger) blows a cap long before a
# user notices.
echo "=== release smallbank serving soak (20k ticks, 288 MiB cap) ==="
(
  ulimit -v $((288 * 1024))
  timeout 60 ./build-release/bench/smallbank_load --seed=2026 --threads=1 \
    --ticks=20000
)
echo "=== release smallbank serving soak (100k ticks, 672 MiB cap) ==="
(
  ulimit -v $((672 * 1024))
  timeout 60 ./build-release/bench/smallbank_load --seed=2026 --threads=1 \
    --ticks=100000
)

# UBSan over the driver-facing suites: crash-restart recovery and the
# nemesis stress pointer/variant/overflow-heavy paths (ledger rebuilds,
# message replay, schedule mutation), where UB would otherwise pass
# silently on friendly compilers. The hashing and trace-validation suites
# run here too: state serialization copies packed runs with memcpy, the
# digest reads unaligned 8-byte words, and the one-worker DFS reuses its
# frames across descents. So do the checker suites: successors are moved
# through the engines, and the checker's level arenas construct and
# destroy bodies by hand. And the serving suites: the SHA-256 block functions
# (portable and SHA-NI, cross-checked in crypto_test), the run-length
# observation lists (TxIdRuns in consensus_test, against the element-wise
# oracle in session_test) and the one-pass kvws1 decoder (kv_test). And
# the state-store suites (statestore_test, parallel_spec_test,
# campaign_test): records packed into 16 bytes (24-bit depth, 8-bit
# origin) and global ids built by shifting a local index past the shard
# bits.
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
  consensus_spec_test spec_framework_test alloc_budget_test \
  crypto_test consensus_test session_test kv_test statestore_test \
  parallel_spec_test campaign_test
echo "=== test build-ubsan (driver tests) ==="
for t in raft_node_test scenario_dsl_test scenario_test e2e_test \
  bugs_test nemesis_test session_api_test snapshot_test util_test \
  trace_validation_test validator_golden_test checker_golden_test \
  consensus_spec_test spec_framework_test alloc_budget_test \
  crypto_test consensus_test session_test kv_test statestore_test \
  parallel_spec_test campaign_test; do
  echo "--- ${t} (ubsan) ---"
  "./build-ubsan/tests/${t}"
done

# ASan over the suites doing manual memory work: the state store (slab
# blocks allocated uninitialized, record views into them),
# the checker's level arenas (bodies constructed and destroyed by hand in
# raw chunks that are reset and reused every other level, in
# statestore_test, parallel_spec_test and campaign_test, and holding the
# trace product spec's (line, state) bodies under BFS validation in
# exploration_core_test), ByteSink and the packed consensus encoder
# (memcpy into a grown buffer), SmallVec (elements constructed and
# destroyed by hand in inline slots and heap blocks), the one-worker DFS
# (frames reused across descents, each pointing at its entered state in
# the parent frame's successor vector, the witness moved out of them;
# nemesis_test drives it over long nemesis traces), the
# symmetry canonicalizer (states permuted in place), the checker
# suites, where moved-from successors flow through the engines, and the
# serving suites: SHA-256 (whole blocks read straight from the input,
# the tail buffered), TxIdRuns (inline runs in a SmallVec, iterators
# walking them) and the kvws1 decoder (string_view slices of the
# payload). An off-by-one there is
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
  consensus_spec_test spec_framework_test alloc_budget_test symmetry_test \
  crypto_test consensus_test session_test kv_test campaign_test \
  parallel_spec_test nemesis_test exploration_core_test
for t in statestore_test util_test trace_validation_test \
  validator_golden_test checker_golden_test consensus_spec_test \
  spec_framework_test alloc_budget_test symmetry_test \
  crypto_test consensus_test session_test kv_test campaign_test \
  parallel_spec_test nemesis_test exploration_core_test; do
  echo "--- ${t} (asan) ---"
  "./build-asan/tests/${t}"
done

echo "=== ci/check.sh: all variants passed ==="
