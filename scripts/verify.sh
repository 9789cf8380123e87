#!/usr/bin/env sh
# Tier-1 verification gate: hermetic build, full test suite, formatting.
#
# The workspace has zero crates.io dependencies, so --offline must always
# succeed from a clean checkout — if it doesn't, a registry dependency
# crept back in and this gate is doing its job.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== event core: differential oracle suite (wheel vs reference heap)"
cargo test -q --offline -p h2priv-netsim --test queue_differential

echo "== event core: full suite under the reference BinaryHeap queue"
# The timer wheel must be a drop-in replacement: every pinned outcome
# (seed stability, events_total, golden fixtures) has to pass untouched
# with the oracle queue swapped in.
cargo test -q --offline --features h2priv-netsim/reference-queue

echo "== event core: cancel/rearm leaves no tombstones"
cargo test -q --offline -p h2priv-netsim --test cancel_rearm
cargo test -q --offline -p h2priv-tcp --test rto_restart
cargo test -q --offline -p h2priv-quic --test pto_rearm

echo "== perfbench smoke (tiny trial budget, throwaway output)"
PERFBENCH_REPS=1 cargo run --release --offline -p h2priv-bench --bin perfbench -- 2 /tmp/h2priv_perf_smoke.json >/dev/null

echo "== allocation-regression pins (counting allocator, exact per-trial counts)"
# Steady-state allocations per trial are deterministic for a given seed
# and build profile; any drift is a real hot-path change. Exact pins
# live in crates/core/tests/alloc_regression.rs.
cargo test -q --offline --release -p h2priv-core --test alloc_regression

echo "== repobench: its own tests, then a short pinned-digest run of each workload"
# The benchmark is a package outside the workspace that drives the
# public API (it builds `IsideWithTrial` by struct literal, for one), so
# nothing above compiles it. Each run exits 1 when any trial's digest
# differs from its pinned reference. `defense_campaign` runs at least one
# killed-and-resumed 500-cell campaign, checking every journal line —
# the QUIC padding and split cells among them — against its digest.
cargo test -q --offline --manifest-path repobench/Cargo.toml
for w in table2_h2 transfer_h3 defense_campaign; do
    if ! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
        --workload "$w" --seconds 2 >"/tmp/h2priv_repobench_$w.txt" 2>&1; then
        cat "/tmp/h2priv_repobench_$w.txt" >&2
        echo "ERROR: repobench $w failed its checks" >&2
        exit 1
    fi
done

echo "== perfbench events/sec floor (warn-only)"
# Regenerating BENCH_simperf.json on wildly different hosts is expected;
# this only warns when the committed h2_baseline jobs=1 throughput drops
# below the floor recorded at the time of the event-core overhaul.
FLOOR_EVS=2600000
COMMITTED_EVS=$(sed -n 's/.*"events_per_sec": \([0-9]*\)\..*/\1/p' BENCH_simperf.json | head -1)
if [ -n "$COMMITTED_EVS" ] && [ "$COMMITTED_EVS" -lt "$FLOOR_EVS" ]; then
    echo "WARN: committed h2_baseline events/sec ($COMMITTED_EVS) is below the $FLOOR_EVS floor" >&2
fi

echo "== h3_full_attack events/sec floor (warn-only)"
# Floor recorded after the zero-alloc QUIC/H3 hot-path pass (the gate is
# 2x the pre-pass 790k ev/s baseline). Committed numbers from a slower
# host only warn, never fail.
H3_FLOOR_EVS=1600000
H3_COMMITTED_EVS=$(grep -A 11 '"scenario": "h3_full_attack"' BENCH_simperf.json \
    | sed -n 's/.*"events_per_sec": \([0-9]*\)\..*/\1/p' | head -1)
if [ -n "$H3_COMMITTED_EVS" ] && [ "$H3_COMMITTED_EVS" -lt "$H3_FLOOR_EVS" ]; then
    echo "WARN: committed h3_full_attack events/sec ($H3_COMMITTED_EVS) is below the $H3_FLOOR_EVS floor" >&2
fi

echo "== parallel executor smoke (--jobs 2)"
RUN=target/release/run
"$RUN" table1 2 --jobs 2 >/dev/null 2>&1

echo "== trace smoke (--trace jsonl parses and is byte-identical across --jobs)"
"$RUN" table1 2 --jobs 1 --trace /tmp/h2priv_trace_j1.jsonl >/dev/null 2>&1
"$RUN" table1 2 --jobs 2 --trace /tmp/h2priv_trace_j2.jsonl >/dev/null 2>&1
test -s /tmp/h2priv_trace_j1.jsonl
cmp /tmp/h2priv_trace_j1.jsonl /tmp/h2priv_trace_j2.jsonl
cargo run --release --offline -p h2priv-bench --bin trace_check -- /tmp/h2priv_trace_j1.jsonl

echo "== campaign gate (sharded run + injected kill + resume == sequential run)"
# The sharded campaign runner must be invisible in the results: a 2-shard
# run that is killed at an injected crash point and then resumed has to
# produce byte-identical journal and report to an uninterrupted 1-shard
# run. Small trial budget keeps this under a minute.
CAMPAIGN=target/release/campaign
rm -f /tmp/h2priv_camp_seq.jsonl /tmp/h2priv_camp_seq.json \
      /tmp/h2priv_camp_shard.jsonl /tmp/h2priv_camp_shard.json
"$CAMPAIGN" robustness_sweep 2 --shards 1 --quiet \
    --journal /tmp/h2priv_camp_seq.jsonl --out /tmp/h2priv_camp_seq.json
if "$CAMPAIGN" robustness_sweep 2 --shards 2 --quiet --fail-on-crash \
    --inject-kill trial=6 \
    --journal /tmp/h2priv_camp_shard.jsonl --out /tmp/h2priv_camp_shard.json \
    2>/dev/null; then
    echo "ERROR: injected kill did not abort the campaign" >&2
    exit 1
fi
"$CAMPAIGN" robustness_sweep 2 --shards 2 --quiet --resume \
    --journal /tmp/h2priv_camp_shard.jsonl --out /tmp/h2priv_camp_shard.json
cmp /tmp/h2priv_camp_seq.jsonl /tmp/h2priv_camp_shard.jsonl
cmp /tmp/h2priv_camp_seq.json /tmp/h2priv_camp_shard.json

echo "== campaign gate (table2: kill mid-batch + resume == run)"
# Every registered experiment shards. Table II's one batch of 2 trials
# is killed after its first record, so the resume lands mid-batch; the
# resumed report must equal the in-process run's.
rm -f /tmp/h2priv_camp_t2.jsonl /tmp/h2priv_camp_t2.json /tmp/h2priv_run_t2.json
if "$CAMPAIGN" table2 2 --shards 1 --quiet --fail-on-crash --inject-kill trial=1 \
    --journal /tmp/h2priv_camp_t2.jsonl --out /tmp/h2priv_camp_t2.json 2>/dev/null; then
    echo "ERROR: injected kill did not abort the table2 campaign" >&2
    exit 1
fi
"$CAMPAIGN" table2 2 --shards 2 --quiet --resume \
    --journal /tmp/h2priv_camp_t2.jsonl --out /tmp/h2priv_camp_t2.json
"$RUN" table2 2 --quiet --out /tmp/h2priv_run_t2.json >/dev/null
cmp /tmp/h2priv_camp_t2.json /tmp/h2priv_run_t2.json

echo "== defense matrix smoke (--jobs identity)"
# A 6-trial matrix is byte-identical across --jobs levels. Its success
# pins (undefended cells unchanged, padding and shaping zeroing the
# H2/TCP attack) live in crates/core/tests/defense_conservation.rs.
DM1=/tmp/h2priv_defense_j1.json
DM4=/tmp/h2priv_defense_j4.json
"$RUN" defense_matrix 6 --jobs 1 --out "$DM1" >/dev/null 2>&1
"$RUN" defense_matrix 6 --jobs 4 --out "$DM4" >/dev/null 2>&1
cmp "$DM1" "$DM4"

echo "verify: OK"
