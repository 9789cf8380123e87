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

echo "== cargo doc --offline --no-deps --workspace, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== event queue: the heap, and the heaps merged with the link lanes, against brute-force models"
cargo test -q --offline -p h2priv-netsim --test queue_differential
cargo test -q --offline -p h2priv-netsim --lib event::tests::lanes_and_heap_pop_like_one_model_queue

echo "== quic: the send probe against a full scan"
# The stream table's marked probe against its BTreeMap oracle, and the
# debug-build H3 trials in which every pick is checked against a full
# scan and every re-mark against each stream's readiness. The workspace
# `cargo test` above already ran these in the same profile; this step
# reruns them (a few seconds) so a failure shows under its own heading.
cargo test -q --offline -p h2priv-quic

echo "== capture: streaming TLS records against the batch oracle"
cargo test -q --offline -p h2priv-trace --test properties

echo "== campaign: a kill on any slot journals exactly K records, and the resume is byte-identical"
cargo test -q --offline -p h2priv-bench --test campaign_resume --test campaign_supervisor

echo "== allocation-regression pins (counting allocator, exact per-trial counts)"
# Steady-state allocations per trial are deterministic for a given seed
# and build profile; any drift is a real hot-path change. Exact pins
# live in crates/core/tests/alloc_regression.rs.
cargo test -q --offline --release -p h2priv-core --test alloc_regression

echo "== results manifest: every committed artefact regenerates byte for byte"
# results/MANIFEST lists each file under results/ with the `run` call
# that makes it; crates/bench/tests/results_manifest.rs checks the list
# against the registry and the files' CRC-32s. Each experiment runs once.
RUN=target/release/run
REGEN=/tmp/h2priv_results
rm -rf "$REGEN"
mkdir -p "$REGEN"
grep -v '^#' results/MANIFEST | while read -r exp trials _seed file _crc; do
    [ -n "$exp" ] || continue
    out="$REGEN/$exp.$trials"
    if [ ! -e "$out.json" ]; then
        "$RUN" "$exp" "$trials" --out "$out.json" >"$out.txt" 2>/dev/null
    fi
    case "$file" in
        *.json) made="$out.json" ;;
        *) made="$out.txt" ;;
    esac
    if ! cmp -s "$made" "results/$file"; then
        echo "ERROR: results/$file differs from run $exp $trials" >&2
        exit 1
    fi
done

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

echo "== parallel executor smoke (--jobs 2)"
"$RUN" table1 2 --jobs 2 >/dev/null 2>&1

echo "== trace smoke (--trace jsonl parses and is byte-identical across --jobs)"
"$RUN" table1 2 --jobs 1 --trace /tmp/h2priv_trace_j1.jsonl >/dev/null 2>&1
"$RUN" table1 2 --jobs 2 --trace /tmp/h2priv_trace_j2.jsonl >/dev/null 2>&1
test -s /tmp/h2priv_trace_j1.jsonl
cmp /tmp/h2priv_trace_j1.jsonl /tmp/h2priv_trace_j2.jsonl
cargo run --release --offline -p h2priv-bench --bin trace_check -- /tmp/h2priv_trace_j1.jsonl
# table1 runs H2 only; transport_transfer runs the same page-load model
# over H2 and H3, so its trace holds QUIC `pto`/`loss_retransmit`,
# monitor, predictor and watchdog events too.
"$RUN" transport_transfer 2 --jobs 1 --trace /tmp/h2priv_trace_tt_j1.jsonl >/dev/null 2>&1
"$RUN" transport_transfer 2 --jobs 2 --trace /tmp/h2priv_trace_tt_j2.jsonl >/dev/null 2>&1
test -s /tmp/h2priv_trace_tt_j1.jsonl
cmp /tmp/h2priv_trace_tt_j1.jsonl /tmp/h2priv_trace_tt_j2.jsonl
cargo run --release --offline -p h2priv-bench --bin trace_check -- /tmp/h2priv_trace_tt_j1.jsonl

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
