//! Allocation-regression pins for the simulator hot paths.
//!
//! Counts every heap allocation one steady-state trial makes (per
//! scenario, fixed seed) and pins the exact number; the trial scenarios
//! pin the bytes requested too, so a per-chunk copy cannot come back behind
//! an unchanged count (say, as a buffer grown on every use). Allocation
//! counts are fully deterministic for a given seed and build profile, so
//! any drift here is a real behavioural change on the packet path — not
//! noise.
//!
//! If a pin fails after an intentional change (a new feature that
//! legitimately allocates, a data-structure swap, a changed buffer
//! strategy), re-baseline by running this test and copying the number
//! from the assertion message into the constant below — but first make
//! sure the delta is the size you expected. A surprise increase of
//! hundreds of allocations usually means a per-event or per-chunk
//! allocation sneaked back into the hot path; that is exactly what this
//! test exists to catch.

use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::{run_isidewith_h3_trial, run_isidewith_trial, IsideWithTrial};
use h2priv_util::alloc;
use std::hint::black_box;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Steady-state allocations and bytes for one run of `f`: two warm-up
/// runs first, so lazily-initialised statics (telemetry sinks,
/// thread-local buffer pools) are counted as the one-time costs they
/// are, then a counted run.
fn steady_state_allocs(mut f: impl FnMut()) -> (u64, u64) {
    f();
    f();
    let ((), allocs, bytes) = alloc::counting(f);
    (allocs, bytes)
}

/// Debug builds allocate more (debug_assertions enable extra sanity
/// decodes on the client response path), so each scenario pins both
/// profiles.
///
/// The simulator's timer heap holds `(time, seq, node)` entries, 24 bytes
/// each, preallocated for 1,024 timers; fault events wait in a heap of
/// their own that these trials never touch.
///
/// The capture keeps no payload bytes. It used to copy every payload into
/// 64 KiB arena chunks, 17 and 21 of them in the two H2 trials below, and
/// each 96-byte `PacketRecord` held a handle into one; a record is now 64
/// bytes. Each direction's `TlsStream` reads the record headers as packets
/// pass and copies only the segments that arrive ahead of a gap: 49 in
/// the baseline trial and 24 in the attacked one. The client→server
/// records (61 and 89) are read too, which nothing did before. On H3 no
/// stream starts, so only the arena goes. Release: 917 → 937, 1,068 →
/// 1,050 and 2,068 → 2,046 allocations; 1,881,421 → 736,181, 2,600,516 →
/// 1,020,563 and 1,888,820 → 1,282,972 bytes. Debug: 1,659 → 1,679,
/// 2,090 → 2,072 and 2,152 → 2,130; 1,917,246 → 772,006, 2,649,845 →
/// 1,069,892 and 1,892,890 → 1,287,042.
#[cfg(debug_assertions)]
const H2_BASELINE_PIN: u64 = 1_679;
#[cfg(not(debug_assertions))]
const H2_BASELINE_PIN: u64 = 937;

#[cfg(debug_assertions)]
const H2_BASELINE_BYTES_PIN: u64 = 772_006;
#[cfg(not(debug_assertions))]
const H2_BASELINE_BYTES_PIN: u64 = 736_181;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_PIN: u64 = 2_072;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_PIN: u64 = 1_050;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 1_069_892;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 1_020_563;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_PIN: u64 = 2_130;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_PIN: u64 = 2_046;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_287_042;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_282_972;

#[cfg(debug_assertions)]
const TABLE2_OUTCOME_CALLS_PIN: u64 = 44;
#[cfg(not(debug_assertions))]
const TABLE2_OUTCOME_CALLS_PIN: u64 = 44;

/// Every pin is exact: a drift in either direction fails.
fn assert_pinned(scenario: &str, allocs: u64, pin: u64) {
    assert_eq!(
        allocs, pin,
        "{scenario} steady-state allocations changed: {allocs} (pinned {pin}); \
         see the module docs before re-baselining"
    );
}

/// [`assert_pinned`] for bytes requested.
fn assert_bytes_pinned(scenario: &str, bytes: u64, pin: u64) {
    assert_eq!(
        bytes, pin,
        "{scenario} steady-state bytes allocated changed: {bytes} (pinned {pin}); \
         see the module docs before re-baselining"
    );
}

#[test]
fn h2_baseline_steady_state_allocs_are_pinned() {
    let (allocs, bytes) = steady_state_allocs(|| {
        run_isidewith_trial(91_000, None);
    });
    assert_pinned("h2_baseline", allocs, H2_BASELINE_PIN);
    assert_bytes_pinned("h2_baseline", bytes, H2_BASELINE_BYTES_PIN);
}

/// The Table II configuration: every record the attack delays or drops
/// comes back through TCP's retransmission and the pooled buffers.
#[test]
fn h2_full_attack_steady_state_allocs_are_pinned() {
    let (allocs, bytes) = steady_state_allocs(|| {
        run_isidewith_trial(91_000, Some(AttackConfig::full_attack()));
    });
    assert_pinned("h2_full_attack", allocs, H2_FULL_ATTACK_PIN);
    assert_bytes_pinned("h2_full_attack", bytes, H2_FULL_ATTACK_BYTES_PIN);
}

#[test]
fn h3_full_attack_steady_state_allocs_are_pinned() {
    let (allocs, bytes) = steady_state_allocs(|| {
        run_isidewith_h3_trial(91_000, Some(AttackConfig::full_attack()));
    });
    assert_pinned("h3_full_attack", allocs, H3_FULL_ATTACK_PIN);
    assert_bytes_pinned("h3_full_attack", bytes, H3_FULL_ATTACK_BYTES_PIN);
}

/// The outcome calls a Table II trial makes, the degree-of-multiplexing
/// index build included: each run gets its own clone of the trial, taken
/// before any outcome call, so no run finds the index already swept.
#[test]
fn table2_outcome_calls_steady_state_allocs_are_pinned() {
    let trial = run_isidewith_trial(91_000, Some(AttackConfig::full_attack()));
    let mut fresh: Vec<IsideWithTrial> = vec![trial.clone(), trial.clone(), trial];
    let (allocs, _) = steady_state_allocs(|| {
        let trial = fresh.pop().expect("one clone per run");
        black_box((
            trial.html_outcome(),
            trial.image_outcomes(),
            trial.sequence_success(),
        ));
    });
    assert_pinned("table2_outcome_calls", allocs, TABLE2_OUTCOME_CALLS_PIN);
}
