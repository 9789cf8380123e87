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
/// their own that these trials never touch. Before timers were keyed by
/// their `seq`, the heap also kept a slab of 1,024 payload slots of 112
/// bytes and a free list of spent slots that grew by doubling. Each trial
/// paid one allocation and 114,688 bytes for the slab, and 6, 7 and 8
/// allocations and 1,008, 2,032 and 4,080 bytes for the free list, in the
/// order of the scenarios below: release 924 → 917, 1,076 → 1,068 and
/// 2,077 → 2,068 allocations; 1,997,117 → 1,881,421, 2,717,236 →
/// 2,600,516 and 2,007,588 → 1,888,820 bytes. Debug fell by the same.
#[cfg(debug_assertions)]
const H2_BASELINE_PIN: u64 = 1_659;
#[cfg(not(debug_assertions))]
const H2_BASELINE_PIN: u64 = 917;

#[cfg(debug_assertions)]
const H2_BASELINE_BYTES_PIN: u64 = 1_917_246;
#[cfg(not(debug_assertions))]
const H2_BASELINE_BYTES_PIN: u64 = 1_881_421;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_PIN: u64 = 2_090;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_PIN: u64 = 1_068;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 2_649_845;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 2_600_516;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_PIN: u64 = 2_152;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_PIN: u64 = 2_068;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_892_890;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_888_820;

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
