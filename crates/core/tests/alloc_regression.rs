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
#[cfg(debug_assertions)]
const H2_BASELINE_PIN: u64 = 1_655;
#[cfg(not(debug_assertions))]
const H2_BASELINE_PIN: u64 = 913;

#[cfg(debug_assertions)]
const H2_BASELINE_BYTES_PIN: u64 = 1_978_846;
#[cfg(not(debug_assertions))]
const H2_BASELINE_BYTES_PIN: u64 = 1_943_021;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_PIN: u64 = 2_086;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_PIN: u64 = 1_064;

#[cfg(debug_assertions)]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 2_711_445;
#[cfg(not(debug_assertions))]
const H2_FULL_ATTACK_BYTES_PIN: u64 = 2_662_116;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_PIN: u64 = 2_152;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_PIN: u64 = 2_068;

#[cfg(debug_assertions)]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_966_010;
#[cfg(not(debug_assertions))]
const H3_FULL_ATTACK_BYTES_PIN: u64 = 1_961_940;

#[cfg(debug_assertions)]
const TABLE2_OUTCOME_CALLS_PIN: u64 = 44;
#[cfg(not(debug_assertions))]
const TABLE2_OUTCOME_CALLS_PIN: u64 = 44;

/// Exact pins hold for the default timer-wheel scheduler. The
/// `reference-queue` oracle build allocates a handful more (BinaryHeap
/// growth, cancel tombstones), and the oracle suite only promises
/// byte-identical *results*, not identical allocator traffic — so under
/// that feature the pin relaxes to a ceiling that still catches a
/// per-chunk allocation sneaking back in.
fn assert_pinned(scenario: &str, allocs: u64, pin: u64) {
    if h2priv_netsim::REFERENCE_QUEUE {
        assert!(
            allocs <= pin + 256,
            "{scenario} steady-state allocations under the reference queue grew \
             past the slack band: {allocs} (wheel pin {pin})"
        );
    } else {
        assert_eq!(
            allocs, pin,
            "{scenario} steady-state allocations changed: {allocs} (pinned {pin}); \
             see the module docs before re-baselining"
        );
    }
}

/// [`assert_pinned`] for bytes requested. The reference queue's growth
/// adds a few KiB; its 64 KiB slack is still far under the megabytes a
/// per-chunk copy adds to an H2 trial.
fn assert_bytes_pinned(scenario: &str, bytes: u64, pin: u64) {
    if h2priv_netsim::REFERENCE_QUEUE {
        assert!(
            bytes <= pin + 65_536,
            "{scenario} steady-state bytes allocated under the reference queue grew \
             past the slack band: {bytes} (wheel pin {pin})"
        );
    } else {
        assert_eq!(
            bytes, pin,
            "{scenario} steady-state bytes allocated changed: {bytes} (pinned {pin}); \
             see the module docs before re-baselining"
        );
    }
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
