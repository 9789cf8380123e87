//! Seed-stability regression: the in-tree PRNG replaced the external
//! `rand` SmallRng, and every hardcoded experiment seed in EXPERIMENTS.md
//! depends on the two producing identical draw sequences. This test pins
//! one full-attack trial and asserts its exact outcome; any change to the
//! RNG, the simulator's draw order, or the predictor pipeline that would
//! silently invalidate the published numbers fails here first.

use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::{run_isidewith_h3_trial, run_isidewith_trial};
use h2priv_core::experiments::{run, RobustnessSweep};
use h2priv_web::Party;

#[test]
fn pinned_seed_42_full_attack_outcome_is_stable() {
    let trial = run_isidewith_trial(42, Some(AttackConfig::full_attack()));

    // Exact serialized-object count: every emblem image fully serialized.
    let serialized_images = trial
        .image_outcomes()
        .iter()
        .filter(|o| o.best_degree == 0.0)
        .count();
    assert_eq!(serialized_images, 8, "serialized emblem images");

    // Exact segmentation and identification counts from the trace.
    assert_eq!(trial.prediction.units.len(), 80, "transmission units");
    assert_eq!(trial.prediction.labels().len(), 17, "identified units");

    // Predictor verdict on the object of interest.
    let html = trial.html_outcome();
    assert!(html.identified, "HTML identified from the encrypted trace");
    assert!(html.success, "HTML serialized and identified");

    // The inferred party ranking, byte for byte.
    assert_eq!(
        trial.predicted_order(),
        vec![
            Party::Libertarian,
            Party::Socialist,
            Party::Reform,
            Party::Democratic,
            Party::AmericanSolidarity,
            Party::Constitution,
            Party::Republican,
            Party::Green,
        ]
    );
}

#[test]
fn pinned_robustness_sweep_seeds_are_stable() {
    // Two trials at the sweep's endpoints, on the registered base seed
    // (81_000). The seed family is
    // `base + 5_000_000 + intensity_idx * 10_000 + trial`, so these pins
    // cover both the fault-free and the fully-impaired draw sequences,
    // including the retry-seed derivation.
    let sweep = RobustnessSweep {
        intensities: &[0.0, 1.0],
    };
    let rows = run(&sweep, 2, 81_000, 1);
    assert_eq!(rows.len(), 2);

    let pristine = &rows[0];
    assert_eq!(pristine.intensity, 0.0);
    assert_eq!(pristine.pct_html_serialized, Some(100.0));
    assert_eq!(pristine.pct_html_identified, Some(50.0));
    assert_eq!(pristine.pct_success, Some(50.0));
    assert_eq!(pristine.retransmissions_avg, Some(20.0));
    assert_eq!(pristine.fault_drops_avg, Some(0.0));
    assert_eq!(
        (pristine.completed, pristine.stalled, pristine.aborted),
        (2, 0, 0)
    );
    assert_eq!(pristine.retries_used, 0);

    let impaired = &rows[1];
    assert_eq!(impaired.intensity, 1.0);
    assert_eq!(impaired.pct_html_serialized, Some(50.0));
    assert_eq!(impaired.pct_html_identified, Some(50.0));
    assert_eq!(impaired.pct_success, Some(50.0));
    assert_eq!(impaired.retransmissions_avg, Some(204.5));
    assert_eq!(impaired.fault_drops_avg, Some(164.5));
    assert_eq!(
        (impaired.completed, impaired.stalled, impaired.aborted),
        (2, 0, 0)
    );
    assert_eq!(impaired.retries_used, 1);
}

/// Pins the exact total event count of the three allocation-pinned
/// scenarios (`h2_baseline`, `h2_full_attack`, `h3_full_attack`) over
/// the 100 seeds `91_000..91_100`. Any change to event push order, the
/// `(time, seq)` tie-break, timer semantics, or the shared world-RNG
/// interleave shifts these totals long before a figure or golden fixture
/// notices.
#[test]
fn pinned_perfbench_scenario_event_totals_are_stable() {
    let totals = |run: &dyn Fn(u64) -> u64| (91_000u64..91_100).map(run).sum::<u64>();

    let h2_baseline = totals(&|s| run_isidewith_trial(s, None).result.sim_events);
    assert_eq!(h2_baseline, 796_330, "h2_baseline events_total");

    let h2_full_attack = totals(&|s| {
        run_isidewith_trial(s, Some(AttackConfig::full_attack()))
            .result
            .sim_events
    });
    assert_eq!(h2_full_attack, 1_214_110, "h2_full_attack events_total");

    let h3_full_attack = totals(&|s| {
        run_isidewith_h3_trial(s, Some(AttackConfig::full_attack()))
            .result
            .sim_events
    });
    assert_eq!(h3_full_attack, 387_693, "h3_full_attack events_total");
}

#[test]
fn pinned_seed_is_reproducible_within_a_process() {
    let a = run_isidewith_trial(2020, Some(AttackConfig::full_attack()));
    let b = run_isidewith_trial(2020, Some(AttackConfig::full_attack()));
    assert_eq!(a.prediction.units.len(), b.prediction.units.len());
    assert_eq!(a.predicted_order(), b.predicted_order());
    assert_eq!(a.iw.result_order, b.iw.result_order);
}
