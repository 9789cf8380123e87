//! Fold identity: the campaign's incremental per-cell fold — including
//! a JSON round-trip of every payload, exactly as the journal imposes —
//! must reproduce the in-process experiment's report bytes. This is the
//! invariant that lets the sharded campaign runner claim its output is
//! *the* experiment output, not an approximation of it.

use h2priv_core::campaign::{
    defense_matrix_report, robustness_report, table1_report, CampaignSpec,
};
use h2priv_core::experiments::{defense_matrix, robustness_sweep, table1, ROBUSTNESS_INTENSITIES};
use h2priv_util::json::Json;

/// Runs every cell, round-trips its payload through compact JSON text
/// (the journal's storage form), folds, and renders.
fn fold_report(spec: &CampaignSpec) -> String {
    let mut folder = spec.folder();
    for i in 0..spec.total_cells() {
        let (batch, trial) = spec.cell(i);
        let payload = spec.run_cell(batch, trial);
        let round_tripped = Json::parse(&payload.to_string_compact()).unwrap();
        assert_eq!(round_tripped, payload, "payload round-trip must be exact");
        folder.push(batch, trial, &round_tripped).unwrap();
    }
    folder.finish().unwrap()
}

#[test]
fn campaign_fold_matches_robustness_sweep_report_bytes() {
    let spec = CampaignSpec::for_experiment("robustness_sweep", 1).unwrap();
    let direct = robustness_sweep(1, 81_000, &ROBUSTNESS_INTENSITIES, 1);
    assert_eq!(fold_report(&spec), robustness_report(&direct));
}

#[test]
fn campaign_fold_matches_table1_report_bytes() {
    let spec = CampaignSpec::for_experiment("table1", 1).unwrap();
    let direct = table1(1, 11_000, 1);
    assert_eq!(fold_report(&spec), table1_report(&direct));
}

#[test]
fn campaign_fold_matches_defense_matrix_report_bytes() {
    // Crosses both transports: every (attack, transport, defense) batch
    // at one trial each.
    let spec = CampaignSpec::for_experiment("defense_matrix", 1).unwrap();
    let direct = defense_matrix(1, 83_000, 1);
    assert_eq!(fold_report(&spec), defense_matrix_report(&direct));
}
