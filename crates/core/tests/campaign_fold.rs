//! Fold identity: the campaign's incremental per-cell fold — including
//! a JSON round-trip of every payload, exactly as the journal imposes —
//! must reproduce the in-process experiment's report bytes. This is the
//! invariant that lets the sharded campaign runner claim its output is
//! *the* experiment output, not an approximation of it. Every registered
//! experiment is checked, one test each, at one trial per batch.

use h2priv_core::campaign::{CampaignFolder, CampaignSpec};
use h2priv_core::experiments::{drive, named, Folder, EXPERIMENTS};
use h2priv_util::json::Json;

/// True when `p` holds only integers, booleans, null, and arrays or
/// objects of them — values a journal round-trip cannot perturb.
fn exact(p: &Json) -> bool {
    match p {
        Json::Null | Json::Bool(_) | Json::Int(_) | Json::UInt(_) => true,
        Json::Arr(items) => items.iter().all(exact),
        Json::Obj(fields) => fields.iter().all(|(_, v)| exact(v)),
        Json::Float(_) | Json::Str(_) => false,
    }
}

/// Folds every batch twice: whole, as the in-process driver does, and
/// cell by cell through the campaign folder after the journal's compact
/// JSON round-trip. Each cell runs once.
struct Tee {
    direct: Box<dyn Folder>,
    campaign: CampaignFolder,
}

impl Folder for Tee {
    fn push(&mut self, batch: usize, payloads: &[Json]) -> Result<(), String> {
        for (t, p) in payloads.iter().enumerate() {
            let text = p.to_string_compact();
            assert!(exact(p), "batch {batch} trial {t}: inexact payload {text}");
            let journaled = Json::parse(&text).unwrap();
            assert_eq!(&journaled, p, "payload round-trip must be exact");
            self.campaign.push(batch as u64, t as u64, &journaled)?;
        }
        self.direct.push(batch, payloads)
    }

    fn report(&self) -> String {
        self.direct.report()
    }

    fn table(&self) -> String {
        self.direct.table()
    }
}

fn check(name: &str) {
    let entry = named(name).unwrap();
    let mut tee = Tee {
        direct: entry.experiment.folder(),
        campaign: CampaignSpec::new(entry, 1).folder(),
    };
    drive(entry.experiment, 1, entry.base_seed, 1, &mut tee);
    let direct = tee.direct.report();
    assert!(!direct.is_empty());
    assert_eq!(tee.campaign.finish().unwrap(), direct);
}

macro_rules! fold_tests {
    ($($test:ident: $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check($name);
            }
        )*
        const COVERED: &[&str] = &[$($name),*];
    };
}

fold_tests! {
    campaign_fold_matches_table1_report_bytes: "table1",
    campaign_fold_matches_fig5_report_bytes: "fig5",
    campaign_fold_matches_section4d_report_bytes: "section4d",
    campaign_fold_matches_section4d_timer_only_report_bytes: "section4d_timer_only",
    campaign_fold_matches_table2_report_bytes: "table2",
    campaign_fold_matches_baseline_report_bytes: "baseline",
    campaign_fold_matches_fig1_report_bytes: "fig1",
    campaign_fold_matches_fig2_report_bytes: "fig2",
    campaign_fold_matches_ablation_report_bytes: "ablation",
    campaign_fold_matches_robustness_sweep_report_bytes: "robustness_sweep",
    campaign_fold_matches_transport_transfer_report_bytes: "transport_transfer",
    campaign_fold_matches_defense_matrix_report_bytes: "defense_matrix",
}

#[test]
fn every_registered_experiment_has_a_fold_test() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(COVERED, registered);
}
