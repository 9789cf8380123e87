//! Campaign-level experiment enumeration: the bridge between an
//! experiment's `(batch, trial)` space and the sharded out-of-process
//! runner in `h2priv-campaign`.
//!
//! A [`CampaignSpec`] names a registered experiment (see
//! [`EXPERIMENTS`](crate::experiments::EXPERIMENTS)), fixes its trial
//! budget, and enumerates its cells — one `(batch, trial)` pair per
//! trial, globally ordered batch-major. Worker processes are each
//! handed every n-th cell of that enumeration ([`CampaignSpec::cell`]
//! maps a global index back to its pair), run each cell as a pure
//! function of the spec ([`CampaignSpec::run_cell`]), and emit the
//! experiment's trial payload, which holds exactly-representable values
//! only — floats never cross the process boundary, so a journal
//! round-trip cannot perturb a single bit.
//!
//! The [`CampaignFolder`] consumes payloads strictly in `(batch,
//! trial)` order and, at each batch boundary, pushes the batch into the
//! experiment's own [`Folder`] — the one the in-process driver fills —
//! so it renders the exact report bytes a single-process run writes.
//! Memory is bounded by one batch's payloads plus the finished rows —
//! never by the trial count.

use crate::experiments::{named, Folder, Registered};
use h2priv_util::json::Json;

/// A fully-specified campaign: experiment, trial budget, and cell
/// enumeration.
#[derive(Clone, Copy)]
pub struct CampaignSpec {
    /// The registered experiment; its base seed is the campaign's, so
    /// campaign output is the `run` output.
    pub entry: &'static Registered,
    /// Trials per batch.
    pub trials: u64,
    /// Batches, in sweep order.
    pub batches: u64,
}

impl CampaignSpec {
    /// The campaign of `entry` at `trials` trials per batch.
    pub fn new(entry: &'static Registered, trials: u64) -> CampaignSpec {
        CampaignSpec {
            entry,
            trials,
            batches: entry.experiment.labels().len() as u64,
        }
    }

    /// Builds the spec for a named experiment, or `None` for an unknown
    /// name.
    pub fn for_experiment(name: &str, trials: u64) -> Option<CampaignSpec> {
        named(name).map(|entry| CampaignSpec::new(entry, trials))
    }

    /// Total cells in the campaign.
    pub fn total_cells(&self) -> u64 {
        self.batches * self.trials
    }

    /// Maps a global cell index to its `(batch, trial)` pair.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn cell(&self, index: u64) -> (u64, u64) {
        assert!(
            index < self.total_cells(),
            "cell index {index} out of range ({} cells)",
            self.total_cells()
        );
        (index / self.trials, index % self.trials)
    }

    /// Runs one cell and returns its journal payload.
    pub fn run_cell(&self, batch: u64, trial: u64) -> Json {
        self.entry
            .experiment
            .payload(self.entry.base_seed, batch as usize, trial as usize)
    }

    /// The identity fields a journal header must match for `--resume`
    /// to accept it.
    pub fn header_fields(&self) -> Vec<(String, Json)> {
        vec![
            (
                "experiment".to_string(),
                Json::Str(self.entry.name.to_string()),
            ),
            ("trials".to_string(), Json::UInt(self.trials)),
            ("base_seed".to_string(), Json::UInt(self.entry.base_seed)),
            ("cells".to_string(), Json::UInt(self.total_cells())),
        ]
    }

    /// A fresh incremental folder for this campaign.
    pub fn folder(&self) -> CampaignFolder {
        CampaignFolder {
            spec: *self,
            next: 0,
            batch: Vec::new(),
            rows: self.entry.experiment.folder(),
        }
    }
}

/// Incremental, order-checked fold of campaign cell payloads into the
/// experiment's final report bytes.
///
/// [`CampaignFolder::push`] must be fed every cell exactly once in
/// global cell order; any gap, duplicate, or reordering is an error —
/// this is the integrity check that makes journal replay trustworthy.
pub struct CampaignFolder {
    spec: CampaignSpec,
    next: u64,
    /// The open batch's payloads, in trial order.
    batch: Vec<Json>,
    rows: Box<dyn Folder>,
}

impl CampaignFolder {
    /// The global index of the next cell this folder expects.
    pub fn next_cell(&self) -> u64 {
        self.next
    }

    /// Folds in the payload of cell `(batch, trial)`.
    ///
    /// # Errors
    /// Rejects out-of-order cells and malformed payloads; a payload is
    /// checked when its batch completes.
    pub fn push(&mut self, batch: u64, trial: u64, payload: &Json) -> Result<(), String> {
        let total = self.spec.total_cells();
        if self.next >= total {
            return Err(format!(
                "cell ({batch}, {trial}) past the end of the campaign ({total} cells)"
            ));
        }
        let expect = self.spec.cell(self.next);
        if (batch, trial) != expect {
            return Err(format!(
                "cell out of order: got ({batch}, {trial}), expected ({}, {})",
                expect.0, expect.1
            ));
        }
        self.batch.push(payload.clone());
        self.next += 1;
        if trial + 1 == self.spec.trials {
            self.rows.push(batch as usize, &self.batch)?;
            self.batch.clear();
        }
        Ok(())
    }

    /// Finishes the fold and renders the report bytes.
    ///
    /// # Errors
    /// Rejects an incomplete campaign (missing cells).
    pub fn finish(self) -> Result<String, String> {
        let total = self.spec.total_cells();
        if self.next != total {
            return Err(format!(
                "campaign incomplete: {} of {total} cells folded",
                self.next
            ));
        }
        Ok(self.rows.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::EXPERIMENTS;

    #[test]
    fn cell_index_roundtrip() {
        let spec = CampaignSpec::for_experiment("robustness_sweep", 3).unwrap();
        assert_eq!(spec.total_cells(), 18);
        let cells: Vec<_> = (0..spec.total_cells()).map(|i| spec.cell(i)).collect();
        let expected: Vec<_> = (0..6).flat_map(|b| (0..3).map(move |t| (b, t))).collect();
        assert_eq!(cells, expected);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(CampaignSpec::for_experiment("nope", 5).is_none());
    }

    #[test]
    fn experiment_table_pins_seeds_and_defaults() {
        let pinned: Vec<_> = EXPERIMENTS
            .iter()
            .map(|e| (e.name, e.base_seed, e.default_trials))
            .collect();
        assert_eq!(
            pinned,
            [
                ("table1", 11_000, 100),
                ("fig5", 21_000, 100),
                ("section4d", 31_000, 100),
                ("section4d_timer_only", 32_000, 100),
                ("table2", 41_000, 100),
                ("baseline", 51_000, 100),
                ("fig1", 61_000, 1),
                ("fig2", 71_000, 20),
                ("ablation", 81_000, 25),
                ("robustness_sweep", 81_000, 50),
                ("transport_transfer", 82_000, 30),
                ("defense_matrix", 83_000, 25),
            ]
        );
        for e in &EXPERIMENTS {
            let spec = CampaignSpec::for_experiment(e.name, 1).unwrap();
            assert_eq!(spec.entry.base_seed, e.base_seed);
        }
    }

    #[test]
    fn folder_rejects_a_cell_past_the_end() {
        // A journal with one record too many (recovery accepts any run of
        // consecutively numbered records) must fail the replay, not panic.
        let spec = CampaignSpec::for_experiment("table1", 1).unwrap();
        let total = spec.total_cells();
        let payload = spec.run_cell(0, 0);
        let mut folder = spec.folder();
        let mut results = Vec::new();
        for i in 0..=total {
            let (batch, trial) = if i < total { spec.cell(i) } else { (0, 0) };
            results.push(folder.push(batch, trial, &payload));
        }
        assert!(results[..total as usize].iter().all(Result::is_ok));
        let err = results[total as usize].clone().unwrap_err();
        assert!(err.contains("past the end"), "{err}");
    }

    #[test]
    fn folder_rejects_out_of_order_and_duplicate_cells() {
        let spec = CampaignSpec::for_experiment("table1", 2).unwrap();
        let mut folder = spec.folder();
        let p = spec.run_cell(0, 0);
        folder.push(0, 0, &p).unwrap();
        let err = folder.push(0, 0, &p).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        let err = folder.push(1, 1, &p).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn folder_rejects_incomplete_campaign() {
        let spec = CampaignSpec::for_experiment("table1", 1).unwrap();
        let mut folder = spec.folder();
        folder.push(0, 0, &spec.run_cell(0, 0)).unwrap();
        let err = folder.finish().unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn folder_rejects_a_payload_missing_a_field() {
        // A journal record whose payload lacks a field the fold needs is
        // an error naming the field, never a panic.
        let spec = CampaignSpec::for_experiment("table1", 1).unwrap();
        let fields = [
            ("serialized", Json::Bool(true)),
            ("retrans", Json::UInt(3)),
            ("rerequests", Json::UInt(0)),
        ];
        for (skip, _) in &fields {
            let partial = Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != skip)
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            );
            let err = spec.folder().push(0, 0, &partial).unwrap_err();
            assert!(err.contains(skip), "{skip}: {err}");
        }
    }

    #[test]
    fn defense_matrix_spec_enumerates_all_cells_none_first() {
        let spec = CampaignSpec::for_experiment("defense_matrix", 2).unwrap();
        // 2 attacks x (5 H2 defenses + 5 H3 defenses) = 20 batches.
        assert_eq!(spec.batches, 20);
        assert_eq!(spec.total_cells(), 40);
        // The undefended cell leads every (attack, transport) group, so
        // each later row finds its overhead baseline among the rows
        // before it.
        let labels = spec.entry.experiment.labels();
        for group in labels.chunks(5) {
            assert!(group[0].ends_with("/none"), "{}", group[0]);
            let prefix = |l: &str| l.rsplit_once('/').unwrap().0.to_string();
            let head = prefix(&group[0]);
            for l in group {
                assert_eq!(prefix(l), head);
            }
        }
    }
}
