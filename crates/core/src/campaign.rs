//! Campaign-level experiment enumeration: the bridge between an
//! experiment's `(batch, trial)` space and the sharded out-of-process
//! runner in `h2priv-campaign`.
//!
//! A [`CampaignSpec`] names an experiment, fixes its trial budget and
//! base seed, and enumerates its cells — one `(batch, trial)` pair per
//! trial, globally ordered batch-major. Worker processes are handed
//! half-open cell ranges of that enumeration ([`CampaignSpec::cell`]
//! maps a global index back to its pair), run each cell as a pure
//! function of the spec ([`CampaignSpec::run_cell`]), and emit the
//! result as a JSON payload of exactly-representable types (integers
//! and booleans only — floats never cross the process boundary, so a
//! journal round-trip cannot perturb a single bit).
//!
//! The [`CampaignFolder`] consumes payloads strictly in `(batch,
//! trial)` order and reproduces, through the *same* accumulator code
//! the in-process experiments use, the exact report bytes a
//! single-process run writes. Memory is bounded by one open batch
//! accumulator plus the finished rows — never by the trial count.

use crate::experiments::{
    defense_matrix_batches, defense_matrix_trial, robustness_trial, table1_trial, DefenseAccum,
    DefenseMatrixRow, DefenseTrial, RobustTrial, RobustnessAccum, RobustnessRow, Table1Accum,
    Table1Row, ROBUSTNESS_INTENSITIES, TABLE1_JITTERS_MS,
};
use crate::report::to_json;
use h2priv_util::json::Json;

/// An experiment the campaign runner can shard: the one place its
/// base seed, default trial count and worker bin are written down, read
/// by the campaign runner and by the standalone bin alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExperiment {
    /// CLI name.
    pub name: &'static str,
    /// Base seed (the standalone bin's, so campaign output is the
    /// experiment output).
    pub base_seed: u64,
    /// Default trials per batch.
    pub default_trials: usize,
    /// The bench binary that hosts the `--shard-worker` mode.
    pub worker_bin: &'static str,
}

/// Table I.
pub const TABLE1: CampaignExperiment = CampaignExperiment {
    name: "table1",
    base_seed: 11_000,
    default_trials: 100,
    worker_bin: "table1_jitter",
};

/// The fault-intensity robustness sweep.
pub const ROBUSTNESS_SWEEP: CampaignExperiment = CampaignExperiment {
    name: "robustness_sweep",
    base_seed: 81_000,
    default_trials: 50,
    worker_bin: "robustness_sweep",
};

/// The attack × defense × transport matrix.
pub const DEFENSE_MATRIX: CampaignExperiment = CampaignExperiment {
    name: "defense_matrix",
    base_seed: 83_000,
    default_trials: 25,
    worker_bin: "defense_matrix",
};

/// The experiments the campaign runner can shard.
pub const CAMPAIGN_EXPERIMENTS: [CampaignExperiment; 3] =
    [ROBUSTNESS_SWEEP, TABLE1, DEFENSE_MATRIX];

impl CampaignExperiment {
    /// Looks an experiment up by CLI name.
    pub fn named(name: &str) -> Option<CampaignExperiment> {
        CAMPAIGN_EXPERIMENTS.into_iter().find(|e| e.name == name)
    }
}

/// One batch of a campaign: a label for operators and a trial budget.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Stable label (used in journal headers and progress lines).
    pub label: String,
    /// Trials in this batch.
    pub trials: u64,
}

/// A fully-specified campaign: experiment, seed, and cell enumeration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Experiment name (an entry of [`CAMPAIGN_EXPERIMENTS`]).
    pub experiment: String,
    /// Trials per batch.
    pub trials: u64,
    /// The experiment's base seed (fixed per experiment so campaign
    /// output is comparable with the standalone bench bin).
    pub base_seed: u64,
    /// The batches, in sweep order.
    pub batches: Vec<BatchSpec>,
}

impl CampaignSpec {
    /// Builds the spec for a named experiment, or `None` for an unknown
    /// name.
    pub fn for_experiment(name: &str, trials: u64) -> Option<CampaignSpec> {
        let exp = CampaignExperiment::named(name)?;
        let labels: Vec<String> = match name {
            "robustness_sweep" => ROBUSTNESS_INTENSITIES
                .iter()
                .map(|x| format!("intensity_{x}"))
                .collect(),
            "table1" => TABLE1_JITTERS_MS
                .iter()
                .map(|ms| format!("jitter_{ms}ms"))
                .collect(),
            "defense_matrix" => defense_matrix_batches()
                .iter()
                .map(|b| format!("{}/{}/{}", b.attack, b.transport, b.defense.label()))
                .collect(),
            other => unreachable!("unknown campaign experiment {other}"),
        };
        Some(CampaignSpec {
            experiment: name.to_string(),
            trials,
            base_seed: exp.base_seed,
            batches: labels
                .into_iter()
                .map(|label| BatchSpec { label, trials })
                .collect(),
        })
    }

    /// Total cells in the campaign.
    pub fn total_cells(&self) -> u64 {
        self.batches.iter().map(|b| b.trials).sum()
    }

    /// Maps a global cell index to its `(batch, trial)` pair.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn cell(&self, index: u64) -> (u64, u64) {
        let mut remaining = index;
        for (bi, b) in self.batches.iter().enumerate() {
            if remaining < b.trials {
                return (bi as u64, remaining);
            }
            remaining -= b.trials;
        }
        panic!(
            "cell index {index} out of range ({} cells)",
            self.total_cells()
        );
    }

    /// Maps a `(batch, trial)` pair back to its global cell index.
    ///
    /// # Panics
    /// Panics when the pair is out of range.
    pub fn index(&self, batch: u64, trial: u64) -> u64 {
        assert!(
            (batch as usize) < self.batches.len() && trial < self.batches[batch as usize].trials,
            "cell ({batch}, {trial}) out of range"
        );
        self.batches[..batch as usize]
            .iter()
            .map(|b| b.trials)
            .sum::<u64>()
            + trial
    }

    /// Runs one cell and returns its journal payload.
    pub fn run_cell(&self, batch: u64, trial: u64) -> Json {
        match self.experiment.as_str() {
            "robustness_sweep" => {
                let intensity = ROBUSTNESS_INTENSITIES[batch as usize];
                let s = robustness_trial(self.base_seed, batch as usize, intensity, trial as usize);
                robust_payload(&s)
            }
            "table1" => {
                let s = table1_trial(self.base_seed, batch as usize, trial as usize);
                table1_payload(&s)
            }
            "defense_matrix" => {
                let s = defense_matrix_trial(self.base_seed, batch as usize, trial as usize);
                defense_payload(&s)
            }
            other => unreachable!("unknown campaign experiment {other}"),
        }
    }

    /// The identity fields a journal header must match for `--resume`
    /// to accept it.
    pub fn header_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("trials".to_string(), Json::UInt(self.trials)),
            ("base_seed".to_string(), Json::UInt(self.base_seed)),
            ("cells".to_string(), Json::UInt(self.total_cells())),
        ]
    }

    /// A fresh incremental folder for this campaign.
    pub fn folder(&self) -> CampaignFolder {
        let fold = match self.experiment.as_str() {
            "robustness_sweep" => Fold::Robustness {
                accum: RobustnessAccum::default(),
                rows: Vec::new(),
            },
            "table1" => Fold::Table1 {
                accum: Table1Accum::default(),
                rows: Vec::new(),
                baseline_retrans: None,
            },
            "defense_matrix" => Fold::DefenseMatrix {
                accum: DefenseAccum::default(),
                rows: Vec::new(),
                baseline: None,
            },
            other => unreachable!("unknown campaign experiment {other}"),
        };
        CampaignFolder {
            spec: self.clone(),
            next: 0,
            fold,
        }
    }
}

fn robust_payload(s: &RobustTrial) -> Json {
    Json::Obj(vec![
        ("outcome".to_string(), Json::UInt(s.outcome_idx as u64)),
        ("retries".to_string(), Json::UInt(s.retries)),
        ("serialized".to_string(), Json::Bool(s.serialized)),
        ("identified".to_string(), Json::Bool(s.identified)),
        ("success".to_string(), Json::Bool(s.success)),
        ("retrans".to_string(), Json::UInt(s.retrans)),
        ("fault_drops".to_string(), Json::UInt(s.fault_drops)),
    ])
}

fn robust_from_payload(p: &Json) -> Result<RobustTrial, String> {
    let u = |k: &str| {
        p.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("payload missing integer field {k:?}"))
    };
    let b = |k: &str| {
        p.get(k)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("payload missing bool field {k:?}"))
    };
    let outcome_idx = u("outcome")? as usize;
    if outcome_idx > 3 {
        return Err(format!("payload outcome index {outcome_idx} out of range"));
    }
    Ok(RobustTrial {
        outcome_idx,
        retries: u("retries")?,
        serialized: b("serialized")?,
        identified: b("identified")?,
        success: b("success")?,
        retrans: u("retrans")?,
        fault_drops: u("fault_drops")?,
    })
}

fn table1_payload(s: &crate::experiments::Table1Trial) -> Json {
    Json::Obj(vec![
        ("serialized".to_string(), Json::Bool(s.serialized)),
        ("retrans".to_string(), Json::UInt(s.retrans)),
        ("rerequests".to_string(), Json::UInt(s.rerequests)),
    ])
}

fn table1_from_payload(p: &Json) -> Result<crate::experiments::Table1Trial, String> {
    Ok(crate::experiments::Table1Trial {
        serialized: p
            .get("serialized")
            .and_then(Json::as_bool)
            .ok_or("payload missing bool field \"serialized\"")?,
        retrans: p
            .get("retrans")
            .and_then(Json::as_u64)
            .ok_or("payload missing integer field \"retrans\"")?,
        rerequests: p
            .get("rerequests")
            .and_then(Json::as_u64)
            .ok_or("payload missing integer field \"rerequests\"")?,
    })
}

/// Renders the robustness sweep's report bytes — the exact contents the
/// `robustness_sweep` bin writes to `results/robustness_sweep.json`.
pub fn robustness_report(rows: &[RobustnessRow]) -> String {
    rows.iter().map(|r| to_json(r) + "\n").collect()
}

/// Renders Table I's report bytes (the JSON dump the `table1_jitter`
/// bin prints, with a terminating newline).
pub fn table1_report(rows: &[Table1Row]) -> String {
    to_json(&rows.to_vec()) + "\n"
}

/// Renders the defense matrix's report bytes — the exact contents the
/// `defense_matrix` bin writes to `results/defense_matrix.json`.
pub fn defense_matrix_report(rows: &[DefenseMatrixRow]) -> String {
    rows.iter().map(|r| to_json(r) + "\n").collect()
}

fn defense_payload(s: &DefenseTrial) -> Json {
    Json::Obj(vec![
        ("completed".to_string(), Json::Bool(s.completed)),
        ("serialized".to_string(), Json::Bool(s.serialized)),
        ("identified".to_string(), Json::Bool(s.identified)),
        ("success".to_string(), Json::Bool(s.success)),
        ("full_ranking".to_string(), Json::Bool(s.full_ranking)),
        ("wire_bytes".to_string(), Json::UInt(s.wire_bytes)),
        ("page_ns".to_string(), Json::UInt(s.page_ns)),
    ])
}

fn defense_from_payload(p: &Json) -> Result<DefenseTrial, String> {
    let u = |k: &str| {
        p.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("payload missing integer field {k:?}"))
    };
    let b = |k: &str| {
        p.get(k)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("payload missing bool field {k:?}"))
    };
    Ok(DefenseTrial {
        completed: b("completed")?,
        serialized: b("serialized")?,
        identified: b("identified")?,
        success: b("success")?,
        full_ranking: b("full_ranking")?,
        wire_bytes: u("wire_bytes")?,
        page_ns: u("page_ns")?,
    })
}

enum Fold {
    Robustness {
        accum: RobustnessAccum,
        rows: Vec<RobustnessRow>,
    },
    Table1 {
        accum: Table1Accum,
        rows: Vec<Table1Row>,
        baseline_retrans: Option<f64>,
    },
    DefenseMatrix {
        accum: DefenseAccum,
        rows: Vec<DefenseMatrixRow>,
        baseline: Option<(f64, f64)>,
    },
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
    fold: Fold,
}

impl CampaignFolder {
    /// The global index of the next cell this folder expects.
    pub fn next_cell(&self) -> u64 {
        self.next
    }

    /// Folds in the payload of cell `(batch, trial)`.
    ///
    /// # Errors
    /// Rejects out-of-order cells and malformed payloads.
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
        match &mut self.fold {
            Fold::Robustness { accum, .. } => accum.add(&robust_from_payload(payload)?),
            Fold::Table1 { accum, .. } => accum.add(&table1_from_payload(payload)?),
            Fold::DefenseMatrix { accum, .. } => accum.add(&defense_from_payload(payload)?),
        }
        self.next += 1;
        // Batch boundary (or end of campaign): emit the finished row and
        // reset the accumulator. Bounded memory: at most one open batch.
        let batch_done = self.next >= total || self.spec.cell(self.next).0 != batch;
        if batch_done {
            match &mut self.fold {
                Fold::Robustness { accum, rows } => {
                    let intensity = ROBUSTNESS_INTENSITIES[batch as usize];
                    rows.push(accum.row(intensity));
                    *accum = RobustnessAccum::default();
                }
                Fold::Table1 {
                    accum,
                    rows,
                    baseline_retrans,
                } => {
                    let jitter = TABLE1_JITTERS_MS[batch as usize];
                    rows.push(accum.row(jitter, baseline_retrans));
                    *accum = Table1Accum::default();
                }
                Fold::DefenseMatrix {
                    accum,
                    rows,
                    baseline,
                } => {
                    let b = defense_matrix_batches()[batch as usize];
                    rows.push(accum.row(&b, baseline));
                    *accum = DefenseAccum::default();
                }
            }
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
        Ok(match self.fold {
            Fold::Robustness { rows, .. } => robustness_report(&rows),
            Fold::Table1 { rows, .. } => table1_report(&rows),
            Fold::DefenseMatrix { rows, .. } => defense_matrix_report(&rows),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_index_roundtrip() {
        let spec = CampaignSpec::for_experiment("robustness_sweep", 3).unwrap();
        assert_eq!(spec.total_cells(), 18);
        for i in 0..spec.total_cells() {
            let (b, t) = spec.cell(i);
            assert_eq!(spec.index(b, t), i);
        }
        assert_eq!(spec.cell(0), (0, 0));
        assert_eq!(spec.cell(3), (1, 0));
        assert_eq!(spec.cell(17), (5, 2));
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(CampaignSpec::for_experiment("nope", 5).is_none());
    }

    #[test]
    fn experiment_table_pins_seeds_and_defaults() {
        let pinned: Vec<_> = CAMPAIGN_EXPERIMENTS
            .iter()
            .map(|e| (e.name, e.base_seed, e.default_trials))
            .collect();
        assert_eq!(
            pinned,
            [
                ("robustness_sweep", 81_000, 50),
                ("table1", 11_000, 100),
                ("defense_matrix", 83_000, 25),
            ]
        );
        for e in CAMPAIGN_EXPERIMENTS {
            let spec = CampaignSpec::for_experiment(e.name, 1).unwrap();
            assert_eq!(spec.base_seed, e.base_seed);
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
    fn payload_roundtrip_is_exact() {
        let s = RobustTrial {
            outcome_idx: 2,
            retries: 1,
            serialized: true,
            identified: false,
            success: false,
            retrans: 1234,
            fault_drops: 9,
        };
        let p = robust_payload(&s);
        let parsed = Json::parse(&p.to_string_compact()).unwrap();
        assert_eq!(robust_from_payload(&parsed).unwrap(), s);
    }

    #[test]
    fn defense_payload_roundtrip_is_exact() {
        let s = DefenseTrial {
            completed: true,
            serialized: true,
            identified: false,
            success: false,
            full_ranking: false,
            wire_bytes: 1_234_567,
            page_ns: 16_000_000_000,
        };
        let p = defense_payload(&s);
        let parsed = Json::parse(&p.to_string_compact()).unwrap();
        assert_eq!(defense_from_payload(&parsed).unwrap(), s);
    }

    #[test]
    fn defense_matrix_spec_enumerates_all_cells_none_first() {
        let spec = CampaignSpec::for_experiment("defense_matrix", 2).unwrap();
        // 2 attacks x (5 H2 defenses + 5 H3 defenses) = 20 batches.
        assert_eq!(spec.batches.len(), 20);
        assert_eq!(spec.total_cells(), 40);
        for i in 0..spec.total_cells() {
            let (b, t) = spec.cell(i);
            assert_eq!(spec.index(b, t), i);
        }
        // The undefended cell leads every (attack, transport) group so
        // the streaming folder always sees its overhead baseline first.
        for group in spec.batches.chunks(5) {
            assert!(group[0].label.ends_with("/none"), "{}", group[0].label);
            let prefix = |l: &str| l.rsplit_once('/').unwrap().0.to_string();
            let head = prefix(&group[0].label);
            for b in group {
                assert_eq!(prefix(&b.label), head);
            }
        }
    }
}
