//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each experiment is a value implementing [`Experiment`]: its batches
//! (one per point of the sweep), a pure per-trial function returning the
//! trial's journal payload, a fold of one batch's payloads into a row,
//! and the report and table renderers. [`EXPERIMENTS`] registers each
//! one under its CLI name with its base seed and default trial count;
//! the `run` and `campaign` binaries both look experiments up there.
//!
//! One driver, [`drive`], runs any experiment in-process: each batch is
//! one call into the work pool of [`h2priv_util::pool`], across `jobs`
//! worker threads (`jobs = 1` runs inline, `jobs = 0` uses all cores),
//! and its payloads are folded **in submission order**, so every row —
//! counts, float means, serialized JSON — is byte-identical at any job
//! count. The sharded campaign runner ([`crate::campaign`]) reads the
//! same payloads back from its journal and pushes them into the same
//! [`Folder`], so a campaign's report is the in-process report by
//! construction.
//!
//! Payloads hold only integers, booleans, null and arrays of them, so a
//! journal round-trip cannot perturb a bit: a time travels as integer
//! nanoseconds and a degree of multiplexing as [`f64::to_bits`].

use crate::attack::{AttackConfig, TransportKind};
use crate::defense::Defense;
use crate::experiment::{
    run_isidewith_trial, run_isidewith_trial_retrying, run_isidewith_trial_with, run_site_trial,
    FaultPlan, TrialOptions, TrialOutcome,
};
use crate::metrics::{degree_of_multiplexing, is_serialized};
use crate::predictor::SizeMap;
use crate::report::{pct, pct_opt, render_table, to_json};
use h2priv_h2::MuxPolicy;
use h2priv_netsim::faults::{Duplicate, FaultConfig, GilbertElliott, Reorder};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_netsim::units::Bandwidth;
use h2priv_util::impl_to_json;
use h2priv_util::json::{Json, ToJson};
use h2priv_util::pool;
use h2priv_util::telemetry;
use h2priv_web::sites::two_object_site;
use h2priv_web::ObjectId;

/// One experiment of the evaluation: a sweep of batches, each a run of
/// seeded trials folded into one row.
pub trait Experiment: Sync {
    /// The aggregate of one batch.
    type Row: ToJson;

    /// The batches' labels, in sweep order. Each names the batch in
    /// `--trace` output and is unique across [`EXPERIMENTS`].
    fn batches(&self) -> Vec<String>;

    /// Runs trial `t` of batch `batch` and returns its journal payload,
    /// which holds only integers, booleans, null and arrays of them. A
    /// pure function of its arguments, so any worker process, at any
    /// time, produces the same payload for the same cell.
    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json;

    /// Folds batch `batch`'s payloads, in trial order, into its row;
    /// `earlier` holds the rows of the batches before it.
    ///
    /// # Errors
    /// Rejects a payload with a missing or mistyped field.
    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        earlier: &[Self::Row],
    ) -> Result<Self::Row, String>;

    /// The machine-readable report: the bytes `run --out` writes and a
    /// campaign's fold renders. One pretty JSON value per row by
    /// default.
    fn report(&self, rows: &[Self::Row]) -> String {
        json_lines(rows)
    }

    /// The human-readable table, with the paper's numbers beside it.
    fn table(&self, rows: &[Self::Row]) -> String;
}

/// An [`Experiment`] with its row type hidden, as [`EXPERIMENTS`] holds
/// it.
pub trait DynExperiment: Sync {
    /// See [`Experiment::batches`].
    fn labels(&self) -> Vec<String>;
    /// See [`Experiment::trial`].
    fn payload(&self, base_seed: u64, batch: usize, t: usize) -> Json;
    /// A fold with no batches in it yet.
    fn folder(&self) -> Box<dyn Folder + '_>;
}

/// Folds an experiment's batches, in sweep order, into rows.
pub trait Folder {
    /// Folds the next batch's payloads into its row.
    ///
    /// # Errors
    /// Rejects a batch out of sweep order and a malformed payload.
    fn push(&mut self, batch: usize, payloads: &[Json]) -> Result<(), String>;
    /// See [`Experiment::report`].
    fn report(&self) -> String;
    /// See [`Experiment::table`].
    fn table(&self) -> String;
}

/// The rows an experiment has folded so far.
struct Rows<'a, E: Experiment> {
    exp: &'a E,
    rows: Vec<E::Row>,
}

impl<E: Experiment> Folder for Rows<'_, E> {
    fn push(&mut self, batch: usize, payloads: &[Json]) -> Result<(), String> {
        if batch != self.rows.len() {
            return Err(format!(
                "batch {batch} out of order: expected batch {}",
                self.rows.len()
            ));
        }
        let row = self.exp.row(batch, payloads, &self.rows)?;
        self.rows.push(row);
        Ok(())
    }

    fn report(&self) -> String {
        self.exp.report(&self.rows)
    }

    fn table(&self) -> String {
        self.exp.table(&self.rows)
    }
}

impl<E: Experiment> DynExperiment for E {
    fn labels(&self) -> Vec<String> {
        self.batches()
    }

    fn payload(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        self.trial(base_seed, batch, t)
    }

    fn folder(&self) -> Box<dyn Folder + '_> {
        Box::new(Rows {
            exp: self,
            rows: Vec::new(),
        })
    }
}

/// Runs every batch of `exp` in-process, `trials` trials each, and pushes
/// each batch's payloads into `folder`. An empty trial budget runs
/// nothing — "no data" is explicit, never a fabricated percentage.
///
/// # Panics
/// Panics when `folder` rejects a batch: in-process payloads come
/// straight from the experiment, so that is a bug in its fold.
pub fn drive(
    exp: &dyn DynExperiment,
    trials: usize,
    base_seed: u64,
    jobs: usize,
    folder: &mut dyn Folder,
) {
    if trials == 0 {
        return;
    }
    for (bi, label) in exp.labels().iter().enumerate() {
        let batch = telemetry::open_batch(label);
        let payloads = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            exp.payload(base_seed, bi, t)
        });
        if let Err(e) = folder.push(bi, &payloads) {
            panic!("{label}: in-process payloads must fold: {e}");
        }
    }
}

/// Runs `exp` in-process (see [`drive`]) and returns its rows.
pub fn run<E: Experiment>(exp: &E, trials: usize, base_seed: u64, jobs: usize) -> Vec<E::Row> {
    let mut rows = Rows {
        exp,
        rows: Vec::new(),
    };
    drive(exp, trials, base_seed, jobs, &mut rows);
    rows.rows
}

/// An experiment under its CLI name.
pub struct Registered {
    /// CLI name (`run <name>`, `campaign <name>`).
    pub name: &'static str,
    /// Base seed; every trial seed derives from it.
    pub base_seed: u64,
    /// Default trials per batch.
    pub default_trials: usize,
    /// The experiment.
    pub experiment: &'static dyn DynExperiment,
}

/// Every experiment `run` and `campaign` can name.
pub static EXPERIMENTS: [Registered; 12] = [
    Registered {
        name: "table1",
        base_seed: 11_000,
        default_trials: 100,
        experiment: &Table1,
    },
    Registered {
        name: "fig5",
        base_seed: 21_000,
        default_trials: 100,
        experiment: &Fig5,
    },
    Registered {
        name: "section4d",
        base_seed: 31_000,
        default_trials: 100,
        experiment: &Section4d {
            rates: &[0.5, 0.7, 0.8, 0.9, 0.97],
            stop_on_reset: true,
        },
    },
    Registered {
        name: "section4d_timer_only",
        base_seed: 32_000,
        default_trials: 100,
        experiment: &Section4d {
            rates: &[0.8, 0.9, 0.97],
            stop_on_reset: false,
        },
    },
    Registered {
        name: "table2",
        base_seed: 41_000,
        default_trials: 100,
        experiment: &Table2,
    },
    Registered {
        name: "baseline",
        base_seed: 51_000,
        default_trials: 100,
        experiment: &Baseline,
    },
    Registered {
        name: "fig1",
        base_seed: 61_000,
        default_trials: 1,
        experiment: &Fig1,
    },
    Registered {
        name: "fig2",
        base_seed: 71_000,
        default_trials: 20,
        experiment: &Fig2,
    },
    Registered {
        name: "ablation",
        base_seed: 81_000,
        default_trials: 25,
        experiment: &Ablations,
    },
    Registered {
        name: "robustness_sweep",
        base_seed: 81_000,
        default_trials: 50,
        experiment: &RobustnessSweep {
            intensities: &ROBUSTNESS_INTENSITIES,
        },
    },
    Registered {
        name: "transport_transfer",
        base_seed: 82_000,
        default_trials: 30,
        experiment: &TransportTransfer,
    },
    Registered {
        name: "defense_matrix",
        base_seed: 83_000,
        default_trials: 25,
        experiment: &DefenseMatrix,
    },
];

/// Looks a registered experiment up by CLI name.
pub fn named(name: &str) -> Option<&'static Registered> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Builds a payload object from `(field, value)` pairs.
fn payload<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Field `key` of payload `p`, read by `get`.
fn field<'a, T>(p: &'a Json, key: &str, get: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    p.get(key)
        .and_then(get)
        .ok_or_else(|| format!("payload missing or mistyped field {key:?}"))
}

/// Array field `key` of payload `p`, which must hold exactly `n` items.
fn items<'a>(p: &'a Json, key: &str, n: usize) -> Result<&'a [Json], String> {
    let a = field(p, key, Json::as_array)?;
    if a.len() == n {
        Ok(a)
    } else {
        Err(format!(
            "payload field {key:?} holds {} items, not {n}",
            a.len()
        ))
    }
}

/// How many of the payloads have boolean field `key` set.
fn count(payloads: &[Json], key: &str) -> Result<usize, String> {
    payloads
        .iter()
        .try_fold(0, |n, p| Ok(n + usize::from(field(p, key, Json::as_bool)?)))
}

/// The sum of integer field `key` over the payloads.
fn total(payloads: &[Json], key: &str) -> Result<u64, String> {
    payloads.iter().try_fold(0u64, |n, p| {
        n.checked_add(field(p, key, Json::as_u64)?)
            .ok_or_else(|| format!("payload field {key:?} overflows its sum"))
    })
}

/// A degree of multiplexing (or its absence) as an exact payload value.
fn degree_payload(d: Option<f64>) -> Json {
    d.map_or(Json::Null, |d| Json::UInt(d.to_bits()))
}

/// Reads back a [`degree_payload`].
fn degree_from(v: &Json) -> Result<Option<f64>, String> {
    match v {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(|bits| Some(f64::from_bits(bits)))
            .ok_or_else(|| "payload degree is neither null nor an integer".to_string()),
    }
}

/// `n` of `trials` as a percentage.
fn pct_of(n: usize, trials: usize) -> f64 {
    100.0 * n as f64 / trials as f64
}

/// The per-trial mean of a total.
fn mean(total: u64, trials: usize) -> f64 {
    total as f64 / trials as f64
}

/// The rows as one pretty JSON array, newline-terminated.
fn json_array<T: ToJson>(rows: &[T]) -> String {
    rows.to_json().to_string_pretty() + "\n"
}

/// The rows as pretty JSON values, each newline-terminated.
fn json_lines<T: ToJson>(rows: &[T]) -> String {
    rows.iter().map(|r| to_json(r) + "\n").collect()
}

/// The labels of the objects of interest: the result HTML, then the
/// eight emblem images.
const OBJECT_LABELS: [&str; 9] = ["HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"];

/// A Table I row: effect of jitter on multiplexing of the 6th object.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Added inter-request spacing (ms).
    pub jitter_ms: u64,
    /// % of trials where the object of interest was not multiplexed
    /// (some copy at degree zero).
    pub pct_not_multiplexed: f64,
    /// Mean retransmissions per trial (TCP + app-layer re-requests).
    pub retransmissions_avg: f64,
    /// Increase over the 0 ms baseline, in %.
    pub retrans_increase_pct: f64,
    /// Mean application-layer re-requests per trial (the duplicate-copy
    /// pathology of Fig. 4).
    pub rerequests_avg: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Table1Row {
    jitter_ms,
    pct_not_multiplexed,
    retransmissions_avg,
    retrans_increase_pct,
    rerequests_avg,
    trials,
});

/// The jitter values (ms) swept by Table I.
const TABLE1_JITTERS_MS: [u64; 4] = [0, 25, 50, 100];

/// Table I: the jitter-only attack at 0, 25, 50 and 100 ms.
pub struct Table1;

impl Experiment for Table1 {
    type Row = Table1Row;

    fn batches(&self) -> Vec<String> {
        TABLE1_JITTERS_MS
            .iter()
            .map(|ms| format!("table1/jitter_{ms}ms"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let jitter = SimDuration::from_millis(TABLE1_JITTERS_MS[batch]);
        let seed = base_seed + (batch as u64) * 10_000 + t as u64;
        let trial = run_isidewith_trial(seed, Some(AttackConfig::jitter_only(jitter)));
        payload([
            (
                "serialized",
                Json::Bool(is_serialized(trial.html_outcome().best_degree)),
            ),
            ("retrans", Json::UInt(trial.result.total_retransmissions())),
            ("rerequests", Json::UInt(trial.result.client.h2_rerequests)),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        earlier: &[Table1Row],
    ) -> Result<Table1Row, String> {
        let trials = payloads.len();
        let retransmissions_avg = mean(total(payloads, "retrans")?, trials);
        // Row 0, without jitter, is the baseline of the increase column.
        let base = earlier
            .first()
            .map_or(retransmissions_avg, |r| r.retransmissions_avg)
            .max(1e-9);
        Ok(Table1Row {
            jitter_ms: TABLE1_JITTERS_MS[batch],
            pct_not_multiplexed: pct_of(count(payloads, "serialized")?, trials),
            retransmissions_avg,
            retrans_increase_pct: 100.0 * (retransmissions_avg - base) / base,
            rerequests_avg: mean(total(payloads, "rerequests")?, trials),
            trials,
        })
    }

    fn report(&self, rows: &[Table1Row]) -> String {
        json_array(rows)
    }

    fn table(&self, rows: &[Table1Row]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.jitter_ms.to_string(),
                    pct(r.pct_not_multiplexed),
                    format!("{:.1}", r.retransmissions_avg),
                    pct(r.retrans_increase_pct),
                ]
            })
            .collect();
        render_table(
            &[
                "increase in delay per request (ms)",
                "object not multiplexed (%)",
                "retransmissions (avg)",
                "increase in retransmissions (%)",
            ],
            &table,
        ) + "\npaper Table I: 0/25/50/100 ms -> 32/46/54/54 % ; retrans +0/+33/+130/+194 %"
    }
}

/// A Fig. 5 point: effect of bandwidth limitation (with 50 ms jitter).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Bandwidth limit (Mbps).
    pub bandwidth_mbps: u64,
    /// % of trials counted as success (object serialized and
    /// identified from the trace — includes successes due to
    /// retransmitted copies, as the paper observed).
    pub pct_success: f64,
    /// Mean retransmissions per trial.
    pub retransmissions_avg: f64,
    /// % of trials where the connection broke.
    pub pct_broken: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Fig5Row { bandwidth_mbps, pct_success, retransmissions_avg, pct_broken, trials });

/// The bandwidth limits (Mbps) swept by Fig. 5.
const FIG5_BANDWIDTHS_MBPS: [u64; 5] = [1_000, 800, 500, 100, 1];

/// Fig. 5: 50 ms jitter under each bandwidth limit.
pub struct Fig5;

impl Experiment for Fig5 {
    type Row = Fig5Row;

    fn batches(&self) -> Vec<String> {
        FIG5_BANDWIDTHS_MBPS
            .iter()
            .map(|mbps| format!("fig5/bandwidth_{mbps}mbps"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let seed = base_seed + 1_000_000 + (batch as u64) * 10_000 + t as u64;
        let attack = AttackConfig::jitter_and_bandwidth(
            SimDuration::from_millis(50),
            Bandwidth::mbps(FIG5_BANDWIDTHS_MBPS[batch]),
        );
        let trial = run_isidewith_trial(seed, Some(attack));
        payload([
            ("success", Json::Bool(trial.html_outcome().success)),
            ("broken", Json::Bool(trial.result.client.connection_broken)),
            ("retrans", Json::UInt(trial.result.total_retransmissions())),
        ])
    }

    fn row(&self, batch: usize, payloads: &[Json], _: &[Fig5Row]) -> Result<Fig5Row, String> {
        let trials = payloads.len();
        Ok(Fig5Row {
            bandwidth_mbps: FIG5_BANDWIDTHS_MBPS[batch],
            pct_success: pct_of(count(payloads, "success")?, trials),
            retransmissions_avg: mean(total(payloads, "retrans")?, trials),
            pct_broken: pct_of(count(payloads, "broken")?, trials),
            trials,
        })
    }

    fn report(&self, rows: &[Fig5Row]) -> String {
        json_array(rows)
    }

    fn table(&self, rows: &[Fig5Row]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.bandwidth_mbps.to_string(),
                    format!("{:.1}", r.retransmissions_avg),
                    pct(r.pct_success),
                    pct(r.pct_broken),
                ]
            })
            .collect();
        render_table(
            &[
                "bandwidth (Mbps)",
                "retransmissions (avg)",
                "success (%)",
                "broken (%)",
            ],
            &table,
        ) + "\npaper Fig. 5 shape: retransmissions fall monotonically 1000->1 Mbps;\
             \nsuccess rises to a peak at 800 Mbps, then declines at lower bandwidths."
    }
}

/// A Section IV-D / Fig. 6 point: targeted drops forcing a stream reset.
#[derive(Debug, Clone)]
pub struct DropRow {
    /// Drop rate applied to server→client data packets.
    pub drop_rate: f64,
    /// % of trials where the HTML was serialized and identified.
    pub pct_success: f64,
    /// % of trials where the client actually sent RST_STREAM.
    pub pct_reset_sent: f64,
    /// % of trials where the connection broke.
    pub pct_broken: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct DropRow { drop_rate, pct_success, pct_reset_sent, pct_broken, trials });

/// The Section IV-D experiment: a 6-second window of targeted drops at
/// each rate.
pub struct Section4d {
    /// Drop rates swept.
    pub rates: &'static [f64],
    /// End the drop window early when the client resets the stream. With
    /// the paper's pure 6-second timer instead, very high drop rates
    /// break the connection outright, as the paper reports.
    pub stop_on_reset: bool,
}

impl Experiment for Section4d {
    type Row = DropRow;

    fn batches(&self) -> Vec<String> {
        let name = if self.stop_on_reset {
            "section4d"
        } else {
            "section4d_timer_only"
        };
        self.rates
            .iter()
            .map(|rate| format!("{name}/drop_rate_{rate}"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        // The timer-only variant keeps the seed family it was published
        // with.
        let base = if self.stop_on_reset {
            base_seed
        } else {
            base_seed ^ 0xD0D0
        };
        let seed = base + 2_000_000 + (batch as u64) * 10_000 + t as u64;
        let mut attack = AttackConfig::with_drops(self.rates[batch], SimDuration::from_secs(6));
        attack.stop_drops_on_reset = self.stop_on_reset;
        let trial = run_isidewith_trial(seed, Some(attack));
        payload([
            ("success", Json::Bool(trial.html_outcome().success)),
            (
                "reset_sent",
                Json::Bool(trial.result.client.resets_sent > 0),
            ),
            ("broken", Json::Bool(trial.result.client.connection_broken)),
        ])
    }

    fn row(&self, batch: usize, payloads: &[Json], _: &[DropRow]) -> Result<DropRow, String> {
        let trials = payloads.len();
        Ok(DropRow {
            drop_rate: self.rates[batch],
            pct_success: pct_of(count(payloads, "success")?, trials),
            pct_reset_sent: pct_of(count(payloads, "reset_sent")?, trials),
            pct_broken: pct_of(count(payloads, "broken")?, trials),
            trials,
        })
    }

    fn report(&self, rows: &[DropRow]) -> String {
        json_array(rows)
    }

    fn table(&self, rows: &[DropRow]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.drop_rate * 100.0),
                    pct(r.pct_success),
                    pct(r.pct_reset_sent),
                    pct(r.pct_broken),
                ]
            })
            .collect();
        let table = render_table(
            &[
                "drop rate (%)",
                "success (%)",
                "reset sent (%)",
                "broken (%)",
            ],
            &table,
        );
        if self.stop_on_reset {
            table + "\npaper: 80% drops for 6 s -> ~90% success; higher rates break the connection."
        } else {
            "\nvariant: fixed 6 s drop window (paper's timer mechanism):\n".to_string() + &table
        }
    }
}

/// A Table II column: per-object accuracy of the full attack.
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// Object label ("HTML", "I1".."I8").
    pub object: String,
    /// Mean measured gap to the previous request (ms); `None` when no
    /// trial produced a measurable gap for this slot.
    pub gap_prev_ms: Option<f64>,
    /// % success when the adversary targets objects independently
    /// ("one object at a time").
    pub pct_single_target: f64,
    /// % success for the full ranking inference ("all objects at a
    /// time").
    pub pct_all_targets: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Table2Column { object, gap_prev_ms, pct_single_target, pct_all_targets, trials });

/// Table II: the full Section V attack, one batch whose row holds a
/// column per object of interest.
pub struct Table2;

impl Experiment for Table2 {
    type Row = Vec<Table2Column>;

    fn batches(&self) -> Vec<String> {
        vec!["table2/full_attack".to_string()]
    }

    fn trial(&self, base_seed: u64, _: usize, t: usize) -> Json {
        let seed = base_seed + 3_000_000 + t as u64;
        let trial = run_isidewith_trial(seed, Some(AttackConfig::full_attack()));
        let mut single = [false; 9];
        let mut sequence = [false; 9];
        let mut gaps_ns = [None; 9];
        // Slot 0: the HTML (the ranking page itself); 1..=8: the images.
        let html = trial.html_outcome();
        single[0] = html.success;
        sequence[0] = html.success;
        for (i, out) in trial.image_outcomes().iter().enumerate() {
            single[i + 1] = out.success;
        }
        for (i, ok) in trial.sequence_success().iter().enumerate() {
            sequence[i + 1] = *ok;
        }
        // Measured inter-request gaps (first attempts, client-side).
        let firsts: Vec<_> = trial
            .result
            .client
            .requests
            .iter()
            .filter(|r| r.attempt == 0)
            .collect();
        let mut interest = vec![trial.iw.html];
        interest.extend_from_slice(&trial.iw.images);
        for (slot, obj) in interest.iter().enumerate() {
            if let Some(pos) = firsts.iter().position(|r| r.object == *obj) {
                if pos > 0 {
                    let gap = firsts[pos]
                        .issued_at
                        .saturating_since(firsts[pos - 1].issued_at);
                    gaps_ns[slot] = Some(gap.as_nanos());
                }
            }
        }
        payload([
            ("single", single.to_json()),
            ("sequence", sequence.to_json()),
            ("gaps_ns", gaps_ns.to_json()),
        ])
    }

    fn row(
        &self,
        _: usize,
        payloads: &[Json],
        _: &[Vec<Table2Column>],
    ) -> Result<Vec<Table2Column>, String> {
        let mut single = [0usize; 9];
        let mut sequence = [0usize; 9];
        let mut gap_sums = [0.0f64; 9];
        let mut gap_counts = [0usize; 9];
        let flag = |v: &Json| v.as_bool().ok_or("payload slot is not a boolean");
        for p in payloads {
            let s1 = items(p, "single", 9)?;
            let s2 = items(p, "sequence", 9)?;
            let gaps = items(p, "gaps_ns", 9)?;
            for i in 0..9 {
                single[i] += usize::from(flag(&s1[i])?);
                sequence[i] += usize::from(flag(&s2[i])?);
                match &gaps[i] {
                    Json::Null => {}
                    g => {
                        let ns = g
                            .as_u64()
                            .ok_or("payload gap is neither null nor an integer")?;
                        gap_sums[i] += ns as f64 / 1e6;
                        gap_counts[i] += 1;
                    }
                }
            }
        }
        let trials = payloads.len();
        Ok(OBJECT_LABELS
            .iter()
            .enumerate()
            .map(|(i, label)| Table2Column {
                object: (*label).to_string(),
                gap_prev_ms: (gap_counts[i] > 0).then(|| gap_sums[i] / gap_counts[i] as f64),
                pct_single_target: pct_of(single[i], trials),
                pct_all_targets: pct_of(sequence[i], trials),
                trials,
            })
            .collect())
    }

    fn report(&self, rows: &[Vec<Table2Column>]) -> String {
        json_array(&rows.concat())
    }

    fn table(&self, rows: &[Vec<Table2Column>]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .flatten()
            .map(|c| {
                vec![
                    c.object.clone(),
                    pct_opt(c.gap_prev_ms),
                    pct(c.pct_single_target),
                    pct(c.pct_all_targets),
                ]
            })
            .collect();
        render_table(
            &[
                "object",
                "T(req curr)-T(req prev) (ms)",
                "success % target: one object",
                "success % target: all objects",
            ],
            &table,
        ) + "\npaper Table II: single-target 100% everywhere;\
             \nall-targets 90/90/85/81/80/62/64/78/64 (HTML, I1..I8)."
    }
}

/// Regenerates Table II with the full Section V attack.
pub fn table2(trials: usize, base_seed: u64, jobs: usize) -> Vec<Table2Column> {
    run(&Table2, trials, base_seed, jobs).concat()
}

/// Baseline multiplexing statistics without any adversary.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Object label.
    pub object: String,
    /// Mean degree of multiplexing (first copy); `None` when the object
    /// was never observed on the wire in any trial.
    pub mean_degree_pct: Option<f64>,
    /// % of trials with the object fully serialized by chance; `None`
    /// when there were no observations.
    pub pct_not_multiplexed: Option<f64>,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct BaselineRow { object, mean_degree_pct, pct_not_multiplexed, trials });

/// The paper's baseline claims: HTML degree ≈98 %, images 80–99 %, 6th
/// object unmultiplexed in ≈32 % of unattacked runs. One batch whose row
/// holds a line per object of interest.
pub struct Baseline;

impl Experiment for Baseline {
    type Row = Vec<BaselineRow>;

    fn batches(&self) -> Vec<String> {
        vec!["baseline/no_attack".to_string()]
    }

    fn trial(&self, base_seed: u64, _: usize, t: usize) -> Json {
        let seed = base_seed + 4_000_000 + t as u64;
        let trial = run_isidewith_trial(seed, None);
        let mut interest = vec![trial.iw.html];
        interest.extend_from_slice(&trial.iw.images);
        let degrees: Vec<Json> = interest
            .iter()
            .map(|obj| degree_payload(trial.result.degree(*obj).best().map(|(_, d)| d)))
            .collect();
        payload([("degree_bits", Json::Arr(degrees))])
    }

    fn row(
        &self,
        _: usize,
        payloads: &[Json],
        _: &[Vec<BaselineRow>],
    ) -> Result<Vec<BaselineRow>, String> {
        let mut degrees: Vec<Vec<f64>> = vec![Vec::new(); 9];
        for p in payloads {
            for (slot, d) in items(p, "degree_bits", 9)?.iter().enumerate() {
                if let Some(d) = degree_from(d)? {
                    degrees[slot].push(d);
                }
            }
        }
        let trials = payloads.len();
        Ok(OBJECT_LABELS
            .iter()
            .zip(&degrees)
            .map(|(label, v)| {
                let (mean_degree_pct, pct_not_multiplexed) = if v.is_empty() {
                    // Never observed: "no data", not a misleading 0 %.
                    (None, None)
                } else {
                    let mean = v.iter().sum::<f64>() / v.len() as f64;
                    let zero = v.iter().filter(|d| is_serialized(**d)).count();
                    (Some(100.0 * mean), Some(pct_of(zero, v.len())))
                };
                BaselineRow {
                    object: (*label).to_string(),
                    mean_degree_pct,
                    pct_not_multiplexed,
                    trials,
                }
            })
            .collect())
    }

    fn report(&self, rows: &[Vec<BaselineRow>]) -> String {
        json_array(&rows.concat())
    }

    fn table(&self, rows: &[Vec<BaselineRow>]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .flatten()
            .map(|r| {
                vec![
                    r.object.clone(),
                    pct_opt(r.mean_degree_pct),
                    pct_opt(r.pct_not_multiplexed),
                ]
            })
            .collect();
        render_table(
            &[
                "object",
                "mean degree of multiplexing (%)",
                "serialized by chance (%)",
            ],
            &table,
        ) + "\npaper: HTML degree ~98%, images 80-99%; HTML serialized by chance in 32% of runs."
    }
}

/// Fig. 1 demonstration: size estimation on serial vs multiplexed
/// two-object transfers.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Scenario label.
    pub scenario: String,
    /// True sizes of (O1, O2).
    pub truth: (u64, u64),
    /// Units found and their size estimates.
    pub estimates: Vec<u64>,
    /// Whether both objects were identified from the estimates.
    pub both_identified: bool,
}

impl_to_json!(struct Fig1Row { scenario, truth, estimates, both_identified });

/// Fig. 1's scenarios: batch label, scenario, and the gap (ms) between
/// the two GETs.
const FIG1_SCENARIOS: [(&str, &str, u64); 2] = [
    ("multiplexed", "multiplexed (IAT ~ 0)", 0),
    ("serial", "serial (IAT > service time)", 700),
];

/// Fig. 1's two object sizes (bytes).
const FIG1_SIZES: (u64, u64) = (9_500, 7_200);

/// Fig. 1: a two-object transfer per scenario, whose row shows each
/// trial's unit estimates.
pub struct Fig1;

impl Experiment for Fig1 {
    type Row = Vec<Fig1Row>;

    fn batches(&self) -> Vec<String> {
        FIG1_SCENARIOS
            .iter()
            .map(|(name, _, _)| format!("fig1/{name}"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let (o1, o2) = FIG1_SIZES;
        let gap_ms = FIG1_SCENARIOS[batch].2;
        let map = SizeMap::new(vec![("o1".to_string(), o1), ("o2".to_string(), o2)], 0.03);
        let site = two_object_site(o1, o2, SimDuration::from_millis(gap_ms));
        let opts = TrialOptions::new(base_seed + gap_ms + t as u64, None);
        let prediction = run_site_trial(site, &opts).predict(&map);
        let estimates = prediction
            .units
            .iter()
            .map(|u| Json::UInt(u.unit.estimated_payload))
            .collect();
        payload([
            ("estimates", Json::Arr(estimates)),
            (
                "both_identified",
                Json::Bool(prediction.contains("o1") && prediction.contains("o2")),
            ),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        _: &[Vec<Fig1Row>],
    ) -> Result<Vec<Fig1Row>, String> {
        payloads
            .iter()
            .map(|p| {
                let estimates = field(p, "estimates", Json::as_array)?
                    .iter()
                    .map(|e| e.as_u64().ok_or("payload estimate is not an integer"))
                    .collect::<Result<_, _>>()?;
                Ok(Fig1Row {
                    scenario: FIG1_SCENARIOS[batch].1.to_string(),
                    truth: FIG1_SIZES,
                    estimates,
                    both_identified: field(p, "both_identified", Json::as_bool)?,
                })
            })
            .collect()
    }

    fn report(&self, rows: &[Vec<Fig1Row>]) -> String {
        json_lines(&rows.concat())
    }

    fn table(&self, rows: &[Vec<Fig1Row>]) -> String {
        let mut lines = Vec::new();
        for row in rows.iter().flatten() {
            lines.push(format!("case: {}", row.scenario));
            lines.push(format!(
                "  true sizes:      O1={} O2={}",
                row.truth.0, row.truth.1
            ));
            lines.push(format!("  unit estimates:  {:?}", row.estimates));
            lines.push(format!("  both identified: {}", row.both_identified));
        }
        lines.push(
            "\npaper Fig. 1: delimiting packets reveal sizes in case 1 (serial);".to_string(),
        );
        lines.push(
            "interleaved segments defeat the estimation in case 2 (multiplexed).".to_string(),
        );
        lines.join("\n")
    }
}

/// A Figs. 2–3 point: how inter-request spacing serializes the first of
/// two objects.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Gap between the two GETs (ms).
    pub gap_ms: u64,
    /// Mean degree of multiplexing of O1, %; `None` when O1 was never
    /// observed on the wire.
    pub mean_degree_pct: Option<f64>,
    /// % of trials with O1 fully serialized.
    pub pct_serialized: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Fig2Row { gap_ms, mean_degree_pct, pct_serialized, trials });

/// The inter-request gaps (ms) swept by Figs. 2–3.
const FIG2_GAPS_MS: [u64; 7] = [0, 25, 50, 100, 200, 400, 800];

/// Figs. 2–3: a two-object transfer at each inter-request gap.
pub struct Fig2;

impl Experiment for Fig2 {
    type Row = Fig2Row;

    fn batches(&self) -> Vec<String> {
        FIG2_GAPS_MS
            .iter()
            .map(|gap| format!("fig2/gap_{gap}ms"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let gap = FIG2_GAPS_MS[batch];
        let site = two_object_site(30_000, 24_000, SimDuration::from_millis(gap));
        let opts = TrialOptions::new(base_seed + gap * 100 + t as u64, None);
        let result = run_site_trial(site, &opts);
        let d1 = degree_of_multiplexing(&result.wire_map, ObjectId(0))
            .best()
            .map(|(_, d)| d);
        payload([("degree_bits", degree_payload(d1))])
    }

    fn row(&self, batch: usize, payloads: &[Json], _: &[Fig2Row]) -> Result<Fig2Row, String> {
        let mut d1_sum = 0.0;
        let mut observed = 0u64;
        let mut serial = 0;
        for p in payloads {
            if let Some(d1) = degree_from(field(p, "degree_bits", Some)?)? {
                d1_sum += d1;
                observed += 1;
                if d1 == 0.0 {
                    serial += 1;
                }
            }
        }
        let trials = payloads.len();
        Ok(Fig2Row {
            gap_ms: FIG2_GAPS_MS[batch],
            mean_degree_pct: (observed > 0).then(|| 100.0 * d1_sum / observed as f64),
            pct_serialized: pct_of(serial, trials),
            trials,
        })
    }

    fn table(&self, rows: &[Fig2Row]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.gap_ms.to_string(),
                    pct_opt(r.mean_degree_pct),
                    pct(r.pct_serialized),
                ]
            })
            .collect();
        render_table(
            &[
                "inter-request gap (ms)",
                "O1 mean degree of multiplexing (%)",
                "O1 serialized (%)",
            ],
            &table,
        ) + "\npaper Figs. 2-3: spacing the second GET past O1's service time\
             \nlets the server finish O1 in single-threaded mode."
    }
}

/// One ablation of a design choice called out in DESIGN.md.
#[derive(Debug, Clone, Copy)]
enum Ablation {
    /// HTTP/2's concurrent server, no adversary.
    MuxConcurrent,
    /// An HTTP/1.1-like serial server, no adversary.
    MuxSerial,
    /// Duplicate serving on, under 200 ms jitter.
    DupOn,
    /// Duplicate serving off, under 200 ms jitter.
    DupOff,
    /// The client's re-request timeout (ms), under 200 ms jitter.
    Timeout(u64),
}

/// The ablations, in order, and the section each one opens.
const ABLATIONS: [(Ablation, Option<&str>); 8] = [
    (Ablation::MuxConcurrent, Some("mux policy (no adversary)")),
    (Ablation::MuxSerial, None),
    (
        Ablation::DupOn,
        Some("duplicate-serving pathology under 200 ms jitter"),
    ),
    (Ablation::DupOff, None),
    (
        Ablation::Timeout(600),
        Some("client re-request timeout under 200 ms jitter"),
    ),
    (Ablation::Timeout(1_200), None),
    (Ablation::Timeout(2_400), None),
    (Ablation::Timeout(4_800), None),
];

impl Ablation {
    fn label(self) -> String {
        match self {
            Ablation::MuxConcurrent => "mux_concurrent".to_string(),
            Ablation::MuxSerial => "mux_serial".to_string(),
            Ablation::DupOn => "dup_on".to_string(),
            Ablation::DupOff => "dup_off".to_string(),
            Ablation::Timeout(ms) => format!("timeout_{ms}ms"),
        }
    }

    /// The ablation's trial options; its seeds start `offset` past the
    /// base seed.
    fn options(self, base_seed: u64, t: usize) -> TrialOptions {
        let offset = match self {
            Ablation::MuxConcurrent => 0,
            Ablation::MuxSerial => 1_000,
            Ablation::DupOn => 2_000,
            Ablation::DupOff => 3_000,
            Ablation::Timeout(ms) => 4_000 + ms,
        };
        let mut o = TrialOptions::new(base_seed + offset + t as u64, None);
        if !matches!(self, Ablation::MuxConcurrent | Ablation::MuxSerial) {
            o.attack = Some(AttackConfig::jitter_only(SimDuration::from_millis(200)));
        }
        match self {
            Ablation::MuxConcurrent | Ablation::DupOn => {}
            Ablation::MuxSerial => o.server.mux = MuxPolicy::Serial,
            Ablation::DupOff => o.server.serve_duplicates = false,
            Ablation::Timeout(ms) => o.client.rerequest.timeout = SimDuration::from_millis(ms),
        }
        o
    }

    fn line(self, r: &AblationRow) -> String {
        let (serial, rereq, copies) = (
            r.pct_html_serialized,
            r.rerequests_avg,
            r.duplicate_copies_avg,
        );
        match self {
            Ablation::MuxConcurrent => {
                format!("  Concurrent (HTTP/2): html serialized by chance {serial:.0}%")
            }
            Ablation::MuxSerial => {
                format!("  Serial (HTTP/1.1-like): html serialized {serial:.0}% (expected ~100%)")
            }
            Ablation::DupOn => format!(
                "  serve_duplicates=on : re-requests/trial {rereq:.1}, duplicate copies/trial {copies:.1}"
            ),
            Ablation::DupOff => format!(
                "  serve_duplicates=off: re-requests/trial {rereq:.1}, duplicate copies/trial {copies:.1}"
            ),
            Ablation::Timeout(ms) => format!(
                "  timeout {ms:>4} ms: re-requests/trial {rereq:.1}, duplicate copies/trial {copies:.1}"
            ),
        }
    }
}

/// One ablation's aggregate.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Ablation label.
    pub variant: String,
    /// % of trials with the result HTML fully serialized.
    pub pct_html_serialized: f64,
    /// Mean application-layer re-requests per trial.
    pub rerequests_avg: f64,
    /// Mean duplicate copies served per trial.
    pub duplicate_copies_avg: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct AblationRow {
    variant,
    pct_html_serialized,
    rerequests_avg,
    duplicate_copies_avg,
    trials,
});

/// Ablations of the design choices called out in DESIGN.md: the
/// server's mux policy, the duplicate-serving pathology, and the client's
/// re-request timeout.
pub struct Ablations;

impl Experiment for Ablations {
    type Row = AblationRow;

    fn batches(&self) -> Vec<String> {
        ABLATIONS
            .iter()
            .map(|(a, _)| format!("ablation/{}", a.label()))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let trial = run_isidewith_trial_with(ABLATIONS[batch].0.options(base_seed, t));
        let copies = trial.result.serve_log.iter().filter(|s| s.copy > 0).count();
        payload([
            (
                "serialized",
                Json::Bool(is_serialized(trial.html_outcome().best_degree)),
            ),
            ("rerequests", Json::UInt(trial.result.client.h2_rerequests)),
            ("copies", Json::UInt(copies as u64)),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        _: &[AblationRow],
    ) -> Result<AblationRow, String> {
        let trials = payloads.len();
        Ok(AblationRow {
            variant: ABLATIONS[batch].0.label(),
            pct_html_serialized: pct_of(count(payloads, "serialized")?, trials),
            rerequests_avg: mean(total(payloads, "rerequests")?, trials),
            duplicate_copies_avg: mean(total(payloads, "copies")?, trials),
            trials,
        })
    }

    fn table(&self, rows: &[AblationRow]) -> String {
        let mut lines = Vec::new();
        for (r, (ablation, section)) in rows.iter().zip(ABLATIONS) {
            if let Some(title) = section {
                lines.push(format!("\n=== {title} ==="));
            }
            lines.push(ablation.line(r));
        }
        lines.join("\n")
    }
}

/// A robustness-sweep row: the full Section V attack under increasingly
/// adverse network conditions. Degraded trials count as attack failures
/// in the percentage columns (the adversary got nothing usable), and
/// their outcome breakdown is reported alongside so no trial disappears
/// into a silent default.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Fault intensity knob in `[0, 1]` (0 = pristine path).
    pub intensity: f64,
    /// Configured long-run bursty-loss rate (%).
    pub burst_loss_pct: f64,
    /// Configured per-packet reorder probability (%).
    pub reorder_pct: f64,
    /// Configured per-packet duplication probability (%).
    pub duplicate_pct: f64,
    /// Whether the schedule includes a mid-transfer link flap.
    pub flap: bool,
    /// % of trials where the result HTML was fully serialized; `None`
    /// when no trials ran.
    pub pct_html_serialized: Option<f64>,
    /// % of trials where the predictor identified the HTML; `None` when
    /// no trials ran.
    pub pct_html_identified: Option<f64>,
    /// % of trials meeting the paper's success criterion (serialized and
    /// identified); `None` when no trials ran.
    pub pct_success: Option<f64>,
    /// Mean wire retransmissions per trial; `None` when no trials ran.
    pub retransmissions_avg: Option<f64>,
    /// Mean fault-layer drops (burst + outage) per trial; `None` when no
    /// trials ran.
    pub fault_drops_avg: Option<f64>,
    /// Final attempts that completed.
    pub completed: usize,
    /// Final attempts the watchdog classified as stalled.
    pub stalled: usize,
    /// Final attempts that ended in a broken connection.
    pub aborted: usize,
    /// Final attempts that were still progressing at the horizon.
    pub horizon_exhausted: usize,
    /// Extra (retry) attempts consumed across the row.
    pub retries_used: u64,
    /// Trials run (final attempts; the denominators above).
    pub trials: usize,
}

impl_to_json!(struct RobustnessRow {
    intensity,
    burst_loss_pct,
    reorder_pct,
    duplicate_pct,
    flap,
    pct_html_serialized,
    pct_html_identified,
    pct_success,
    retransmissions_avg,
    fault_drops_avg,
    completed,
    stalled,
    aborted,
    horizon_exhausted,
    retries_used,
    trials,
});

/// The fault bundle applied to the middlebox↔server links at a given
/// sweep intensity in `[0, 1]`: bursty loss up to 5 % (mean burst 4
/// packets), reordering up to 30 % (1–20 ms extra delay), duplication up
/// to 2 %, and from intensity 0.8 a 400 ms link flap mid-transfer.
/// Intensity 0 returns an empty plan (no fault layer attached at all).
pub fn robustness_fault_plan(intensity: f64) -> FaultPlan {
    let x = intensity.clamp(0.0, 1.0);
    if x <= 0.0 {
        return FaultPlan::default();
    }
    let mut cfg = FaultConfig::none()
        .with_burst_loss(GilbertElliott::bursty(0.05 * x, 4.0))
        .with_reorder(Reorder {
            probability: 0.3 * x,
            delay_min: SimDuration::from_millis(1),
            delay_max: SimDuration::from_millis(20),
        })
        .with_duplicate(Duplicate {
            probability: 0.02 * x,
            delay: SimDuration::from_millis(1),
        });
    if x >= 0.8 {
        cfg = cfg.with_flap(SimTime::from_millis(1_000), SimDuration::from_millis(400));
    }
    FaultPlan {
        client_link: None,
        server_link: Some(cfg),
    }
}

/// The fault-intensity points swept by the robustness experiment.
const ROBUSTNESS_INTENSITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// The full attack across fault intensities, reporting attack
/// serialization/identification rates against impairment level. Each
/// trial runs with the stall watchdog in fail-fast mode and one retry on
/// a derived seed; every outcome is accounted for in the row.
pub struct RobustnessSweep {
    /// Fault intensities swept (see [`robustness_fault_plan`]).
    pub intensities: &'static [f64],
}

impl Experiment for RobustnessSweep {
    type Row = RobustnessRow;

    fn batches(&self) -> Vec<String> {
        self.intensities
            .iter()
            .map(|x| format!("robustness/intensity_{x}"))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        // Seeds are keyed by the batch *index*, so any slicing of the
        // sweep that preserves indices lands on identical seeds.
        let seed = base_seed + 5_000_000 + (batch as u64) * 10_000 + t as u64;
        let mut opts = TrialOptions::new(seed, Some(AttackConfig::full_attack()));
        opts.faults = robustness_fault_plan(self.intensities[batch]);
        opts.fail_fast = true;
        opts.stall_window = SimDuration::from_secs(15);
        let retried = run_isidewith_trial_retrying(opts, 1);
        let trial = &retried.trial;
        let outcome_idx = match trial.result.outcome {
            TrialOutcome::Completed => 0,
            TrialOutcome::Stalled => 1,
            TrialOutcome::ConnectionAborted => 2,
            TrialOutcome::HorizonExhausted => 3,
        };
        let completed = trial.result.outcome == TrialOutcome::Completed;
        let out = trial.html_outcome();
        let fault_drops: u64 = trial.result.fault_stats.iter().map(|s| s.dropped()).sum();
        payload([
            ("outcome", Json::UInt(outcome_idx)),
            ("retries", Json::UInt(u64::from(retried.retries_used()))),
            (
                "serialized",
                Json::Bool(completed && is_serialized(out.best_degree)),
            ),
            ("identified", Json::Bool(completed && out.identified)),
            ("success", Json::Bool(completed && out.success)),
            ("retrans", Json::UInt(trial.result.total_retransmissions())),
            ("fault_drops", Json::UInt(fault_drops)),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        _: &[RobustnessRow],
    ) -> Result<RobustnessRow, String> {
        let mut outcomes = [0usize; 4];
        for p in payloads {
            let idx = field(p, "outcome", Json::as_u64)?;
            *outcomes
                .get_mut(idx as usize)
                .ok_or_else(|| format!("payload outcome index {idx} out of range"))? += 1;
        }
        let trials = payloads.len();
        let intensity = self.intensities[batch];
        let pct = |key| Ok::<_, String>(Some(pct_of(count(payloads, key)?, trials)));
        Ok(RobustnessRow {
            intensity,
            burst_loss_pct: 100.0 * 0.05 * intensity.clamp(0.0, 1.0),
            reorder_pct: 100.0 * 0.3 * intensity.clamp(0.0, 1.0),
            duplicate_pct: 100.0 * 0.02 * intensity.clamp(0.0, 1.0),
            flap: intensity >= 0.8,
            pct_html_serialized: pct("serialized")?,
            pct_html_identified: pct("identified")?,
            pct_success: pct("success")?,
            retransmissions_avg: Some(mean(total(payloads, "retrans")?, trials)),
            fault_drops_avg: Some(mean(total(payloads, "fault_drops")?, trials)),
            completed: outcomes[0],
            stalled: outcomes[1],
            aborted: outcomes[2],
            horizon_exhausted: outcomes[3],
            retries_used: total(payloads, "retries")?,
            trials,
        })
    }

    fn table(&self, rows: &[RobustnessRow]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.intensity),
                    pct(r.burst_loss_pct),
                    pct(r.reorder_pct),
                    if r.flap { "yes".into() } else { "no".into() },
                    pct_opt(r.pct_html_serialized),
                    pct_opt(r.pct_success),
                    pct_opt(r.retransmissions_avg),
                    format!(
                        "{}/{}/{}/{}",
                        r.completed, r.stalled, r.aborted, r.horizon_exhausted
                    ),
                    r.retries_used.to_string(),
                ]
            })
            .collect();
        render_table(
            &[
                "intensity",
                "burst loss (%)",
                "reorder (%)",
                "flap",
                "HTML serialized (%)",
                "attack success (%)",
                "retransmissions (avg)",
                "ok/stall/abort/horizon",
                "retries",
            ],
            &table,
        ) + "\nreading: the attack's forced serialization should survive mild\
             \nimpairment and decay gracefully — every degraded trial is classified,\
             \nnever silently folded into a success percentage."
    }
}

/// One cell of the H2-vs-H3 attack-transfer matrix: a (attack config,
/// transport) pair aggregated over trials.
#[derive(Debug, Clone)]
pub struct TransferRow {
    /// Attack configuration label.
    pub attack: String,
    /// Transport substrate label (`"h2-tcp"` or `"h3-quic"`).
    pub transport: String,
    /// % of trials where the result HTML was fully serialized.
    pub pct_html_serialized: f64,
    /// % of trials where the predictor identified the HTML size.
    pub pct_html_identified: f64,
    /// % of trials meeting the paper's success criterion (serialized
    /// *and* identified).
    pub pct_success: f64,
    /// % of trials where the full 8-party ranking was read off the wire
    /// (every sequence position correct).
    pub pct_full_ranking: f64,
    /// Mean wire retransmissions per trial (TCP retransmits, or the QUIC
    /// loss + PTO retransmission count in its TCP projection).
    pub retransmissions_avg: f64,
    /// % of trials where the client saw a broken connection.
    pub pct_broken: f64,
    /// Trials run per cell.
    pub trials: usize,
}

impl_to_json!(struct TransferRow {
    attack,
    transport,
    pct_html_serialized,
    pct_html_identified,
    pct_success,
    pct_full_ranking,
    retransmissions_avg,
    pct_broken,
    trials,
});

/// The attack configurations swept by [`transport_transfer`], labelled.
pub fn transfer_attack_configs() -> Vec<(&'static str, AttackConfig)> {
    vec![
        ("full_attack", AttackConfig::full_attack()),
        (
            "jitter_only_50ms",
            AttackConfig::jitter_only(SimDuration::from_millis(50)),
        ),
        (
            "jitter_and_bandwidth_800mbps",
            AttackConfig::jitter_and_bandwidth(SimDuration::from_millis(50), Bandwidth::mbps(800)),
        ),
        (
            "with_drops_80pct_6s",
            AttackConfig::with_drops(0.8, SimDuration::from_secs(6)),
        ),
    ]
}

/// The transports every transfer attack runs over, in batch order.
const TRANSFER_TRANSPORTS: [TransportKind; 2] = [TransportKind::Tcp, TransportKind::Quic];

/// The headline transport-transfer experiment: does the forced
/// serialization attack survive the move from HTTP/2-over-TCP to
/// HTTP/3-over-QUIC? Every attack configuration runs against both
/// transports on identical seeds (same survey ground truth per seed), so
/// each matrix row differs only in the substrate the victim speaks.
pub struct TransportTransfer;

impl Experiment for TransportTransfer {
    type Row = TransferRow;

    fn batches(&self) -> Vec<String> {
        transfer_attack_configs()
            .iter()
            .flat_map(|(label, _)| {
                TRANSFER_TRANSPORTS
                    .map(|transport| format!("transfer/{label}/{}", transport.label()))
            })
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let cfg_idx = batch / TRANSFER_TRANSPORTS.len();
        let seed = base_seed + 6_000_000 + (cfg_idx as u64) * 10_000 + t as u64;
        let attack = transfer_attack_configs().swap_remove(cfg_idx).1;
        let trial = run_isidewith_trial_with(TrialOptions {
            transport: TRANSFER_TRANSPORTS[batch % TRANSFER_TRANSPORTS.len()],
            ..TrialOptions::new(seed, Some(attack))
        });
        let out = trial.html_outcome();
        payload([
            ("serialized", Json::Bool(is_serialized(out.best_degree))),
            ("identified", Json::Bool(out.identified)),
            ("success", Json::Bool(out.success)),
            (
                "full_ranking",
                Json::Bool(trial.sequence_success().iter().all(|ok| *ok)),
            ),
            ("broken", Json::Bool(trial.result.client.connection_broken)),
            ("retrans", Json::UInt(trial.result.total_retransmissions())),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        _: &[TransferRow],
    ) -> Result<TransferRow, String> {
        let trials = payloads.len();
        let pct = |key| Ok::<_, String>(pct_of(count(payloads, key)?, trials));
        let cfg_idx = batch / TRANSFER_TRANSPORTS.len();
        let transport = TRANSFER_TRANSPORTS[batch % TRANSFER_TRANSPORTS.len()];
        Ok(TransferRow {
            attack: transfer_attack_configs()[cfg_idx].0.to_string(),
            transport: transport.label().to_string(),
            pct_html_serialized: pct("serialized")?,
            pct_html_identified: pct("identified")?,
            pct_success: pct("success")?,
            pct_full_ranking: pct("full_ranking")?,
            retransmissions_avg: mean(total(payloads, "retrans")?, trials),
            pct_broken: pct("broken")?,
            trials,
        })
    }

    fn table(&self, rows: &[TransferRow]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.attack.clone(),
                    r.transport.clone(),
                    pct(r.pct_html_serialized),
                    pct(r.pct_html_identified),
                    pct(r.pct_success),
                    pct(r.pct_full_ranking),
                    format!("{:.1}", r.retransmissions_avg),
                    pct(r.pct_broken),
                ]
            })
            .collect();
        render_table(
            &[
                "attack",
                "transport",
                "HTML serialized (%)",
                "HTML identified (%)",
                "attack success (%)",
                "full ranking (%)",
                "retransmissions (avg)",
                "broken (%)",
            ],
            &table,
        ) + "\nreading: each attack runs on the same seeds over H2/TCP and H3/QUIC,\
             \nso any gap between the paired rows is attributable to the transport\
             \nsubstrate alone — per-stream delivery, datagram framing, and QUIC's\
             \nloss recovery replacing the TCP bytestream and TLS record headers."
    }
}

/// Runs the transport-transfer matrix; see [`TransportTransfer`].
pub fn transport_transfer(trials: usize, base_seed: u64, jobs: usize) -> Vec<TransferRow> {
    run(&TransportTransfer, trials, base_seed, jobs)
}

/// One batch of the attack × defense × transport matrix.
#[derive(Debug, Clone, Copy)]
pub struct DefenseMatrixBatch {
    /// The countermeasure under test.
    pub defense: Defense,
    /// Attack configuration label (resolved by
    /// [`defense_matrix_attack`]).
    pub attack: &'static str,
    /// Transport substrate label (`"h2-tcp"` or `"h3-quic"`).
    pub transport: &'static str,
}

impl DefenseMatrixBatch {
    /// The transport as an enum.
    pub fn transport_kind(&self) -> TransportKind {
        if self.transport == TransportKind::Tcp.label() {
            TransportKind::Tcp
        } else {
            TransportKind::Quic
        }
    }
}

/// The matrix's batch enumeration, grouped `(attack, transport)`-major
/// with the undefended baseline **first in every group** — the overhead
/// columns of later rows are computed against it.
pub fn defense_matrix_batches() -> Vec<DefenseMatrixBatch> {
    let mut batches = Vec::new();
    for attack in ["full_attack", "jitter_only_50ms"] {
        for transport in [TransportKind::Tcp, TransportKind::Quic] {
            for defense in Defense::ALL {
                if defense.supported_on(transport) {
                    batches.push(DefenseMatrixBatch {
                        defense,
                        attack,
                        transport: transport.label(),
                    });
                }
            }
        }
    }
    batches
}

/// Resolves a matrix attack label to its configuration.
///
/// # Panics
/// Panics on a label not produced by [`defense_matrix_batches`].
pub fn defense_matrix_attack(label: &str) -> AttackConfig {
    match label {
        "full_attack" => AttackConfig::full_attack(),
        "jitter_only_50ms" => AttackConfig::jitter_only(SimDuration::from_millis(50)),
        other => panic!("unknown defense-matrix attack {other:?}"),
    }
}

/// One row of the attack × defense × transport matrix.
#[derive(Debug, Clone)]
pub struct DefenseMatrixRow {
    /// Countermeasure label.
    pub defense: String,
    /// Attack configuration label.
    pub attack: String,
    /// Transport substrate label.
    pub transport: String,
    /// % of trials meeting the paper's success criterion.
    pub pct_success: f64,
    /// % of trials where the HTML size was identified.
    pub pct_identified: f64,
    /// % of trials where the full 8-party ranking was read correctly.
    pub pct_full_ranking: f64,
    /// % of trials whose page load finished.
    pub pct_completed: f64,
    /// Mean server wire bytes per trial (padding and cover traffic
    /// included).
    pub wire_bytes_avg: f64,
    /// Mean page-load time over completed trials, ms (0 when none
    /// completed).
    pub page_ms_avg: f64,
    /// Wire-byte overhead vs the undefended cell of the same (attack,
    /// transport), % (0 for the baseline row itself).
    pub bandwidth_overhead_pct: f64,
    /// Page-time overhead vs the undefended cell, % (0 when either cell
    /// has no completions).
    pub latency_overhead_pct: f64,
    /// Trials per cell.
    pub trials: usize,
}

impl_to_json!(struct DefenseMatrixRow {
    defense,
    attack,
    transport,
    pct_success,
    pct_identified,
    pct_full_ranking,
    pct_completed,
    wire_bytes_avg,
    page_ms_avg,
    bandwidth_overhead_pct,
    latency_overhead_pct,
    trials,
});

/// The attack × defense × transport matrix: every countermeasure preset
/// against both matrix attacks on both transports (where supported),
/// with bandwidth and latency overhead measured against the undefended
/// cell of the same group.
pub struct DefenseMatrix;

impl Experiment for DefenseMatrix {
    type Row = DefenseMatrixRow;

    fn batches(&self) -> Vec<String> {
        defense_matrix_batches()
            .iter()
            .map(|b| format!("defense/{}/{}/{}", b.attack, b.transport, b.defense.label()))
            .collect()
    }

    fn trial(&self, base_seed: u64, batch: usize, t: usize) -> Json {
        let b = defense_matrix_batches()[batch];
        let seed = base_seed + 7_000_000 + (batch as u64) * 10_000 + t as u64;
        let mut opts = TrialOptions::new(seed, Some(defense_matrix_attack(b.attack)));
        opts.defense = b.defense;
        opts.transport = b.transport_kind();
        let trial = run_isidewith_trial_with(opts);
        let out = trial.html_outcome();
        let client = &trial.result.client;
        let page_ns = match (client.page_started_at, client.page_completed_at) {
            (Some(a), Some(z)) => z.as_nanos().saturating_sub(a.as_nanos()),
            _ => 0,
        };
        // H2's TCP byte counter already includes TLS padding fill and dummy
        // cells (they ride the same byte stream); QUIC's stream-byte counter
        // excludes its datagram padding, which is accounted separately.
        let wire_bytes = match b.transport_kind() {
            TransportKind::Tcp => trial.result.server_tcp.bytes_sent,
            TransportKind::Quic => {
                trial.result.server_tcp.bytes_sent + trial.result.pad_overhead_bytes
            }
        };
        // `success` is judged from the adversary's capture whether or not
        // the page finished, matching the transfer matrix.
        payload([
            (
                "completed",
                Json::Bool(trial.result.outcome == TrialOutcome::Completed),
            ),
            ("serialized", Json::Bool(is_serialized(out.best_degree))),
            ("identified", Json::Bool(out.identified)),
            ("success", Json::Bool(out.success)),
            (
                "full_ranking",
                Json::Bool(trial.sequence_success().iter().all(|ok| *ok)),
            ),
            ("wire_bytes", Json::UInt(wire_bytes)),
            ("page_ns", Json::UInt(page_ns)),
        ])
    }

    fn row(
        &self,
        batch: usize,
        payloads: &[Json],
        earlier: &[DefenseMatrixRow],
    ) -> Result<DefenseMatrixRow, String> {
        let b = defense_matrix_batches()[batch];
        let trials = payloads.len();
        let pct = |key| Ok::<_, String>(pct_of(count(payloads, key)?, trials));
        let completed = count(payloads, "completed")?;
        let wire_bytes_avg = mean(total(payloads, "wire_bytes")?, trials);
        let page_ms_avg = if completed > 0 {
            total(payloads, "page_ns")? as f64 / completed as f64 / 1e6
        } else {
            0.0
        };
        // The overhead baseline is this group's undefended row: the
        // latest `none` row of the same (attack, transport).
        let (base_bytes, base_ms) = if b.defense == Defense::None {
            (wire_bytes_avg, page_ms_avg)
        } else {
            earlier
                .iter()
                .rev()
                .find(|r| {
                    r.defense == Defense::None.label()
                        && r.attack == b.attack
                        && r.transport == b.transport
                })
                .map(|r| (r.wire_bytes_avg, r.page_ms_avg))
                .ok_or_else(|| format!("no undefended row precedes {}/{}", b.attack, b.transport))?
        };
        let overhead = |v: f64, base: f64| {
            if base > 0.0 && v > 0.0 {
                100.0 * (v - base) / base
            } else {
                0.0
            }
        };
        Ok(DefenseMatrixRow {
            defense: b.defense.label().to_string(),
            attack: b.attack.to_string(),
            transport: b.transport.to_string(),
            pct_success: pct("success")?,
            pct_identified: pct("identified")?,
            pct_full_ranking: pct("full_ranking")?,
            pct_completed: pct_of(completed, trials),
            wire_bytes_avg,
            page_ms_avg,
            bandwidth_overhead_pct: overhead(wire_bytes_avg, base_bytes),
            latency_overhead_pct: overhead(page_ms_avg, base_ms),
            trials,
        })
    }

    fn table(&self, rows: &[DefenseMatrixRow]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.attack.clone(),
                    r.transport.clone(),
                    r.defense.clone(),
                    pct(r.pct_success),
                    pct(r.pct_full_ranking),
                    pct(r.pct_completed),
                    format!("{:.0}", r.wire_bytes_avg / 1024.0),
                    format!("{:+.1}%", r.bandwidth_overhead_pct),
                    format!("{:+.1}%", r.latency_overhead_pct),
                ]
            })
            .collect();
        render_table(
            &[
                "attack",
                "transport",
                "defense",
                "success (%)",
                "full ranking (%)",
                "completed (%)",
                "wire (KiB)",
                "bw overhead",
                "latency overhead",
            ],
            &table,
        ) + "\nreading: padding and shaping starve the size/segmentation channel the\
             \nattack identifies objects by; randomization and decoys corrupt the\
             \ninferred ranking instead; splitting hides half the bytes from the tap.\
             \neach defense buys its reduction with the overhead shown on the right."
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_labels_are_unique_across_the_registry() {
        let mut labels: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.experiment.labels())
            .collect();
        let all = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all, "two batches share a trace label");
    }
}
