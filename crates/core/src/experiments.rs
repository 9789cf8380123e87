//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function runs a batch of trials and aggregates into row structs;
//! the `h2priv-bench` binaries print them next to the paper's numbers
//! (see `EXPERIMENTS.md`). Trial counts are parameters so that benches
//! can run small smoke batches and the experiment binaries the full 100
//! downloads per point the paper used.
//!
//! Every experiment takes a `jobs` argument and fans its independent,
//! seed-keyed trials across that many worker threads through
//! [`h2priv_util::pool`]. Workers return compact per-trial summaries
//! that are folded **in submission order**, so every aggregate — counts,
//! running float means, serialized JSON — is byte-identical to the
//! sequential run at any job count (`jobs = 1` is the legacy in-line
//! path, `jobs = 0` means all cores).

use crate::attack::{AttackConfig, TransportKind};
use crate::defense::Defense;
use crate::experiment::{
    run_isidewith_trial, run_isidewith_trial_retrying, run_isidewith_trial_with, run_site_trial,
    FaultPlan, TrialOptions, TrialOutcome,
};
use crate::metrics::degree_of_multiplexing;
use crate::predictor::SizeMap;
use h2priv_netsim::faults::{Duplicate, FaultConfig, GilbertElliott, Reorder};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_netsim::units::Bandwidth;
use h2priv_util::impl_to_json;
use h2priv_util::pool;
use h2priv_util::telemetry;
use h2priv_web::sites::two_object_site;
use h2priv_web::ObjectId;

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
pub const TABLE1_JITTERS_MS: [u64; 4] = [0, 25, 50, 100];

/// Compact per-trial summary of one Table I cell — everything the row
/// aggregation needs, in exactly-representable types, so a summary that
/// round-trips through the campaign journal folds to the same bytes as
/// the in-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Trial {
    /// Whether the HTML was fully serialized.
    pub serialized: bool,
    /// Wire retransmissions in the trial.
    pub retrans: u64,
    /// Application-layer re-requests in the trial.
    pub rerequests: u64,
}

/// Runs one Table I cell: jitter batch `ji` (an index into
/// [`TABLE1_JITTERS_MS`]), trial `t`. Pure function of its arguments —
/// the seed layout matches the original in-line loop.
pub fn table1_trial(base_seed: u64, ji: usize, t: usize) -> Table1Trial {
    let jitter_ms = TABLE1_JITTERS_MS[ji];
    let seed = base_seed + (ji as u64) * 10_000 + t as u64;
    let attack = AttackConfig::jitter_only(SimDuration::from_millis(jitter_ms));
    let trial = run_isidewith_trial(seed, Some(attack));
    Table1Trial {
        serialized: crate::metrics::is_serialized(trial.html_outcome().best_degree),
        retrans: trial.result.total_retransmissions(),
        rerequests: trial.result.client.h2_rerequests,
    }
}

/// Streaming per-batch accumulator for Table I. `baseline_retrans` is
/// cross-batch state (the 0 ms row sets the denominator for the
/// increase column), so batches must be folded in sweep order.
#[derive(Debug, Default)]
pub struct Table1Accum {
    serialized: usize,
    retrans_total: u64,
    rereq_total: u64,
    trials: usize,
}

impl Table1Accum {
    /// Folds one trial summary in.
    pub fn add(&mut self, t: &Table1Trial) {
        self.serialized += usize::from(t.serialized);
        self.retrans_total += t.retrans;
        self.rereq_total += t.rerequests;
        self.trials += 1;
    }

    /// Emits the batch's row and updates the cross-batch baseline.
    pub fn row(&self, jitter_ms: u64, baseline_retrans: &mut Option<f64>) -> Table1Row {
        let trials = self.trials;
        let retransmissions_avg = self.retrans_total as f64 / trials as f64;
        let base = *baseline_retrans.get_or_insert(retransmissions_avg.max(1e-9));
        Table1Row {
            jitter_ms,
            pct_not_multiplexed: 100.0 * self.serialized as f64 / trials as f64,
            retransmissions_avg,
            retrans_increase_pct: 100.0 * (retransmissions_avg - base) / base,
            rerequests_avg: self.rereq_total as f64 / trials as f64,
            trials,
        }
    }
}

/// Regenerates Table I (jitter ∈ {0, 25, 50, 100} ms). An empty trial
/// budget yields no rows — "no data" is explicit, never a fabricated
/// percentage.
pub fn table1(trials: usize, base_seed: u64, jobs: usize) -> Vec<Table1Row> {
    if trials == 0 {
        return Vec::new();
    }
    let mut rows = Vec::new();
    let mut baseline_retrans = None;
    for (ji, jitter_ms) in TABLE1_JITTERS_MS.iter().enumerate() {
        let batch = telemetry::open_batch(&format!("table1/jitter_{jitter_ms}ms"));
        let per_trial = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            table1_trial(base_seed, ji, t)
        });
        let mut accum = Table1Accum::default();
        for summary in &per_trial {
            accum.add(summary);
        }
        rows.push(accum.row(*jitter_ms, &mut baseline_retrans));
    }
    rows
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

/// Regenerates Fig. 5 (bandwidth ∈ {1000, 800, 500, 100, 1} Mbps).
pub fn fig5(trials: usize, base_seed: u64, jobs: usize) -> Vec<Fig5Row> {
    if trials == 0 {
        return Vec::new();
    }
    let bandwidths = [1_000u64, 800, 500, 100, 1];
    let mut rows = Vec::new();
    for (bi, mbps) in bandwidths.iter().enumerate() {
        let batch = telemetry::open_batch(&format!("fig5/bandwidth_{mbps}mbps"));
        let per_trial = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            let seed = base_seed + 1_000_000 + (bi as u64) * 10_000 + t as u64;
            let attack = AttackConfig::jitter_and_bandwidth(
                SimDuration::from_millis(50),
                Bandwidth::mbps(*mbps),
            );
            let trial = run_isidewith_trial(seed, Some(attack));
            (
                trial.html_outcome().success,
                trial.result.client.connection_broken,
                trial.result.total_retransmissions(),
            )
        });
        let mut success = 0usize;
        let mut broken = 0usize;
        let mut retrans_total = 0u64;
        for (ok, brk, retrans) in per_trial {
            success += usize::from(ok);
            broken += usize::from(brk);
            retrans_total += retrans;
        }
        rows.push(Fig5Row {
            bandwidth_mbps: *mbps,
            pct_success: 100.0 * success as f64 / trials as f64,
            retransmissions_avg: retrans_total as f64 / trials as f64,
            pct_broken: 100.0 * broken as f64 / trials as f64,
            trials,
        });
    }
    rows
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

/// Regenerates the Section IV-D experiment (80 % drops, plus a sweep
/// showing that higher rates break the connection).
pub fn section4d(trials: usize, base_seed: u64, drop_rates: &[f64], jobs: usize) -> Vec<DropRow> {
    section4d_with(trials, base_seed, drop_rates, true, jobs)
}

/// Section IV-D with the pure 6-second-timer drop window (no early stop
/// on the reset signature). This is the variant where very high drop
/// rates break the connection outright, as the paper reports.
pub fn section4d_timer_only(
    trials: usize,
    base_seed: u64,
    drop_rates: &[f64],
    jobs: usize,
) -> Vec<DropRow> {
    section4d_with(trials, base_seed ^ 0xD0D0, drop_rates, false, jobs)
}

fn section4d_with(
    trials: usize,
    base_seed: u64,
    drop_rates: &[f64],
    stop_on_reset: bool,
    jobs: usize,
) -> Vec<DropRow> {
    if trials == 0 {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for (di, rate) in drop_rates.iter().enumerate() {
        let batch = telemetry::open_batch(&format!("section4d/drop_rate_{rate}"));
        let per_trial = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            let seed = base_seed + 2_000_000 + (di as u64) * 10_000 + t as u64;
            let mut attack = AttackConfig::with_drops(*rate, SimDuration::from_secs(6));
            attack.stop_drops_on_reset = stop_on_reset;
            let trial = run_isidewith_trial(seed, Some(attack));
            (
                trial.html_outcome().success,
                trial.result.client.resets_sent > 0,
                trial.result.client.connection_broken,
            )
        });
        let mut success = 0usize;
        let mut reset = 0usize;
        let mut broken = 0usize;
        for (ok, rst, brk) in per_trial {
            success += usize::from(ok);
            reset += usize::from(rst);
            broken += usize::from(brk);
        }
        rows.push(DropRow {
            drop_rate: *rate,
            pct_success: 100.0 * success as f64 / trials as f64,
            pct_reset_sent: 100.0 * reset as f64 / trials as f64,
            pct_broken: 100.0 * broken as f64 / trials as f64,
            trials,
        });
    }
    rows
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

/// Regenerates Table II with the full Section V attack.
pub fn table2(trials: usize, base_seed: u64, jobs: usize) -> Vec<Table2Column> {
    if trials == 0 {
        return Vec::new();
    }
    // Per-trial summary: which slots succeeded and the measured gap (at
    // most one per slot per trial).
    struct Table2Trial {
        single: [bool; 9],
        sequence: [bool; 9],
        gaps: [Option<f64>; 9],
    }

    let batch = telemetry::open_batch("table2/full_attack");
    let per_trial = pool::run_indexed(jobs, trials, |t| {
        let _tele = telemetry::trial_slot(batch, t as u64);
        let seed = base_seed + 3_000_000 + t as u64;
        let trial = run_isidewith_trial(seed, Some(AttackConfig::full_attack()));
        let mut summary = Table2Trial {
            single: [false; 9],
            sequence: [false; 9],
            gaps: [None; 9],
        };

        // Column 0: the HTML (the ranking page itself).
        let html = trial.html_outcome();
        summary.single[0] = html.success;
        summary.sequence[0] = html.success;
        // Columns 1..=8: the images.
        for (i, out) in trial.image_outcomes().iter().enumerate() {
            summary.single[i + 1] = out.success;
        }
        for (i, ok) in trial.sequence_success().iter().enumerate() {
            summary.sequence[i + 1] = *ok;
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
                    summary.gaps[slot] = Some(gap.as_nanos() as f64 / 1e6);
                }
            }
        }
        summary
    });

    let mut single = [0usize; 9];
    let mut sequence = [0usize; 9];
    let mut gap_sums = [0.0f64; 9];
    let mut gap_counts = [0usize; 9];
    for summary in per_trial {
        for i in 0..9 {
            single[i] += usize::from(summary.single[i]);
            sequence[i] += usize::from(summary.sequence[i]);
            if let Some(gap) = summary.gaps[i] {
                gap_sums[i] += gap;
                gap_counts[i] += 1;
            }
        }
    }

    let labels = ["HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"];
    labels
        .iter()
        .enumerate()
        .map(|(i, label)| Table2Column {
            object: (*label).to_string(),
            gap_prev_ms: if gap_counts[i] > 0 {
                Some(gap_sums[i] / gap_counts[i] as f64)
            } else {
                None
            },
            pct_single_target: 100.0 * single[i] as f64 / trials as f64,
            pct_all_targets: 100.0 * sequence[i] as f64 / trials as f64,
            trials,
        })
        .collect()
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

/// Regenerates the paper's baseline claims: HTML degree ≈98 %, images
/// 80–99 %, 6th object unmultiplexed in ≈32 % of unattacked jittered
/// runs (the paper's 0 ms row of Table I).
pub fn baseline(trials: usize, base_seed: u64, jobs: usize) -> Vec<BaselineRow> {
    if trials == 0 {
        return Vec::new();
    }
    let batch = telemetry::open_batch("baseline/no_attack");
    let per_trial = pool::run_indexed(jobs, trials, |t| {
        let _tele = telemetry::trial_slot(batch, t as u64);
        let seed = base_seed + 4_000_000 + t as u64;
        let trial = run_isidewith_trial(seed, None);
        let mut interest = vec![trial.iw.html];
        interest.extend_from_slice(&trial.iw.images);
        let mut slots: [Option<f64>; 9] = [None; 9];
        for (slot, obj) in interest.iter().enumerate() {
            slots[slot] = trial.result.degree(*obj).best().map(|(_, d)| d);
        }
        slots
    });
    let mut degrees: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for slots in per_trial {
        for (slot, d) in slots.into_iter().enumerate() {
            if let Some(d) = d {
                degrees[slot].push(d);
            }
        }
    }
    let labels = ["HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"];
    labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let v = &degrees[i];
            let (mean_degree_pct, pct_not_multiplexed) = if v.is_empty() {
                // Never observed: report "no data" rather than the
                // misleading 0 % the old silent default produced.
                (None, None)
            } else {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let zero = v
                    .iter()
                    .filter(|d| crate::metrics::is_serialized(**d))
                    .count();
                (
                    Some(100.0 * mean),
                    Some(100.0 * zero as f64 / v.len() as f64),
                )
            };
            BaselineRow {
                object: (*label).to_string(),
                mean_degree_pct,
                pct_not_multiplexed,
                trials,
            }
        })
        .collect()
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

/// Regenerates the Fig. 1 demonstration.
pub fn fig1(base_seed: u64, jobs: usize) -> Vec<Fig1Row> {
    let o1 = 9_500u64;
    let o2 = 7_200u64;
    let map = SizeMap::new(vec![("o1".to_string(), o1), ("o2".to_string(), o2)], 0.03);
    let scenarios = vec![
        ("multiplexed (IAT ~ 0)", 0u64),
        ("serial (IAT > service time)", 700),
    ];
    let batch = telemetry::open_batch("fig1/size_estimation");
    pool::map_ordered(jobs, scenarios, |(label, gap_ms)| {
        // The gap is unique per scenario and sorts in submission order,
        // so it doubles as the trial id for the telemetry slot.
        let _tele = telemetry::trial_slot(batch, gap_ms);
        let site = two_object_site(o1, o2, SimDuration::from_millis(gap_ms));
        let opts = TrialOptions::new(base_seed + gap_ms, None);
        let result = run_site_trial(site, &opts);
        let prediction = result.predict(&map);
        let estimates: Vec<u64> = prediction
            .units
            .iter()
            .map(|u| u.unit.estimated_payload)
            .collect();
        Fig1Row {
            scenario: label.to_string(),
            truth: (o1, o2),
            both_identified: prediction.contains("o1") && prediction.contains("o2"),
            estimates,
        }
    })
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
pub const ROBUSTNESS_INTENSITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// Compact per-trial summary of one robustness cell, in
/// exactly-representable types (see [`Table1Trial`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustTrial {
    /// Outcome of the final attempt, as an index:
    /// completed/stalled/aborted/horizon-exhausted.
    pub outcome_idx: usize,
    /// Retry attempts consumed before the final one.
    pub retries: u64,
    /// HTML fully serialized (completed trials only).
    pub serialized: bool,
    /// HTML identified by the predictor (completed trials only).
    pub identified: bool,
    /// The paper's success criterion held.
    pub success: bool,
    /// Wire retransmissions.
    pub retrans: u64,
    /// Fault-layer drops (burst + outage) across all faulted links.
    pub fault_drops: u64,
}

/// Runs one robustness cell: batch `ii` at fault `intensity`, trial
/// `t`. Pure function of its arguments — the seed layout (keyed by the
/// batch *index*) and watchdog/retry policy match the original in-line
/// loop, so any slicing of the sweep that preserves indices lands on
/// identical seeds.
pub fn robustness_trial(base_seed: u64, ii: usize, intensity: f64, t: usize) -> RobustTrial {
    let plan = robustness_fault_plan(intensity);
    let seed = base_seed + 5_000_000 + (ii as u64) * 10_000 + t as u64;
    let mut opts = TrialOptions::new(seed, Some(AttackConfig::full_attack()));
    opts.faults = plan;
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
    RobustTrial {
        outcome_idx,
        retries: u64::from(retried.retries_used()),
        serialized: completed && crate::metrics::is_serialized(out.best_degree),
        identified: completed && out.identified,
        success: completed && out.success,
        retrans: trial.result.total_retransmissions(),
        fault_drops: trial
            .result
            .fault_stats
            .iter()
            .map(|s| s.dropped())
            .sum::<u64>(),
    }
}

/// Streaming per-batch accumulator for the robustness sweep.
#[derive(Debug, Default)]
pub struct RobustnessAccum {
    serialized: usize,
    identified: usize,
    success: usize,
    outcome_counts: [usize; 4],
    retries_used: u64,
    retrans_total: u64,
    fault_drops_total: u64,
    trials: usize,
}

impl RobustnessAccum {
    /// Folds one trial summary in.
    pub fn add(&mut self, s: &RobustTrial) {
        self.outcome_counts[s.outcome_idx.min(3)] += 1;
        self.retries_used += s.retries;
        self.serialized += usize::from(s.serialized);
        self.identified += usize::from(s.identified);
        self.success += usize::from(s.success);
        self.retrans_total += s.retrans;
        self.fault_drops_total += s.fault_drops;
        self.trials += 1;
    }

    /// Emits the batch's row.
    pub fn row(&self, intensity: f64) -> RobustnessRow {
        let trials = self.trials;
        let pct = |n: usize| Some(100.0 * n as f64 / trials as f64);
        RobustnessRow {
            intensity,
            burst_loss_pct: 100.0 * 0.05 * intensity.clamp(0.0, 1.0),
            reorder_pct: 100.0 * 0.3 * intensity.clamp(0.0, 1.0),
            duplicate_pct: 100.0 * 0.02 * intensity.clamp(0.0, 1.0),
            flap: intensity >= 0.8,
            pct_html_serialized: pct(self.serialized),
            pct_html_identified: pct(self.identified),
            pct_success: pct(self.success),
            retransmissions_avg: Some(self.retrans_total as f64 / trials as f64),
            fault_drops_avg: Some(self.fault_drops_total as f64 / trials as f64),
            completed: self.outcome_counts[0],
            stalled: self.outcome_counts[1],
            aborted: self.outcome_counts[2],
            horizon_exhausted: self.outcome_counts[3],
            retries_used: self.retries_used,
            trials,
        }
    }
}

/// Sweeps the full attack across fault intensities, reporting attack
/// serialization/identification rates against impairment level. Each
/// trial runs with the stall watchdog in fail-fast mode and one retry on
/// a derived seed; every outcome is accounted for in the row.
pub fn robustness_sweep(
    trials: usize,
    base_seed: u64,
    intensities: &[f64],
    jobs: usize,
) -> Vec<RobustnessRow> {
    if trials == 0 {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for (ii, &intensity) in intensities.iter().enumerate() {
        let batch = telemetry::open_batch(&format!("robustness/intensity_{intensity}"));
        let per_trial = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            robustness_trial(base_seed, ii, intensity, t)
        });
        let mut accum = RobustnessAccum::default();
        for summary in &per_trial {
            accum.add(summary);
        }
        rows.push(accum.row(intensity));
    }
    rows
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

/// The headline transport-transfer experiment: does the forced
/// serialization attack survive the move from HTTP/2-over-TCP to
/// HTTP/3-over-QUIC? Every attack configuration runs against both
/// transports on identical seeds (same survey ground truth per seed), so
/// each matrix row differs only in the substrate the victim speaks.
pub fn transport_transfer(trials: usize, base_seed: u64, jobs: usize) -> Vec<TransferRow> {
    if trials == 0 {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for (cfg_idx, (label, attack)) in transfer_attack_configs().into_iter().enumerate() {
        for transport in [TransportKind::Tcp, TransportKind::Quic] {
            let batch = telemetry::open_batch(&format!("transfer/{label}/{}", transport.label()));
            let per_trial = pool::run_indexed(jobs, trials, |t| {
                let _tele = telemetry::trial_slot(batch, t as u64);
                let seed = base_seed + 6_000_000 + (cfg_idx as u64) * 10_000 + t as u64;
                let trial = run_isidewith_trial_with(TrialOptions {
                    transport,
                    ..TrialOptions::new(seed, Some(attack.clone()))
                });
                let out = trial.html_outcome();
                (
                    crate::metrics::is_serialized(out.best_degree),
                    out.identified,
                    out.success,
                    trial.sequence_success().iter().all(|ok| *ok),
                    trial.result.client.connection_broken,
                    trial.result.total_retransmissions(),
                )
            });
            let (mut serialized, mut identified, mut success) = (0usize, 0usize, 0usize);
            let mut full_ranking = 0usize;
            let mut broken = 0usize;
            let mut retrans_total = 0u64;
            for (ser, ident, ok, rank, brk, retrans) in per_trial {
                serialized += usize::from(ser);
                identified += usize::from(ident);
                success += usize::from(ok);
                full_ranking += usize::from(rank);
                broken += usize::from(brk);
                retrans_total += retrans;
            }
            let pct = |n: usize| 100.0 * n as f64 / trials as f64;
            rows.push(TransferRow {
                attack: label.to_string(),
                transport: transport.label().to_string(),
                pct_html_serialized: pct(serialized),
                pct_html_identified: pct(identified),
                pct_success: pct(success),
                pct_full_ranking: pct(full_ranking),
                retransmissions_avg: retrans_total as f64 / trials as f64,
                pct_broken: pct(broken),
                trials,
            });
        }
    }
    rows
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
/// columns of later rows are computed against it, so the streaming fold
/// only ever holds one group's baseline.
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

/// Compact per-trial summary of one defense-matrix cell, in
/// exactly-representable types (see [`Table1Trial`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseTrial {
    /// The page load finished.
    pub completed: bool,
    /// HTML fully serialized.
    pub serialized: bool,
    /// HTML identified by the predictor.
    pub identified: bool,
    /// The paper's success criterion (serialized *and* identified) —
    /// judged from the adversary's capture whether or not the page
    /// finished, matching [`transport_transfer`].
    pub success: bool,
    /// Every position of the 8-party ranking read correctly.
    pub full_ranking: bool,
    /// Server payload bytes on the wire, including padding fill and
    /// dummy shaping cells — the defense's bandwidth cost.
    pub wire_bytes: u64,
    /// Page-load duration in nanoseconds (0 when not completed) — the
    /// defense's latency cost.
    pub page_ns: u64,
}

/// Runs one defense-matrix cell: batch `bi`, trial `t`. Pure function
/// of its arguments; the seed layout mirrors the other experiments
/// (`base + offset + batch_idx * 10_000 + trial`).
pub fn defense_matrix_trial(base_seed: u64, bi: usize, t: usize) -> DefenseTrial {
    let b = defense_matrix_batches()[bi];
    let seed = base_seed + 7_000_000 + (bi as u64) * 10_000 + t as u64;
    let mut opts = TrialOptions::new(seed, Some(defense_matrix_attack(b.attack)));
    opts.defense = b.defense;
    opts.transport = b.transport_kind();
    let trial = run_isidewith_trial_with(opts);
    let out = trial.html_outcome();
    let completed = trial.result.outcome == TrialOutcome::Completed;
    let page_ns = match (
        trial.result.client.page_started_at,
        trial.result.client.page_completed_at,
    ) {
        (Some(a), Some(z)) => z.as_nanos().saturating_sub(a.as_nanos()),
        _ => 0,
    };
    // H2's TCP byte counter already includes TLS padding fill and dummy
    // cells (they ride the same byte stream); QUIC's stream-byte counter
    // excludes its datagram padding, which is accounted separately.
    let wire_bytes = match b.transport_kind() {
        TransportKind::Tcp => trial.result.server_tcp.bytes_sent,
        TransportKind::Quic => trial.result.server_tcp.bytes_sent + trial.result.pad_overhead_bytes,
    };
    DefenseTrial {
        completed,
        serialized: crate::metrics::is_serialized(out.best_degree),
        identified: out.identified,
        success: out.success,
        full_ranking: trial.sequence_success().iter().all(|ok| *ok),
        wire_bytes,
        page_ns,
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

/// Streaming per-batch accumulator for the defense matrix.
#[derive(Debug, Default)]
pub struct DefenseAccum {
    success: usize,
    identified: usize,
    full_ranking: usize,
    completed: usize,
    wire_bytes_total: u64,
    page_ns_total: u64,
    trials: usize,
}

impl DefenseAccum {
    /// Folds one trial summary in.
    pub fn add(&mut self, s: &DefenseTrial) {
        self.success += usize::from(s.success);
        self.identified += usize::from(s.identified);
        self.full_ranking += usize::from(s.full_ranking);
        self.completed += usize::from(s.completed);
        self.wire_bytes_total += s.wire_bytes;
        self.page_ns_total += s.page_ns;
        self.trials += 1;
    }

    /// Emits the batch's row. `baseline` carries the current (attack,
    /// transport) group's undefended `(wire_bytes_avg, page_ms_avg)`:
    /// the `none` batch **sets** it (each group starts with `none`, see
    /// [`defense_matrix_batches`]), every other batch reads it for the
    /// overhead columns — the same cross-batch pattern as Table I's
    /// `baseline_retrans`.
    pub fn row(
        &self,
        b: &DefenseMatrixBatch,
        baseline: &mut Option<(f64, f64)>,
    ) -> DefenseMatrixRow {
        let trials = self.trials;
        let pct = |n: usize| 100.0 * n as f64 / trials as f64;
        let wire_bytes_avg = self.wire_bytes_total as f64 / trials as f64;
        let page_ms_avg = if self.completed > 0 {
            self.page_ns_total as f64 / self.completed as f64 / 1e6
        } else {
            0.0
        };
        if b.defense == Defense::None {
            *baseline = Some((wire_bytes_avg, page_ms_avg));
        }
        let (base_bytes, base_ms) = baseline.expect("baseline batch folded first in each group");
        let overhead = |v: f64, base: f64| {
            if base > 0.0 && v > 0.0 {
                100.0 * (v - base) / base
            } else {
                0.0
            }
        };
        DefenseMatrixRow {
            defense: b.defense.label().to_string(),
            attack: b.attack.to_string(),
            transport: b.transport.to_string(),
            pct_success: pct(self.success),
            pct_identified: pct(self.identified),
            pct_full_ranking: pct(self.full_ranking),
            pct_completed: pct(self.completed),
            wire_bytes_avg,
            page_ms_avg,
            bandwidth_overhead_pct: overhead(wire_bytes_avg, base_bytes),
            latency_overhead_pct: overhead(page_ms_avg, base_ms),
            trials,
        }
    }
}

/// The attack × defense × transport matrix: every countermeasure preset
/// against both matrix attacks on both transports (where supported),
/// with bandwidth and latency overhead measured against the undefended
/// cell of the same group.
pub fn defense_matrix(trials: usize, base_seed: u64, jobs: usize) -> Vec<DefenseMatrixRow> {
    if trials == 0 {
        return Vec::new();
    }
    let batches = defense_matrix_batches();
    let mut rows = Vec::new();
    let mut baseline = None;
    for (bi, b) in batches.iter().enumerate() {
        let batch = telemetry::open_batch(&format!(
            "defense/{}/{}/{}",
            b.attack,
            b.transport,
            b.defense.label()
        ));
        let per_trial = pool::run_indexed(jobs, trials, |t| {
            let _tele = telemetry::trial_slot(batch, t as u64);
            defense_matrix_trial(base_seed, bi, t)
        });
        let mut accum = DefenseAccum::default();
        for s in &per_trial {
            accum.add(s);
        }
        rows.push(accum.row(b, &mut baseline));
    }
    rows
}

/// Degree of the two objects of a two-object site trial (test helper).
/// `None` means the object never appeared on the wire — callers must
/// treat that as missing data, not as "fully multiplexed".
pub fn two_object_degrees(gap: SimDuration, seed: u64) -> (Option<f64>, Option<f64>) {
    let site = two_object_site(30_000, 24_000, gap);
    let result = run_site_trial(site, &TrialOptions::new(seed, None));
    let d = |o| {
        degree_of_multiplexing(&result.wire_map, ObjectId(o))
            .best()
            .map(|(_, d)| d)
    };
    (d(0), d(1))
}
