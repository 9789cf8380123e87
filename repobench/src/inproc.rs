//! The in-process workloads, `table2_h2` and `transfer_h3`: a closed loop
//! of attacked page loads through the public trial, predictor and outcome
//! calls of `h2priv-core`, fanned over worker threads by
//! `h2priv_util::pool` in batches of the experiment's own size. Each
//! worker takes the next trial when its previous one returns.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use h2priv_core::attack::{AttackConfig, TransportKind};
use h2priv_core::experiment::{
    run_isidewith_h3_trial, run_isidewith_trial, IsideWithTrial, ObjectAttackOutcome, TrialOptions,
};
use h2priv_core::experiments::{
    table2, transfer_attack_configs, transport_transfer, Table2Column, TransferRow,
};
use h2priv_core::metrics::is_serialized;
use h2priv_core::report::to_json;
use h2priv_util::pool;

use crate::digest::{count_mismatches, trial_digest, Reference};
use crate::layers::{self, LayerSummary, TracedTrial};
use crate::procfs;
use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder};
use crate::speed;
use crate::stats;

/// Distinct trials in a workload's pinned pool.
pub const POOL: usize = 1_000;

/// Pool entries per transfer configuration (four configurations).
const TRANSFER_PER_CONFIG: usize = POOL / 4;

/// How long the machine-speed gauge runs before each batch.
const GAUGE_BUDGET: Duration = Duration::from_millis(4);

/// Trials a probe process runs (see [`Workload::probe`]).
pub const PROBE_TRIALS: usize = 20;

/// How long the gauge runs in each probe, after its trials.
const PROBE_GAUGE_BUDGET: Duration = Duration::from_millis(10);

/// An in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table II: full-attack H2 trials with every outcome call.
    Table2,
    /// The H3 half of `transport_transfer`: four attacks over QUIC.
    TransferH3,
}

impl Kind {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2 => "table2_h2",
            Kind::TransferH3 => "transfer_h3",
        }
    }

    /// The published base seed of the experiment it reproduces.
    pub fn default_base(self) -> u64 {
        match self {
            Kind::Table2 => 41_000,
            Kind::TransferH3 => 82_000,
        }
    }

    /// Trials per `pool::run_indexed` call: the experiment's own batch
    /// (Table II at its committed 100 trials, `transport_transfer` at 30
    /// per configuration).
    fn batch(self) -> usize {
        match self {
            Kind::Table2 => 100,
            Kind::TransferH3 => 30,
        }
    }

    fn transport(self) -> TransportKind {
        match self {
            Kind::Table2 => TransportKind::Tcp,
            Kind::TransferH3 => TransportKind::Quic,
        }
    }
}

/// The order a run visits the pool in: a permutation drawn from `seed`
/// (seed 0 keeps the published order), repeated as often as time allows.
pub fn schedule(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if seed != 0 {
        let mut state = seed;
        for i in (1..len).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome calls an experiment makes after each trial.
struct Verdicts {
    html: ObjectAttackOutcome,
    images: Vec<ObjectAttackOutcome>,
    sequence: Vec<bool>,
}

/// One trial's contribution to the folded report.
#[derive(Debug, Clone)]
enum Summary {
    Table2 {
        single: [bool; 9],
        sequence: [bool; 9],
        gaps: [Option<f64>; 9],
    },
    Transfer {
        serialized: bool,
        identified: bool,
        success: bool,
        full_ranking: bool,
        broken: bool,
        retransmissions: u64,
    },
}

/// A finished trial as the loop records it.
struct Done {
    digest: u64,
    summary: Summary,
    traced: Option<TracedTrial>,
}

struct Sample {
    key: usize,
    /// Wall time of the trial's library calls.
    ms: f64,
    /// On-CPU and run-queue time of the worker thread over those calls,
    /// from `/proc/thread-self/schedstat` (`None` where unreadable).
    cpu_ns: Option<u64>,
    runq_ns: Option<u64>,
    /// [`speed::factor`] of the trial's batch.
    factor: f64,
    thread: ThreadId,
    end: Instant,
    result: Result<Done, String>,
}

/// One `pool::run_indexed` call.
struct Batch {
    /// [`speed::factor`] of the gauge read just before the batch.
    factor: f64,
    trials: usize,
    wall: Duration,
    /// From the first worker running out of work to the batch's end.
    tail: Duration,
}

impl Batch {
    fn rate(&self) -> f64 {
        self.trials as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// What one probe process measured (see [`Workload::probe`]).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Its set-up at the reference machine speed: on-CPU seconds from its
    /// creation until its first trial returned, or the wall seconds from
    /// its launch where it could not read its CPU clock.
    pub setup_s: f64,
    /// The same, as measured.
    pub raw_setup_s: f64,
    /// Its peak resident memory after its [`PROBE_TRIALS`] trials, kB.
    pub rss_kb: Option<u64>,
}

impl Probe {
    /// Reads what a probe printed, given the wall time from its launch
    /// until it said `first`; `None` when it never did.
    pub fn parse(wall_s: f64, lines: &[String]) -> Option<Probe> {
        let field = |key: &str| lines.iter().find_map(|l| l.strip_prefix(key));
        let raw_setup_s = field("first ")?
            .parse::<u64>()
            .map_or(wall_s, |ns| ns as f64 / 1e9);
        let gauge = field("gauge ")?.parse().ok()?;
        let rss_kb = field("rss ")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|kb| *kb > 0);
        Some(Probe {
            setup_s: raw_setup_s / speed::factor(gauge),
            raw_setup_s,
            rss_kb,
        })
    }
}

/// A workload at a base seed.
pub struct Workload {
    kind: Kind,
    base: u64,
    attacks: Vec<(&'static str, AttackConfig)>,
}

impl Workload {
    /// The workload `kind` at base seed `base`.
    pub fn new(kind: Kind, base: u64) -> Workload {
        let attacks = match kind {
            Kind::Table2 => vec![("full_attack", AttackConfig::full_attack())],
            Kind::TransferH3 => transfer_attack_configs(),
        };
        Workload {
            kind,
            base,
            attacks,
        }
    }

    /// Seed and attack of pool entry `key`, laid out as the experiment
    /// lays out its trials.
    fn input(&self, key: usize) -> (u64, &AttackConfig) {
        match self.kind {
            Kind::Table2 => (self.base + 3_000_000 + key as u64, &self.attacks[0].1),
            Kind::TransferH3 => {
                let (cfg, t) = (key / TRANSFER_PER_CONFIG, key % TRANSFER_PER_CONFIG);
                let seed = self.base + 6_000_000 + cfg as u64 * 10_000 + t as u64;
                (seed, &self.attacks[cfg].1)
            }
        }
    }

    fn verdicts(&self, trial: &IsideWithTrial) -> Verdicts {
        let html = trial.html_outcome();
        let images = match self.kind {
            Kind::Table2 => trial.image_outcomes(),
            Kind::TransferH3 => Vec::new(),
        };
        Verdicts {
            html,
            images,
            sequence: trial.sequence_success(),
        }
    }

    /// The per-trial summary the experiment folds, computed as it does.
    fn summarize(&self, trial: &IsideWithTrial, v: &Verdicts) -> Summary {
        match self.kind {
            Kind::Table2 => {
                let mut single = [false; 9];
                let mut sequence = [false; 9];
                let mut gaps = [None; 9];
                single[0] = v.html.success;
                sequence[0] = v.html.success;
                for (i, out) in v.images.iter().enumerate() {
                    single[i + 1] = out.success;
                }
                for (i, ok) in v.sequence.iter().enumerate() {
                    sequence[i + 1] = *ok;
                }
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
                            gaps[slot] = Some(gap.as_nanos() as f64 / 1e6);
                        }
                    }
                }
                Summary::Table2 {
                    single,
                    sequence,
                    gaps,
                }
            }
            Kind::TransferH3 => Summary::Transfer {
                serialized: is_serialized(v.html.best_degree),
                identified: v.html.identified,
                success: v.html.success,
                full_ranking: v.sequence.iter().all(|ok| *ok),
                broken: trial.result.client.connection_broken,
                retransmissions: trial.result.total_retransmissions(),
            },
        }
    }

    /// The experiment's report over the whole pool, from per-entry
    /// summaries in entry order, rendered as the experiment renders it.
    fn fold(&self, summaries: &[Summary]) -> String {
        match self.kind {
            Kind::Table2 => {
                let mut single = [0usize; 9];
                let mut sequence = [0usize; 9];
                let mut gap_sums = [0.0f64; 9];
                let mut gap_counts = [0usize; 9];
                for s in summaries {
                    let Summary::Table2 {
                        single: s1,
                        sequence: s2,
                        gaps,
                    } = s
                    else {
                        unreachable!("table2 pool holds table2 summaries")
                    };
                    for i in 0..9 {
                        single[i] += usize::from(s1[i]);
                        sequence[i] += usize::from(s2[i]);
                        if let Some(g) = gaps[i] {
                            gap_sums[i] += g;
                            gap_counts[i] += 1;
                        }
                    }
                }
                let trials = summaries.len();
                let labels = ["HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"];
                let cols: Vec<Table2Column> = labels
                    .iter()
                    .enumerate()
                    .map(|(i, label)| Table2Column {
                        object: (*label).to_string(),
                        gap_prev_ms: (gap_counts[i] > 0)
                            .then(|| gap_sums[i] / gap_counts[i] as f64),
                        pct_single_target: 100.0 * single[i] as f64 / trials as f64,
                        pct_all_targets: 100.0 * sequence[i] as f64 / trials as f64,
                        trials,
                    })
                    .collect();
                to_json(&cols) + "\n"
            }
            Kind::TransferH3 => {
                let mut out = String::new();
                for (cfg, chunk) in summaries.chunks(TRANSFER_PER_CONFIG).enumerate() {
                    let (mut ser, mut ident, mut ok, mut rank, mut brk, mut retrans) =
                        (0usize, 0usize, 0usize, 0usize, 0usize, 0u64);
                    for s in chunk {
                        let Summary::Transfer {
                            serialized,
                            identified,
                            success,
                            full_ranking,
                            broken,
                            retransmissions,
                        } = s
                        else {
                            unreachable!("transfer pool holds transfer summaries")
                        };
                        ser += usize::from(*serialized);
                        ident += usize::from(*identified);
                        ok += usize::from(*success);
                        rank += usize::from(*full_ranking);
                        brk += usize::from(*broken);
                        retrans += retransmissions;
                    }
                    let trials = chunk.len();
                    let pct = |n: usize| 100.0 * n as f64 / trials as f64;
                    let row = TransferRow {
                        attack: self.attacks[cfg].0.to_string(),
                        transport: "h3-quic".to_string(),
                        pct_html_serialized: pct(ser),
                        pct_html_identified: pct(ident),
                        pct_success: pct(ok),
                        pct_full_ranking: pct(rank),
                        retransmissions_avg: retrans as f64 / trials as f64,
                        pct_broken: pct(brk),
                        trials,
                    };
                    out.push_str(&(to_json(&row) + "\n"));
                }
                out
            }
        }
    }

    /// Runs pool entry `key` through the library's own entry point, or,
    /// when `traced`, step by step with a span per layer. Only the
    /// library calls are timed; the digest and summary come after.
    fn one(&self, key: usize, traced: bool, epoch: Instant) -> Sample {
        let thread = std::thread::current().id();
        let (seed, attack) = self.input(key);
        let transport = self.kind.transport();
        let sched0 = procfs::thread_schedstat();
        let start = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                let mut rec = Recorder::new(epoch);
                let opts = TrialOptions::new(seed, Some(attack.clone()));
                let (trial, v) = layers::traced_trial(&mut rec, key as u64, opts, transport, |t| {
                    self.verdicts(t)
                });
                (trial, v, rec.spans)
            } else {
                let trial = match transport {
                    TransportKind::Tcp => run_isidewith_trial(seed, Some(attack.clone())),
                    TransportKind::Quic => run_isidewith_h3_trial(seed, Some(attack.clone())),
                };
                let v = self.verdicts(&trial);
                (trial, v, Vec::new())
            }
        }));
        let end = Instant::now();
        let sched = sched0.zip(procfs::thread_schedstat());
        let result = run
            .map(|(trial, v, spans)| Done {
                digest: trial_digest(&trial, &v.html, &v.images, &v.sequence),
                summary: self.summarize(&trial, &v),
                traced: traced.then(|| TracedTrial::new(spans, &trial, transport)),
            })
            .map_err(|panic| {
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string())
            });
        Sample {
            key,
            ms: (end - start).as_secs_f64() * 1e3,
            cpu_ns: sched.map(|(a, b)| b.on_cpu_ns.saturating_sub(a.on_cpu_ns)),
            runq_ns: sched.map(|(a, b)| b.runq_wait_ns.saturating_sub(a.runq_wait_ns)),
            factor: 1.0,
            thread,
            end,
            result,
        }
    }

    /// Probe mode, run in a fresh process: runs the pool's first
    /// [`PROBE_TRIALS`] entries on this thread (fixed work in a fixed
    /// order, so the allocation sequence and the peak repeat exactly).
    /// As soon as the first, cold, trial has returned it says `first
    /// <ns>` on stdout, the process's on-CPU time since its creation (`-`
    /// for an unreadable CPU clock). At the end it reports its peak
    /// resident memory as `rss <kB>`, then times the speed gauge on this
    /// thread (after the memory reading, so the gauge's buffers stay out
    /// of it) and says `gauge <reading>`.
    pub fn probe(&self) {
        let epoch = Instant::now();
        for key in 0..PROBE_TRIALS {
            self.one(key, false, epoch);
            if key == 0 {
                let cpu = procfs::process_cpu_ns().map_or("-".to_string(), |ns| ns.to_string());
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "first {cpu}").and_then(|()| out.flush());
            }
        }
        println!("rss {}", procfs::peak_rss_kb(None).unwrap_or(0));
        println!("gauge {}", speed::gauge(1, PROBE_GAUGE_BUDGET));
    }

    /// Runs batches of the schedule from `*pos` on until `until` (at
    /// least one batch).
    #[allow(clippy::too_many_arguments)]
    fn run_batches(
        &self,
        order: &[usize],
        pos: &mut usize,
        workers: usize,
        until: Instant,
        traced: bool,
        epoch: Instant,
        samples: &mut Vec<Sample>,
    ) -> Vec<Batch> {
        let n = self.kind.batch();
        let mut batches = Vec::new();
        while batches.is_empty() || Instant::now() < until {
            let gauge = speed::gauge(workers, GAUGE_BUDGET);
            let first = *pos;
            let t0 = Instant::now();
            let mut out = pool::run_indexed(workers, n, |i| {
                self.one(order[(first + i) % order.len()], traced, epoch)
            });
            let t1 = Instant::now();
            let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
            for s in &out {
                match last_end.iter_mut().find(|(t, _)| *t == s.thread) {
                    Some(e) => e.1 = e.1.max(s.end),
                    None => last_end.push((s.thread, s.end)),
                }
            }
            let first_idle = last_end.iter().map(|e| e.1).min().unwrap_or(t1);
            let factor = speed::factor(gauge);
            for s in &mut out {
                s.factor = factor;
            }
            batches.push(Batch {
                factor,
                trials: out.len(),
                wall: t1 - t0,
                tail: t1.saturating_duration_since(first_idle),
            });
            *pos += n;
            samples.extend(out);
        }
        batches
    }

    /// Runs the workload for `seconds` and checks every trial against
    /// `reference`. With `traced`, the first third of the time runs plain
    /// (for the tracing overhead) and the rest traced.
    pub fn run(
        &self,
        reference: &Reference,
        seed: u64,
        seconds: f64,
        traced: bool,
        workers: usize,
        probes: &[Probe],
    ) -> Outcome {
        let order = schedule(seed, POOL);
        let epoch = Instant::now();
        let mut samples = Vec::new();
        let mut pos = 0;
        let mut notes = Vec::new();
        let (plain, traced_batches) = if traced {
            let split = epoch + Duration::from_secs_f64(seconds / 3.0);
            let plain =
                self.run_batches(&order, &mut pos, workers, split, false, epoch, &mut samples);
            let end = Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0);
            let t = self.run_batches(&order, &mut pos, workers, end, true, epoch, &mut samples);
            (plain, t)
        } else {
            let end = epoch + Duration::from_secs_f64(seconds);
            let b = self.run_batches(&order, &mut pos, workers, end, false, epoch, &mut samples);
            (b, Vec::new())
        };

        // Correctness: every trial, plain or traced, against its pinned
        // digest; the folded report once the pool has been covered.
        let mut failed = 0u64;
        let mut observed = Vec::new();
        let mut first_summary: Vec<Option<&Summary>> = vec![None; POOL];
        for s in &samples {
            match &s.result {
                Ok(done) => {
                    observed.push((s.key, done.digest));
                    first_summary[s.key].get_or_insert(&done.summary);
                }
                Err(e) => {
                    failed += 1;
                    notes.push(format!("panic at entry {}: {e}", s.key));
                }
            }
        }
        let mismatches = count_mismatches(&reference.digests, &observed);
        failed += mismatches as u64;
        notes.push(format!(
            "digests: {} trials checked, {mismatches} differ from the pinned reference",
            observed.len()
        ));
        let mut correct = failed == 0;
        if first_summary.iter().all(Option::is_some) {
            let summaries: Vec<Summary> = first_summary
                .iter()
                .flatten()
                .map(|s| (*s).clone())
                .collect();
            let report = self.fold(&summaries);
            let pinned = crate::refs::read(&format!("{}.report.json", self.kind.name()));
            let same = pinned.as_deref() == Ok(report.as_str());
            notes.push(format!(
                "folded report over the {POOL}-entry pool: {}",
                if same {
                    "equals the pinned report"
                } else {
                    "DIFFERS from the pinned report"
                }
            ));
            correct &= same;
        } else {
            notes.push("folded report: not checked (the run did not cover the pool)".to_string());
        }

        let mut outcome = Outcome {
            attempted: samples.len() as u64,
            failed,
            correct,
            metrics: Metrics::end_to_end(),
            notes,
        };
        if traced {
            self.layer_metrics(&mut outcome, &samples, &plain, &traced_batches, workers);
        } else {
            // Reported at the reference machine speed (see `speed`); the
            // raw figures go to the notes.
            let raw_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
            let ms: Vec<f64> = samples.iter().map(|s| s.ms / s.factor).collect();
            let cpu_of = |s: &Sample, factor: f64| {
                (s.cpu_ns.map(|ns| ns as f64 / 1e6 / factor), s.ms / factor)
            };
            let cpu: Vec<_> = samples.iter().map(|s| cpu_of(s, s.factor)).collect();
            let raw_cpu: Vec<_> = samples.iter().map(|s| cpu_of(s, 1.0)).collect();
            let (cpu_ms, source) = procfs::cpu_per_trial_ms(&cpu);
            let raw_rates: Vec<f64> = plain.iter().map(Batch::rate).collect();
            let rates: Vec<f64> = plain.iter().map(|b| b.rate() * b.factor).collect();
            let factors: Vec<f64> = plain.iter().map(|b| b.factor).collect();
            let run_factor = stats::median(&factors).unwrap_or(1.0);
            let m = &mut outcome.metrics;
            m.set("trials_per_s", stats::median(&rates).unwrap_or(0.0));
            if let Some(p50) = stats::median(&ms) {
                m.set("trial_ms_p50", p50);
            }
            if let Some(p90) = stats::percentile_with_tail(&ms, 0.9, 10) {
                m.set("trial_ms_p90", p90);
            }
            m.set("cpu_ms_per_trial", cpu_ms);
            let setup: Vec<f64> = probes.iter().map(|p| p.setup_s).collect();
            if let Some(s) = stats::median(&setup) {
                m.set("setup_s", s);
            }
            let raw_setup: Vec<f64> = probes.iter().map(|p| p.raw_setup_s).collect();
            let rss: Vec<f64> = probes
                .iter()
                .filter_map(|p| p.rss_kb)
                .map(|kb| kb as f64)
                .collect();
            if let Some(kb) = stats::median(&rss) {
                m.set("peak_rss_mb", kb / 1024.0);
            }
            let (q1, q2, q3) = stats::quartiles(&rates).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            outcome.notes.push(format!(
                "{} trials in {} batches of {} on {workers} worker(s); batch trials/s \
                 quartiles {q1:.1} / {q2:.1} / {q3:.1}; cpu time from {source:?}",
                samples.len(),
                plain.len(),
                self.kind.batch()
            ));
            outcome.notes.push(format!(
                "host speed: gauge {:.3} against the reference {}; raw trials/s {:.2}, \
                 raw trial_ms_p50 {:.4}, raw cpu_ms_per_trial {:.4}, raw setup_s {:.6}",
                speed::REFERENCE / run_factor,
                speed::REFERENCE,
                stats::median(&raw_rates).unwrap_or(0.0),
                stats::median(&raw_ms).unwrap_or(0.0),
                procfs::cpu_per_trial_ms(&raw_cpu).0,
                stats::median(&raw_setup).unwrap_or(0.0)
            ));
        }
        outcome
    }

    fn layer_metrics(
        &self,
        outcome: &mut Outcome,
        samples: &[Sample],
        plain: &[Batch],
        traced: &[Batch],
        workers: usize,
    ) {
        let mut layers = LayerSummary::default();
        let mut seen = vec![false; POOL];
        let mut runq_ns = 0u64;
        let mut busy_ms = 0.0;
        let mut jsonl = String::new();
        let mut base = 0;
        for s in samples {
            if let Ok(Done {
                traced: Some(t), ..
            }) = &s.result
            {
                layers.add(t, !std::mem::replace(&mut seen[s.key], true));
                runq_ns += s.runq_ns.unwrap_or(0);
                busy_ms += s.ms;
                spans::to_jsonl(&t.spans, base, &mut jsonl);
                base += t.spans.len();
            }
        }
        let mut m = Metrics::per_layer();
        layers.fill(&mut m);
        let n = layers.trials().max(1) as f64;
        let wall_ms: f64 = traced.iter().map(|b| b.wall.as_secs_f64() * 1e3).sum();
        m.set(
            "pool.busy_ratio",
            busy_ms / (workers as f64 * wall_ms).max(1e-9),
        );
        let tails: Vec<f64> = traced.iter().map(|b| b.tail.as_secs_f64() * 1e3).collect();
        m.set(
            "pool.tail_ms",
            tails.iter().sum::<f64>() / tails.len().max(1) as f64,
        );
        m.set("pool.runq_wait_ms", runq_ns as f64 / 1e6 / n);
        let rate = |b: &[Batch]| {
            stats::median(&b.iter().map(Batch::rate).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        m.set("trace.overhead_trials_per_s", rate(traced) - rate(plain));
        m.set("failed_pct", outcome.failed_pct());
        let attributed = layers.attributed_pct();
        outcome.notes.push(format!(
            "traced: {} trials; layer spans cover {attributed:.2}% of the trial spans; spans -> {}",
            layers.trials(),
            crate::refs::write_spans(self.kind.name(), &jsonl)
        ));
        if attributed < 95.0 {
            outcome.correct = false;
            outcome
                .notes
                .push("layer self times do not sum to the trial span within 5%".to_string());
        }
        outcome.metrics = m;
    }
}

/// The report the library's own experiment function folds over the
/// pool (`experiments::table2`, or the H3 rows of
/// `experiments::transport_transfer`), rendered as [`Workload::fold`]
/// renders it.
fn library_report(kind: Kind, base: u64, workers: usize) -> String {
    match kind {
        Kind::Table2 => to_json(&table2(POOL, base, workers)) + "\n",
        Kind::TransferH3 => transport_transfer(TRANSFER_PER_CONFIG, base, workers)
            .iter()
            .filter(|row| row.transport == "h3-quic")
            .map(|row| to_json(row) + "\n")
            .collect(),
    }
}

/// Digests and the folded report of every pool entry, for regenerating
/// the pinned reference. Fails when the benchmark's fold differs from
/// the library's own report over the same trials.
pub fn regenerate(kind: Kind, base: u64, workers: usize) -> Result<(Reference, String), String> {
    let w = Workload::new(kind, base);
    let epoch = Instant::now();
    let samples = pool::run_indexed(workers, POOL, |key| w.one(key, false, epoch));
    let mut digests = Vec::with_capacity(POOL);
    let mut summaries = Vec::with_capacity(POOL);
    for s in samples {
        let done = s
            .result
            .unwrap_or_else(|e| panic!("entry {} panicked: {e}", s.key));
        digests.push(done.digest);
        summaries.push(done.summary);
    }
    let report = w.fold(&summaries);
    if report != library_report(kind, base, workers) {
        return Err(format!(
            "{}: the benchmark's fold differs from the library's report over the same \
             trials; nothing pinned",
            kind.name()
        ));
    }
    Ok((
        Reference {
            workload: kind.name().to_string(),
            base_seed: base,
            digests,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_seeded_permutation() {
        assert_eq!(schedule(0, 5), vec![0, 1, 2, 3, 4]);
        let a = schedule(7, 100);
        assert_eq!(a, schedule(7, 100), "same seed, same inputs");
        assert_ne!(a, schedule(8, 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn probe_output_gives_cpu_set_up_or_falls_back_to_wall_time() {
        let lines = |s: &str| s.lines().map(str::to_string).collect::<Vec<_>>();
        let p = Probe::parse(0.5, &lines("first 2500000\ngauge 4\nrss 4096")).unwrap();
        assert_eq!(
            (p.setup_s, p.raw_setup_s, p.rss_kb),
            (0.0025, 0.0025, Some(4096))
        );
        // Half the reference speed: the set-up counts half as long.
        let p = Probe::parse(0.5, &lines("first 2500000\ngauge 2\nrss 4096")).unwrap();
        assert_eq!(p.setup_s, 0.00125);
        let p = Probe::parse(0.5, &lines("first -\ngauge 4\nrss 0")).unwrap();
        assert_eq!((p.setup_s, p.rss_kb), (0.5, None));
        assert!(Probe::parse(0.5, &lines("rss 4096")).is_none());
        assert!(Probe::parse(0.5, &lines("first 2500000\nrss 4096")).is_none());
    }
}
