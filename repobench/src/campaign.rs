//! The `defense_campaign` workload: the full defense matrix (20 batches
//! of 25 trials) run through the workspace's `campaign` binary on two
//! shards, killed once at a fixed cell under `--fail-on-crash` and
//! finished with `--resume`, repeated as a closed loop. The benchmark
//! follows the journal as it grows to time every record.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use h2priv_campaign::journal;
use h2priv_core::attack::TransportKind;
use h2priv_core::campaign::CampaignSpec;
use h2priv_core::experiment::{TrialOptions, TrialOutcome};
use h2priv_core::experiments::{defense_matrix_attack, defense_matrix_batches};
use h2priv_core::metrics::is_serialized;
use h2priv_util::json::Json;

use crate::digest::{count_mismatches, line_digest, Reference};
use crate::layers::{self, LayerSummary, TracedTrial};
use crate::procfs;
use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder};
use crate::speed;
use crate::stats;

/// The campaign experiment.
pub const EXPERIMENT: &str = "defense_matrix";
/// Trials per cell; at this count the report is the committed
/// `results/defense_matrix.json`.
pub const TRIALS: u64 = 25;
/// Cells of the campaign: 20 batches of 25 trials.
pub const CELLS: u64 = 500;
/// The campaign's base seed, which `CampaignSpec` fixes.
pub const BASE_SEED: u64 = 83_000;
/// Shards the campaign runs on.
const SHARDS: &str = "2";
/// Journal polling interval.
const POLL: Duration = Duration::from_micros(500);
/// How long the machine-speed gauge runs between campaigns.
const GAUGE_BUDGET: Duration = Duration::from_millis(20);

/// The cell the first leg is killed at. The published schedule kills at
/// cell 200 (seed 0); other seeds move the kill within ±10 cells, so
/// resume is checked at different points for nearly the same wasted work.
pub fn kill_cell(seed: u64) -> u64 {
    190 + seed.wrapping_add(10) % 21
}

/// The killed leg must end with the campaign's failure status 1: the
/// injected worker crash aborted it under `--fail-on-crash`. Status 0
/// means the kill never fired; another status or a signal means the
/// supervisor itself failed.
pub fn check_killed_status(code: Option<i32>) -> Result<(), String> {
    match code {
        Some(1) => Ok(()),
        Some(0) => Err("killed leg exited 0: the injected kill never fired".to_string()),
        Some(c) => Err(format!(
            "killed leg exited {c}, expected 1 (injected worker crash)"
        )),
        None => Err("killed leg was ended by a signal".to_string()),
    }
}

/// The supervisor's counters in a leg's stderr: `(respawns, reorder
/// high-water mark)`, 0 where a line is absent.
pub fn parse_leg_stderr(text: &str) -> (u64, u64) {
    let mut respawns = 0;
    let mut high_water = 0;
    for line in text.lines() {
        if let Some(i) = line.find(" respawn(s)") {
            let n = line[..i].rsplit(' ').next().and_then(|s| s.parse().ok());
            respawns += n.unwrap_or(0);
        }
        if let Some(i) = line.find("reorder high-water ") {
            let rest = &line[i + "reorder high-water ".len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            high_water = high_water.max(digits.parse().unwrap_or(0));
        }
    }
    (respawns, high_water)
}

/// Follows a growing file, timestamping each complete line as it appears.
struct Follower {
    path: PathBuf,
    file: Option<File>,
    offset: u64,
    skip: usize,
    buf: Vec<u8>,
}

impl Follower {
    /// Follows `path` from its current end, or from the start skipping
    /// the header line when the file is about to be created.
    fn new(path: &Path, fresh: bool) -> Follower {
        let offset = if fresh {
            0
        } else {
            fs::metadata(path).map_or(0, |m| m.len())
        };
        Follower {
            path: path.to_path_buf(),
            file: None,
            offset,
            skip: usize::from(fresh),
            buf: Vec::new(),
        }
    }

    fn poll(&mut self, at: Duration, out: &mut Vec<Duration>) -> std::io::Result<()> {
        if self.file.is_none() {
            match File::open(&self.path) {
                Ok(f) => self.file = Some(f),
                Err(_) => return Ok(()),
            }
        }
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        let len = file.metadata()?.len();
        // A resume truncates a partial tail; follow it back.
        self.offset = self.offset.min(len);
        if len == self.offset {
            return Ok(());
        }
        file.seek(SeekFrom::Start(self.offset))?;
        self.buf.clear();
        file.by_ref()
            .take(len - self.offset)
            .read_to_end(&mut self.buf)?;
        let Some(last) = self.buf.iter().rposition(|&b| b == b'\n') else {
            return Ok(());
        };
        let lines = self.buf[..=last].iter().filter(|&&b| b == b'\n').count();
        self.offset += last as u64 + 1;
        for _ in 0..lines {
            if self.skip > 0 {
                self.skip -= 1;
            } else {
                out.push(at);
            }
        }
        Ok(())
    }
}

/// One invocation of the `campaign` binary.
struct Leg {
    wall: Duration,
    /// When each new journal record appeared, measured from launch.
    records: Vec<Duration>,
    code: Option<i32>,
    peak_rss_kb: u64,
    workers_seen: usize,
    stderr: String,
}

/// Where a campaign runs: the binary and a scratch directory.
pub struct Setup {
    /// The workspace's `campaign` binary (its `defense_matrix` worker
    /// binary sits beside it).
    pub campaign: PathBuf,
    /// Scratch directory for the journal, report and logs.
    pub dir: PathBuf,
}

impl Setup {
    fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    fn report(&self) -> PathBuf {
        self.dir.join("report.json")
    }

    fn args(&self, extra: &[&str]) -> Vec<String> {
        let mut args: Vec<String> = [EXPERIMENT, "25", "--journal"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push(self.journal().display().to_string());
        args.extend(["--shards", SHARDS, "--out"].iter().map(|s| s.to_string()));
        args.push(self.report().display().to_string());
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    }

    /// Runs one leg, polling the journal for new records and sampling the
    /// supervisor's and workers' peak resident memory until it exits.
    fn leg(&self, args: &[String], fresh: bool) -> Result<Leg, String> {
        let stderr_path = self.dir.join("leg.stderr");
        let stderr = File::create(&stderr_path).map_err(|e| format!("cannot create log: {e}"))?;
        let mut follower = Follower::new(&self.journal(), fresh);
        let launch = Instant::now();
        let mut child = Command::new(&self.campaign)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.campaign.display()))?;
        let pid = child.id();
        let mut records = Vec::new();
        let mut peak_rss_kb = 0;
        let mut workers = Vec::new();
        let mut polls = 0u64;
        let code = loop {
            let status = child
                .try_wait()
                .map_err(|e| format!("waiting on campaign: {e}"))?;
            follower
                .poll(launch.elapsed(), &mut records)
                .map_err(|e| format!("reading journal: {e}"))?;
            if polls.is_multiple_of(8) {
                peak_rss_kb = peak_rss_kb.max(procfs::peak_rss_kb(Some(pid)).unwrap_or(0));
                for w in procfs::children(pid) {
                    if !workers.contains(&w) {
                        workers.push(w);
                    }
                    peak_rss_kb = peak_rss_kb.max(procfs::peak_rss_kb(Some(w)).unwrap_or(0));
                }
            }
            polls += 1;
            if let Some(status) = status {
                break status.code();
            }
            std::thread::sleep(POLL);
        };
        Ok(Leg {
            wall: launch.elapsed(),
            records,
            code,
            peak_rss_kb,
            workers_seen: workers.len(),
            stderr: fs::read_to_string(&stderr_path).unwrap_or_default(),
        })
    }
}

/// One killed-and-resumed campaign.
struct Campaign {
    /// [`speed::factor`] of the gauge readings before, between and after
    /// its legs.
    factor: f64,
    /// The gauge reading between the legs.
    gauge_between: f64,
    /// On-CPU time of the campaign's processes, ms.
    cpu_ms: f64,
    killed: Leg,
    resume: Leg,
    recover_ms: Option<f64>,
    journal_bytes: u64,
    /// Cells missing from the journal or differing from the reference.
    failed: u64,
    report_same: bool,
}

impl Campaign {
    fn rate(&self) -> f64 {
        CELLS as f64
            / (self.killed.wall + self.resume.wall)
                .as_secs_f64()
                .max(1e-9)
    }

    fn legs(&self) -> [&Leg; 2] {
        [&self.killed, &self.resume]
    }
}

/// Recovers the interrupted journal and replays it through the fold, as
/// `campaign --resume` does before spawning workers. Returns the records
/// replayed.
fn recover_and_replay(path: &Path) -> Result<u64, String> {
    let recovered = journal::recover(path).map_err(|e| e.to_string())?;
    let spec = CampaignSpec::for_experiment(EXPERIMENT, TRIALS).ok_or("unknown experiment")?;
    let mut folder = spec.folder();
    for r in &recovered.records {
        folder.push(r.batch, r.trial, &r.payload)?;
    }
    Ok(recovered.records.len() as u64)
}

/// Runs defense-matrix cell `(bi, t)` step by step with layer spans and
/// turns it into the journal payload, as `defense_matrix_trial` does.
fn traced_cell(epoch: Instant, bi: usize, t: u64) -> (Json, TracedTrial) {
    let b = defense_matrix_batches()[bi];
    let seed = BASE_SEED + 7_000_000 + bi as u64 * 10_000 + t;
    let mut opts = TrialOptions::new(seed, Some(defense_matrix_attack(b.attack)));
    opts.defense = b.defense;
    let transport = b.transport_kind();
    let mut rec = Recorder::new(epoch);
    let (trial, (html, sequence)) =
        layers::traced_trial(&mut rec, bi as u64 * TRIALS + t, opts, transport, |tr| {
            (tr.html_outcome(), tr.sequence_success())
        });
    let r = &trial.result;
    let page_ns = match (r.client.page_started_at, r.client.page_completed_at) {
        (Some(a), Some(z)) => z.as_nanos().saturating_sub(a.as_nanos()),
        _ => 0,
    };
    let wire_bytes = match transport {
        TransportKind::Tcp => r.server_tcp.bytes_sent,
        TransportKind::Quic => r.server_tcp.bytes_sent + r.pad_overhead_bytes,
    };
    let field = |k: &str, v: Json| (k.to_string(), v);
    let payload = Json::Obj(vec![
        field(
            "completed",
            Json::Bool(r.outcome == TrialOutcome::Completed),
        ),
        field("serialized", Json::Bool(is_serialized(html.best_degree))),
        field("identified", Json::Bool(html.identified)),
        field("success", Json::Bool(html.success)),
        field("full_ranking", Json::Bool(sequence.iter().all(|ok| *ok))),
        field("wire_bytes", Json::UInt(wire_bytes)),
        field("page_ns", Json::UInt(page_ns)),
    ]);
    let traced = TracedTrial::new(rec.spans, &trial, transport);
    (payload, traced)
}

/// Runs the workload for `seconds` (at least one campaign).
pub fn run(
    setup: &Setup,
    reference: &Reference,
    pinned_report: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let k = kill_cell(seed);
    let killed_args = setup.args(&["--fail-on-crash", "--inject-kill", &format!("trial={k}")]);
    let resume_args = setup.args(&["--resume"]);
    let epoch = Instant::now();
    let plain_until = epoch + Duration::from_secs_f64(if traced { seconds / 3.0 } else { seconds });
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(epoch);
    let mut campaigns: Vec<(Campaign, bool)> = Vec::new();
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    let mut gauge_before = speed::gauge(2, GAUGE_BUDGET);
    let mut cpu_source = procfs::CpuSource::ProcStat;
    while campaigns.is_empty() || Instant::now() < deadline {
        let id = campaigns.len() as u64;
        let trace_this = traced && Instant::now() >= plain_until;
        attempted += CELLS;
        let cpu_before = procfs::process_cpu();
        let one = rec.span("campaign", id, |rec| -> Result<Campaign, String> {
            let _ = fs::remove_file(setup.journal());
            let _ = fs::remove_file(setup.report());
            let killed = rec.span("leg.killed", id, |_| setup.leg(&killed_args, true))?;
            check_killed_status(killed.code)?;
            if killed.records.len() as u64 != k {
                return Err(format!(
                    "killed leg journaled {} records, expected {k}",
                    killed.records.len()
                ));
            }
            let gauge_between = speed::gauge(2, GAUGE_BUDGET);
            let recover_ms = if trace_this {
                let t0 = Instant::now();
                let replayed = rec.span("recover", id, |_| recover_and_replay(&setup.journal()))?;
                if replayed != k {
                    return Err(format!("recovered {replayed} records, expected {k}"));
                }
                Some(t0.elapsed().as_secs_f64() * 1e3)
            } else {
                None
            };
            let resume = rec.span("leg.resume", id, |_| setup.leg(&resume_args, false))?;
            if resume.code != Some(0) {
                return Err(format!(
                    "resume leg exited {:?}: {}",
                    resume.code,
                    resume.stderr.trim()
                ));
            }
            let text = fs::read_to_string(setup.journal()).map_err(|e| format!("journal: {e}"))?;
            let observed: Vec<(usize, u64)> = text
                .lines()
                .skip(1)
                .enumerate()
                .map(|(i, line)| (i, line_digest(line)))
                .collect();
            let missing = CELLS.saturating_sub(observed.len() as u64);
            let differing = count_mismatches(&reference.digests, &observed) as u64;
            let report = fs::read_to_string(setup.report()).unwrap_or_default();
            Ok(Campaign {
                factor: 1.0,
                gauge_between,
                cpu_ms: 0.0,
                killed,
                resume,
                recover_ms,
                journal_bytes: text.len() as u64,
                failed: missing + differing,
                report_same: report == pinned_report,
            })
        });
        let cpu_after = procfs::process_cpu();
        // Each leg runs at the mean of the gauge readings either side of
        // it; the reading between the legs borders both.
        let gauge_after = speed::gauge(2, GAUGE_BUDGET);
        let before = std::mem::replace(&mut gauge_before, gauge_after);
        match one {
            Ok(mut c) => {
                c.factor = speed::factor((before + 2.0 * c.gauge_between + gauge_after) / 4.0);
                let wall_ms = c.legs().iter().map(|l| l.wall.as_secs_f64() * 1e3).sum();
                (c.cpu_ms, cpu_source) = procfs::cpu_delta_ms(
                    cpu_before.map(|t| t.children),
                    cpu_after.map(|t| t.children),
                    wall_ms,
                );
                failed += c.failed;
                correct &= c.failed == 0 && c.report_same;
                if !c.report_same {
                    notes.push(format!(
                        "campaign {id}: report DIFFERS from the pinned report"
                    ));
                }
                campaigns.push((c, trace_this));
            }
            Err(e) => {
                failed += CELLS;
                correct = false;
                notes.push(format!("campaign {id} failed: {e}"));
                break;
            }
        }
    }
    notes.push(format!(
        "{} campaign(s) of {CELLS} cells, killed at cell {k} and resumed; journals checked \
         against {} pinned record digests; {failed} cell(s) failed",
        campaigns.len(),
        reference.digests.len()
    ));
    if campaigns.is_empty() {
        return Outcome {
            attempted,
            failed,
            correct: false,
            metrics: Metrics::end_to_end(),
            notes,
        };
    }
    let mut outcome = Outcome {
        attempted,
        failed,
        correct,
        metrics: Metrics::end_to_end(),
        notes,
    };
    let all: Vec<&Campaign> = campaigns.iter().map(|(c, _)| c).collect();
    if traced {
        layer_metrics(&mut outcome, &campaigns, &rec, seed, epoch, setup);
    } else {
        // Reported at the reference machine speed (see `speed`); the raw
        // figures go to the notes.
        let raw_rates: Vec<f64> = all.iter().map(|c| c.rate()).collect();
        let rates: Vec<f64> = all.iter().map(|c| c.rate() * c.factor).collect();
        let gaps: Vec<f64> = all
            .iter()
            .flat_map(|c| {
                c.legs().into_iter().flat_map(move |leg| {
                    // Records released together from the supervisor's
                    // reorder buffer share one poll and carry no trial time.
                    leg.records
                        .windows(2)
                        .filter(|w| w[1] > w[0])
                        .map(move |w| (w[1] - w[0]).as_secs_f64() * 1e3 / c.factor)
                })
            })
            .collect();
        let cells: usize = all
            .iter()
            .flat_map(|c| c.legs())
            .map(|leg| leg.records.len())
            .sum();
        let raw_cpu: Vec<f64> = all.iter().map(|c| c.cpu_ms / CELLS as f64).collect();
        let cpu: Vec<f64> = all
            .iter()
            .map(|c| c.cpu_ms / CELLS as f64 / c.factor)
            .collect();
        let first_record: Vec<f64> = all
            .iter()
            .filter_map(|c| Some(c.killed.records.first()?.as_secs_f64() / c.factor))
            .collect();
        let run_factor =
            stats::median(&all.iter().map(|c| c.factor).collect::<Vec<_>>()).unwrap_or(1.0);
        let m = &mut outcome.metrics;
        m.set("trials_per_s", stats::median(&rates).unwrap_or(0.0));
        if let Some(p50) = stats::median(&gaps) {
            m.set("trial_ms_p50", p50);
        }
        if let Some(p90) = stats::percentile_with_tail(&gaps, 0.9, 10) {
            m.set("trial_ms_p90", p90);
        }
        m.set("cpu_ms_per_trial", stats::median(&cpu).unwrap_or(0.0));
        if let Some(s) = stats::median(&first_record) {
            m.set("setup_s", s);
        }
        let peak = all
            .iter()
            .flat_map(|c| c.legs())
            .map(|leg| leg.peak_rss_kb)
            .max()
            .unwrap_or(0);
        if peak > 0 {
            m.set("peak_rss_mb", peak as f64 / 1024.0);
        }
        let (q1, q2, q3) = stats::quartiles(&rates).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        outcome.notes.push(format!(
            "{cells} records journaled; campaign trials/s quartiles {q1:.1} / {q2:.1} / \
             {q3:.1}; trial times are journal inter-record gaps; cpu time of the campaign's \
             processes from {cpu_source:?}"
        ));
        outcome.notes.push(format!(
            "host speed: gauge {:.3} against the reference {}; raw trials/s {:.2}, raw \
             cpu_ms_per_trial {:.4}",
            speed::REFERENCE / run_factor,
            speed::REFERENCE,
            stats::median(&raw_rates).unwrap_or(0.0),
            stats::median(&raw_cpu).unwrap_or(0.0)
        ));
    }
    outcome
}

fn layer_metrics(
    outcome: &mut Outcome,
    campaigns: &[(Campaign, bool)],
    rec: &Recorder,
    seed: u64,
    epoch: Instant,
    setup: &Setup,
) {
    let mut m = Metrics::per_layer();
    let traced: Vec<&Campaign> = campaigns
        .iter()
        .filter(|(_, t)| *t)
        .map(|(c, _)| c)
        .collect();
    let plain: Vec<&Campaign> = campaigns
        .iter()
        .filter(|(_, t)| !*t)
        .map(|(c, _)| c)
        .collect();
    let n = traced.len().max(1) as f64;
    let ms = |d: Option<&Duration>| d.map(|d| d.as_secs_f64() * 1e3);
    let median_of = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    m.set(
        "campaign.spawns",
        traced
            .iter()
            .map(|c| (c.killed.workers_seen + c.resume.workers_seen) as f64)
            .sum::<f64>()
            / n,
    );
    let (mut respawns, mut high_water) = (0, 0);
    for leg in traced.iter().flat_map(|c| c.legs()) {
        let (r, h) = parse_leg_stderr(&leg.stderr);
        respawns += r;
        high_water = high_water.max(h);
    }
    m.set("campaign.respawns", respawns as f64 / n);
    m.set("campaign.reorder_max_pending", high_water as f64);
    m.set(
        "campaign.first_record_ms",
        median_of(
            traced
                .iter()
                .filter_map(|c| ms(c.killed.records.first()))
                .collect(),
        ),
    );
    m.set(
        "campaign.resume_ms",
        median_of(
            traced
                .iter()
                .filter_map(|c| ms(c.resume.records.first()))
                .collect(),
        ),
    );
    m.set(
        "campaign.recover_ms",
        median_of(traced.iter().filter_map(|c| c.recover_ms).collect()),
    );
    m.set(
        "campaign.journal_bytes",
        traced.last().map_or(0, |c| c.journal_bytes) as f64,
    );
    let rate = |cs: &[&Campaign]| median_of(cs.iter().map(|c| c.rate()).collect());
    if !plain.is_empty() && !traced.is_empty() {
        m.set("trace.overhead_trials_per_s", rate(&traced) - rate(&plain));
    }

    // Layer spans of the cells themselves: one cell per batch, run in
    // process step by step and checked against the journal's payload.
    let records = journal::recover(&setup.journal()).map(|r| r.records);
    let mut layers = LayerSummary::default();
    let mut differing = 0;
    let mut jsonl = String::new();
    spans::to_jsonl(&rec.spans, 0, &mut jsonl);
    let mut base = rec.spans.len();
    for bi in 0..defense_matrix_batches().len() {
        let t = (seed + bi as u64) % TRIALS;
        let (payload, trial) = traced_cell(epoch, bi, t);
        let cell = (bi as u64 * TRIALS + t) as usize;
        let journaled = records
            .as_ref()
            .ok()
            .and_then(|r| r.get(cell))
            .map(|r| r.payload.to_string_compact());
        if journaled.as_deref() != Some(payload.to_string_compact().as_str()) {
            differing += 1;
        }
        spans::to_jsonl(&trial.spans, base, &mut jsonl);
        base += trial.spans.len();
        layers.add(&trial, true);
    }
    layers.fill(&mut m);
    outcome.attempted += layers.trials();
    outcome.failed += differing;
    m.set("failed_pct", outcome.failed_pct());
    let attributed = layers.attributed_pct();
    outcome.notes.push(format!(
        "traced: {} campaign(s) with leg spans; {} cells run in process step by step, {differing} \
         differ from their journal payload; layer spans cover {attributed:.2}% of the trial \
         spans; spans -> {}",
        traced.len(),
        layers.trials(),
        crate::refs::write_spans("defense_campaign", &jsonl)
    ));
    if differing > 0 || attributed < 95.0 {
        outcome.correct = false;
    }
    outcome.metrics = m;
}

/// Runs one killed-and-resumed campaign at the published kill cell and
/// returns its journal's record digests and its report, for
/// regenerating the pinned reference.
pub fn regenerate(setup: &Setup) -> Result<(Reference, String), String> {
    let _ = fs::remove_file(setup.journal());
    let killed = setup.leg(
        &setup.args(&[
            "--fail-on-crash",
            "--inject-kill",
            &format!("trial={}", kill_cell(0)),
        ]),
        true,
    )?;
    check_killed_status(killed.code)?;
    let resume = setup.leg(&setup.args(&["--resume"]), false)?;
    if resume.code != Some(0) {
        return Err(format!(
            "resume leg exited {:?}: {}",
            resume.code, resume.stderr
        ));
    }
    let text = fs::read_to_string(setup.journal()).map_err(|e| format!("journal: {e}"))?;
    let digests = text.lines().skip(1).map(line_digest).collect();
    let report = fs::read_to_string(setup.report()).map_err(|e| format!("report: {e}"))?;
    Ok((
        Reference {
            workload: "defense_campaign".to_string(),
            base_seed: BASE_SEED,
            digests,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn killed_leg_must_fail_with_the_crash_status() {
        assert_eq!(check_killed_status(Some(1)), Ok(()));
        assert!(check_killed_status(Some(0))
            .unwrap_err()
            .contains("never fired"));
        assert!(check_killed_status(Some(2)).is_err());
        assert!(check_killed_status(Some(101)).is_err());
        assert!(check_killed_status(None).unwrap_err().contains("signal"));
    }

    #[test]
    fn kill_cell_is_200_at_the_default_seed_and_stays_near_it() {
        assert_eq!(kill_cell(0), 200);
        for seed in 0..100 {
            assert!((190..=210).contains(&kill_cell(seed)));
        }
    }

    #[test]
    fn leg_stderr_yields_respawns_and_high_water() {
        let text = "resume: 200 of 500 cells replayed from j.jsonl\n\
                    campaign recovered from failures: 2 respawn(s), 0 stall kill(s), 0 range reassignment(s)\n\
                    campaign done: 300 cells run this invocation, reorder high-water 151, 0 duplicate record(s) dropped\n";
        assert_eq!(parse_leg_stderr(text), (2, 151));
        assert_eq!(parse_leg_stderr(""), (0, 0));
    }
}
