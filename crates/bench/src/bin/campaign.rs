//! Crash-safe sharded campaign runner.
//!
//! Shards a registered experiment's `(batch, trial)` space across
//! supervised worker processes (this binary again, in `--shard-worker`
//! mode), streams per-trial results into an append-only checksummed
//! journal, and folds the final report incrementally in global cell
//! order — so the journal and the report are **byte-identical at any
//! shard count and across any kill/resume schedule**.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin campaign -- \
//!     <experiment> [trials] --journal camp.jsonl \
//!     [--out report.json] [--shards N] [--resume] \
//!     [--heartbeat-ms N] [--max-respawns N] [--fail-on-crash] \
//!     [--inject-kill shard=N,trial=K[,repeat]] [--inject-stall ...] [--quiet]
//! ```
//!
//! With `N` shards, worker `i` runs cell `s + i` and every `N`-th cell
//! after it, `s` being the first cell left to run, so
//! `--inject-kill shard=i,trial=K` fires only for a `K` that worker runs.
//!
//! `--resume` recovers the journal (dropping a truncated final line),
//! replays its completed trials into the fold, and re-executes only the
//! missing cells. `--fail-on-crash` stops at the first worker crash
//! instead of respawning: it hands out no more work, lets the other
//! workers finish every cell below the crashed one, and then aborts, so
//! with `--inject-kill trial=K` the journal holds exactly cells `0..K`
//! at any shard count. That is how the resume tests and
//! `scripts/verify.sh` exercise the recovery path.

use std::time::Duration;

use h2priv_bench::{
    experiment_arg, flag_present, flag_u64, flag_value, flag_values, obs, odetail, oerror, oinfo,
    out, owarn, shard,
};
use h2priv_campaign::inject::{InjectKind, InjectSchedule, InjectSpec};
use h2priv_campaign::journal::{self, Journal};
use h2priv_campaign::record::{self, LineBody};
use h2priv_campaign::supervisor::{self, SupervisorConfig, WorkerCmd};
use h2priv_core::campaign::CampaignSpec;

/// Crashes attributable to one cell before the range is declared
/// poisoned.
const MAX_CELL_ATTEMPTS: u32 = 3;

fn usage_exit() -> ! {
    oerror!(
        "usage: campaign <experiment> [trials] --journal FILE [--out FILE] [--shards N] \
         [--resume] [--heartbeat-ms N] [--max-respawns N] [--fail-on-crash] \
         [--inject-kill shard=N,trial=K[,repeat]] [--inject-stall ...] [--quiet]"
    );
    std::process::exit(2)
}

fn fail(message: &str) -> ! {
    oerror!("error: {message}");
    std::process::exit(1)
}

fn parse_injections() -> InjectSchedule {
    let mut schedule = InjectSchedule::new();
    for (flag, kind) in [
        ("--inject-kill", InjectKind::Kill),
        ("--inject-stall", InjectKind::Stall),
    ] {
        for raw in flag_values(flag) {
            match InjectSpec::parse(&raw) {
                Ok(spec) => schedule.add(kind, spec),
                Err(e) => {
                    oerror!("error: {flag} {raw:?}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    schedule
}

fn main() {
    let _o = obs::init();
    let entry = experiment_arg(1);
    let default_trials = entry.default_trials;
    let trials = h2priv_bench::count_arg(
        2,
        "trials",
        default_trials as u64,
        &format!("<experiment> [trials={default_trials}] --journal FILE ..."),
    );
    let spec = CampaignSpec::new(entry, trials);
    if flag_present("--shard-worker") {
        shard::worker(&spec);
        return;
    }
    let Some(journal_path) = flag_value("--journal") else {
        oerror!("error: --journal FILE is required (the append-only trial journal)");
        usage_exit();
    };
    let journal_path = std::path::PathBuf::from(journal_path);
    let out_path = flag_value("--out");
    let shards = match flag_u64("--shards", 0) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n as usize,
    };
    let resume = flag_present("--resume");
    let mut inject = parse_injections();

    let total = spec.total_cells();
    let mut folder = spec.folder();
    let header_line = record::stamp(&record::header_body(&spec.header_fields()));

    // Open (or recover) the journal and bring the fold up to date.
    let mut journal = if resume {
        let recovered = match journal::recover(&journal_path) {
            Ok(r) => r,
            Err(e) => fail(&format!("cannot resume {}: {e}", journal_path.display())),
        };
        let expected = record::header_body(&spec.header_fields());
        if recovered.header != expected {
            fail(&format!(
                "journal {} belongs to a different campaign (header {}, expected {})",
                journal_path.display(),
                recovered.header.to_string_compact(),
                expected.to_string_compact()
            ));
        }
        if recovered.dropped_tail > 0 {
            owarn!(
                "journal: dropping {} bytes of partial final line (crash residue)",
                recovered.dropped_tail
            );
        }
        if let Err(e) = journal::truncate_to(&journal_path, recovered.good_bytes) {
            fail(&format!("cannot truncate journal: {e}"));
        }
        for r in &recovered.records {
            if let Err(e) = folder.push(r.batch, r.trial, &r.payload) {
                fail(&format!("journal replay: {e}"));
            }
        }
        odetail!(
            "resume: {} of {total} cells replayed from {}",
            recovered.records.len(),
            journal_path.display()
        );
        match Journal::open_append(&journal_path) {
            Ok(j) => j,
            Err(e) => fail(&format!("cannot reopen journal: {e}")),
        }
    } else {
        match Journal::create(&journal_path, &header_line) {
            Ok(j) => j,
            Err(e) => fail(&format!(
                "cannot create journal {}: {e}",
                journal_path.display()
            )),
        }
    };

    let start_cell = folder.next_cell();
    let worker_program = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate the campaign binary: {e}")));
    let cmd = WorkerCmd {
        program: worker_program,
        args: vec![
            entry.name.to_string(),
            trials.to_string(),
            "--shard-worker".to_string(),
        ],
    };
    let cfg = SupervisorConfig {
        shards,
        heartbeat: Duration::from_millis(flag_u64("--heartbeat-ms", 10_000)),
        max_respawns_per_slot: flag_u64("--max-respawns", 3) as u32,
        max_cell_attempts: MAX_CELL_ATTEMPTS,
        fail_on_crash: flag_present("--fail-on-crash"),
        backoff_seed: entry.base_seed,
    };

    odetail!(
        "campaign {}: {total} cells ({} batches x {trials} trials), \
         {} to run, {shards} shard(s)",
        entry.name,
        spec.batches,
        total - start_cell
    );

    let stats = supervisor::run(
        &cfg,
        &cmd,
        start_cell,
        total,
        &mut inject,
        |_cell, raw, body| {
            let LineBody::Record {
                batch,
                trial,
                payload,
                ..
            } = body
            else {
                return Err("non-record line reached the journal".to_string());
            };
            journal
                .append_line(raw)
                .map_err(|e| format!("journal append: {e}"))?;
            folder.push(*batch, *trial, payload)
        },
    );
    let stats = match stats {
        Ok(s) => s,
        Err(e) => fail(&format!("campaign failed: {e}")),
    };

    if stats.respawns > 0 || stats.stall_kills > 0 || stats.reassigned_ranges > 0 {
        owarn!(
            "campaign recovered from failures: {} respawn(s), {} stall kill(s), \
             {} range reassignment(s)",
            stats.respawns,
            stats.stall_kills,
            stats.reassigned_ranges
        );
    }
    odetail!(
        "campaign done: {} cells run this invocation, reorder high-water {}, \
         {} duplicate record(s) dropped",
        stats.cells_run,
        stats.max_pending,
        stats.duplicates_dropped
    );

    let report = match folder.finish() {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    match out_path {
        Some(path) => {
            out::write_result_file(&path, &report);
            oinfo!("campaign: report -> {path}");
        }
        None => out::stdout_str(&report),
    }
}
