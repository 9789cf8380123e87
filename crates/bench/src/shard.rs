//! `--shard-worker` mode: the campaign runner's child-process side.
//!
//! The `campaign` bin re-invokes an experiment's own bench binary with
//! `--shard-worker --cells A-B` (plus the trial count and any injected
//! faults). [`maybe_worker`] is the first thing those binaries call:
//! when the flag is absent it returns `false` and the binary runs its
//! normal interactive path; when present it runs the assigned cell
//! range and exits the main function via `true`.
//!
//! Protocol (stdout, one checksummed line each, flushed per line so the
//! supervisor's view is current to the last completed cell):
//!
//! 1. `hello` echoing the assigned range,
//! 2. one `record` per cell, in range order — each cell a pure function
//!    of the campaign spec, so any worker (or resume) produces identical
//!    bytes for the same cell,
//! 3. `done`.
//!
//! Injected faults fire *before* the named cell runs: `--inject-kill K`
//! exits with status 101 (a crash, from the supervisor's viewpoint),
//! `--inject-stall K` sleeps far past any heartbeat so the supervisor's
//! stall-kill path is exercised. A broken pipe mid-stream (the
//! supervisor died) is a quiet nonzero exit, not a panic.

use std::io::Write;

use h2priv_campaign::record;
use h2priv_core::campaign::{CampaignExperiment, CampaignSpec};

use crate::{flag_present, flag_value, flag_values, oerror, trials_arg};

/// Exit status a worker uses for an injected kill; anything nonzero
/// reads as a crash to the supervisor.
pub const INJECTED_KILL_EXIT: i32 = 101;

fn parse_cells(spec: &str) -> Option<(u64, u64)> {
    let (a, b) = spec.split_once('-')?;
    let a: u64 = a.parse().ok()?;
    let b: u64 = b.parse().ok()?;
    (a < b).then_some((a, b))
}

fn inject_cells(flag: &str) -> Vec<u64> {
    flag_values(flag)
        .iter()
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                oerror!("error: invalid {flag} {v:?} (expected a cell index)");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Runs the binary's shard-worker mode when `--shard-worker` is on the
/// command line; returns `false` (do the normal thing) otherwise.
///
/// `experiment` is this binary's campaign experiment; its default trial
/// count applies when the supervisor does not pass a count.
pub fn maybe_worker(experiment: &CampaignExperiment) -> bool {
    if !flag_present("--shard-worker") {
        return false;
    }
    let trials = trials_arg(experiment.default_trials);
    let spec = CampaignSpec::for_experiment(experiment.name, trials as u64)
        .expect("campaign experiments have a spec");
    let cells = flag_value("--cells").and_then(|v| parse_cells(&v));
    let Some((start, end)) = cells else {
        oerror!("error: --shard-worker requires --cells A-B (half-open, A < B)");
        std::process::exit(2);
    };
    if end > spec.total_cells() {
        oerror!(
            "error: --cells {start}-{end} exceeds the campaign's {} cells",
            spec.total_cells()
        );
        std::process::exit(2);
    }
    let kills = inject_cells("--inject-kill");
    let stalls = inject_cells("--inject-stall");

    let mut stdout = std::io::stdout().lock();
    let mut emit = |line: String| {
        let write = stdout
            .write_all(line.as_bytes())
            .and_then(|()| stdout.write_all(b"\n"))
            .and_then(|()| stdout.flush());
        if write.is_err() {
            // The supervisor hung up; nothing useful left to do.
            std::process::exit(1);
        }
    };
    emit(record::stamp(&record::hello_body(start, end)));
    for cell in start..end {
        if kills.contains(&cell) {
            std::process::exit(INJECTED_KILL_EXIT);
        }
        if stalls.contains(&cell) {
            // Hang until the supervisor's heartbeat timeout kills us.
            std::thread::sleep(std::time::Duration::from_secs(3_600));
        }
        let (batch, trial) = spec.cell(cell);
        let payload = spec.run_cell(batch, trial);
        emit(record::stamp(&record::record_body(
            cell, batch, trial, payload,
        )));
    }
    emit(record::stamp(&record::done_body(end - start)));
    true
}
