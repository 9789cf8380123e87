//! `--shard-worker` mode: the campaign runner's child-process side.
//!
//! The `campaign` bin re-invokes itself with the same experiment and
//! trial count plus `--shard-worker --cells A-B --step S` (and any
//! injected faults); [`worker`] then runs cells `A, A + S, …` below `B`
//! and returns. `S` is the supervisor's slot count, so the slots'
//! workers together cover the range.
//!
//! Protocol (stdout, one checksummed line each, flushed per line so the
//! supervisor's view is current to the last completed cell):
//!
//! 1. `hello` echoing `A` and `B`,
//! 2. one `record` per cell, in stride order — each cell a pure function
//!    of the campaign spec, so any worker (or resume) produces identical
//!    bytes for the same cell,
//! 3. `done` with the number of cells run.
//!
//! Injected faults fire *before* the named cell runs: `--inject-kill K`
//! exits with status 101 (a crash, from the supervisor's viewpoint),
//! `--inject-stall K` sleeps far past any heartbeat so the supervisor's
//! stall-kill path is exercised. A broken pipe mid-stream (the
//! supervisor died) is a quiet nonzero exit, not a panic.

use std::io::Write;

use h2priv_campaign::record;
use h2priv_core::campaign::CampaignSpec;

use crate::{flag_u64, flag_value, flag_values, oerror};

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

/// Runs cells `A, A + S, …` below `B` of `spec` (`--cells A-B --step
/// S`, `S` 1 when absent), streaming one record per cell to stdout.
pub fn worker(spec: &CampaignSpec) {
    let cells = flag_value("--cells").and_then(|v| parse_cells(&v));
    let Some((start, end)) = cells else {
        oerror!("error: --shard-worker requires --cells A-B (half-open, A < B)");
        std::process::exit(2);
    };
    let step = flag_u64("--step", 1);
    let Some(step) = usize::try_from(step).ok().filter(|&s| s > 0) else {
        oerror!("error: invalid --step {step} (expected a positive cell stride)");
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
    let mut ran = 0;
    for cell in (start..end).step_by(step) {
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
        ran += 1;
    }
    emit(record::stamp(&record::done_body(ran)));
}
