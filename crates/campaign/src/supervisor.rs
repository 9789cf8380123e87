//! The shard supervisor: spawns worker processes over interleaved cell
//! assignments, enforces heartbeats, respawns crashed workers with
//! bounded backoff, reassigns the cells of permanently dead shards, and
//! releases records to the caller strictly in global cell order.
//!
//! Topology: `shards` slots, each running at most one child process at a
//! time over one assignment `(start, end, step)`, the cells `start,
//! start + step, …` below `end`. The remaining cells are dealt round-robin
//! up front: with `n` slots, slot `i` runs cells `start + i, start + i + n,
//! …`, so every slot feeds the journal's frontier at once and the reorder
//! buffer holds only the skew between them. A slot that finishes early
//! pulls the next queued assignment (a retired shard's unfinished cells
//! re-enter the queue with their step). One reader thread per child
//! forwards stdout lines to the supervisor over a channel, tagged with a
//! per-slot generation counter so lines from a killed child cannot be
//! attributed to its replacement.
//!
//! Failure policy, in the order checks apply when a worker dies:
//!
//! 1. **Poisoned range** — the slot's first missing cell has now crashed
//!    a worker [`SupervisorConfig::max_cell_attempts`] times; the
//!    campaign fails with [`SupervisorError::PoisonedRange`] naming the
//!    unfinished cells. Retrying forever would never converge.
//! 2. **Fail-on-crash** — with [`SupervisorConfig::fail_on_crash`], the
//!    first crash stops all new work. The supervisor drains the other
//!    workers until every cell below the lowest crashed one is journaled,
//!    then kills them and aborts ([`SupervisorError::CrashAborted`]), so
//!    the journal is exactly the prefix before that cell at any shard
//!    count; the resume tests and the verify gate use this to stop a
//!    campaign at an exact injected point.
//! 3. **Retire** — the slot exhausted its respawn budget; its unfinished
//!    cells go back on the queue for a surviving slot. If every slot is
//!    retired, [`SupervisorError::AllShardsDead`].
//! 4. **Respawn** — otherwise the slot restarts its unfinished cells
//!    after a [`backoff`](crate::backoff) delay (non-blocking: other
//!    slots keep streaming while one waits out its backoff).
//!
//! A worker that stops emitting lines for longer than the heartbeat
//! timeout (e.g. an injected stall) is killed and handled exactly like a
//! crash.

use std::collections::{HashMap, VecDeque};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::backoff::respawn_delay_ms;
use crate::inject::{InjectKind, InjectSchedule};
use crate::order::OrderedSink;
use crate::record::{self, LineBody};

/// How a worker process is launched; the supervisor appends
/// `--cells A-B --step S` and any `--inject-*` flags per spawn.
#[derive(Debug, Clone)]
pub struct WorkerCmd {
    /// Path to the worker binary.
    pub program: PathBuf,
    /// Base arguments common to every spawn.
    pub args: Vec<String>,
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Number of shard slots (concurrent worker processes).
    pub shards: usize,
    /// Kill a worker that has been silent this long.
    pub heartbeat: Duration,
    /// Respawns a single slot may consume before it is retired and its
    /// unfinished cells are reassigned.
    pub max_respawns_per_slot: u32,
    /// Crashes attributable to the same first-missing cell before the
    /// campaign fails with a poisoned-range error.
    pub max_cell_attempts: u32,
    /// Stop the campaign at the first worker crash instead of
    /// respawning, once every cell below the crashed one is journaled
    /// (used to stop exactly at an injected kill).
    pub fail_on_crash: bool,
    /// Seed for the deterministic respawn backoff schedule.
    pub backoff_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 1,
            heartbeat: Duration::from_millis(10_000),
            max_respawns_per_slot: 3,
            max_cell_attempts: 3,
            fail_on_crash: false,
            backoff_seed: 0,
        }
    }
}

/// Counters describing what a campaign run had to do.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Records released to the caller (cells newly completed).
    pub cells_run: u64,
    /// Worker respawns after crashes or stalls.
    pub respawns: u64,
    /// Workers killed for missing the heartbeat.
    pub stall_kills: u64,
    /// Assignments reassigned from a retired slot to survivors.
    pub reassigned_ranges: u64,
    /// Duplicate records dropped by the ordering sink.
    pub duplicates_dropped: u64,
    /// High-water mark of the reorder buffer.
    pub max_pending: usize,
}

/// Why a campaign run failed.
#[derive(Debug)]
pub enum SupervisorError {
    /// Filesystem/process-management failure.
    Io(std::io::Error),
    /// A worker violated the line protocol (bad checksum, out-of-range
    /// cell, unexpected kind).
    Protocol {
        /// Slot the offending worker ran on.
        shard: usize,
        /// What it did wrong.
        message: String,
    },
    /// The record sink (journal append / fold) rejected a record.
    Sink(String),
    /// Cells `start, start + step, …` below `end` cannot make progress:
    /// the first of them has crashed a worker `attempts` times.
    PoisonedRange {
        /// First unfinished (and repeatedly crashing) cell.
        start: u64,
        /// End of the unfinished cells (exclusive).
        end: u64,
        /// Distance between the unfinished cells.
        step: u64,
        /// Crash count attributed to `start`.
        attempts: u32,
    },
    /// Every slot exhausted its respawn budget with work remaining.
    AllShardsDead {
        /// Cells still unfinished when the last slot retired.
        remaining: u64,
    },
    /// `fail_on_crash` was set and a worker crashed.
    CrashAborted {
        /// Slot whose worker crashed at `cell`.
        shard: usize,
        /// The lowest cell a crashed worker left unfinished. Every cell
        /// below it was journaled first, unless no worker was left to run
        /// them.
        cell: u64,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Io(e) => write!(f, "campaign I/O error: {e}"),
            SupervisorError::Protocol { shard, message } => {
                write!(f, "protocol violation from shard {shard}: {message}")
            }
            SupervisorError::Sink(message) => write!(f, "record sink error: {message}"),
            SupervisorError::PoisonedRange {
                start,
                end,
                step,
                attempts,
            } => write!(
                f,
                "poisoned trial range: cells {start}..{end}{} cannot complete \
                 (cell {start} crashed its worker {attempts} times)",
                step_suffix(*step)
            ),
            SupervisorError::AllShardsDead { remaining } => write!(
                f,
                "all shards exhausted their respawn budget with {remaining} cells unfinished"
            ),
            SupervisorError::CrashAborted { shard, cell } => write!(
                f,
                "worker on shard {shard} crashed before cell {cell} (fail-on-crash set)"
            ),
        }
    }
}

impl From<std::io::Error> for SupervisorError {
    fn from(e: std::io::Error) -> Self {
        SupervisorError::Io(e)
    }
}

enum Event {
    Line { slot: usize, gen: u64, line: String },
    Eof { slot: usize, gen: u64 },
}

#[derive(Debug, PartialEq)]
enum SlotState {
    Idle,
    Running,
    Backoff { until: Instant },
    Retired,
}

struct Slot {
    state: SlotState,
    gen: u64,
    respawns_used: u32,
    child: Option<Child>,
    /// Current assignment; kept through Backoff.
    cells: Option<Assignment>,
    /// First cell not yet received from the current worker.
    next_cell: u64,
    last_seen: Instant,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: SlotState::Idle,
            gen: 0,
            respawns_used: 0,
            child: None,
            cells: None,
            next_cell: 0,
            last_seen: Instant::now(),
        }
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A worker's cells: `start, start + step, …` below `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assignment {
    pub(crate) start: u64,
    pub(crate) end: u64,
    /// The slot count the cells were dealt over; at least 1.
    pub(crate) step: u64,
}

impl Assignment {
    fn cell_count(&self) -> u64 {
        (self.end - self.start).div_ceil(self.step)
    }

    pub(crate) fn contains(&self, cell: u64) -> bool {
        (self.start..self.end).contains(&cell) && (cell - self.start).is_multiple_of(self.step)
    }
}

impl std::fmt::Display for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}{}", self.start, self.end, step_suffix(self.step))
    }
}

/// How an error names a step: nothing for consecutive cells.
fn step_suffix(step: u64) -> String {
    if step == 1 {
        String::new()
    } else {
        format!(" step {step}")
    }
}

/// Deals `[start, end)` round-robin over up to `slots` assignments:
/// assignment `i` of `n` holds cells `start + i, start + i + n, …`, so
/// every cell lands in exactly one, and none is empty.
fn deal(start: u64, end: u64, slots: usize) -> VecDeque<Assignment> {
    let n = (slots as u64).min(end - start);
    (0..n)
        .map(|i| Assignment {
            start: start + i,
            end,
            step: n,
        })
        .collect()
}

/// Runs the campaign's remaining cells `[start_cell, total_cells)`
/// across supervised workers, invoking `on_record(cell, raw_line, body)`
/// strictly in cell order exactly once per cell.
///
/// # Errors
/// See [`SupervisorError`]; on any error, all live workers are killed
/// first, and anything already passed to `on_record` remains valid (the
/// journal keeps its good prefix).
pub fn run<F>(
    cfg: &SupervisorConfig,
    cmd: &WorkerCmd,
    start_cell: u64,
    total_cells: u64,
    inject: &mut InjectSchedule,
    mut on_record: F,
) -> Result<RunStats, SupervisorError>
where
    F: FnMut(u64, &str, &LineBody) -> Result<(), String>,
{
    if start_cell >= total_cells {
        return Ok(RunStats::default());
    }
    let slots = cfg.shards.max(1);
    let mut run = Run {
        cfg,
        total_cells,
        stats: RunStats::default(),
        slots: (0..slots).map(|_| Slot::new()).collect(),
        queue: deal(start_cell, total_cells, slots),
        sink: OrderedSink::new(start_cell),
        attempts: HashMap::new(),
        crashed: None,
    };
    let (tx, rx) = mpsc::channel();
    let result = run.drive(cmd, inject, &mut on_record, &tx, &rx);
    for slot in &mut run.slots {
        slot.reap();
    }
    run.stats.duplicates_dropped = run.sink.duplicates_dropped();
    run.stats.max_pending = run.sink.max_pending();
    result.map(|()| run.stats)
}

/// The state of one [`run`].
struct Run<'a> {
    cfg: &'a SupervisorConfig,
    total_cells: u64,
    stats: RunStats,
    slots: Vec<Slot>,
    queue: VecDeque<Assignment>,
    sink: OrderedSink<(String, LineBody)>,
    attempts: HashMap<u64, u32>,
    /// Under fail-on-crash, the slot and first missing cell of the
    /// lowest crash so far: once set, no work is handed out, and the run
    /// aborts when the journal reaches that cell.
    crashed: Option<(usize, u64)>,
}

impl Run<'_> {
    fn drive<F>(
        &mut self,
        cmd: &WorkerCmd,
        inject: &mut InjectSchedule,
        on_record: &mut F,
        tx: &mpsc::Sender<Event>,
        rx: &mpsc::Receiver<Event>,
    ) -> Result<(), SupervisorError>
    where
        F: FnMut(u64, &str, &LineBody) -> Result<(), String>,
    {
        let tick = Duration::from_millis(10);
        loop {
            if let Some((shard, cell)) = self.crashed {
                // Drained: every cell below the crash is journaled, or no
                // worker is left that could run one.
                let running = self.slots.iter().any(|s| s.state == SlotState::Running);
                if self.sink.next_index() >= cell || !running {
                    return Err(SupervisorError::CrashAborted { shard, cell });
                }
            } else {
                // Assign work: idle slots pull queued assignments; slots
                // whose backoff expired restart their own unfinished cells.
                for (s, slot) in self.slots.iter_mut().enumerate() {
                    let start_own = match slot.state {
                        SlotState::Backoff { until } if Instant::now() >= until => true,
                        SlotState::Idle => {
                            slot.cells = self.queue.pop_front();
                            slot.cells.is_some()
                        }
                        _ => false,
                    };
                    if start_own {
                        spawn_worker(cmd, inject, slot, s, tx)?;
                    }
                }
            }

            if self.sink.next_index() >= self.total_cells {
                return Ok(());
            }

            // Stuck detector: nothing running, nothing waiting to run, yet
            // cells remain — a logic error, not a worker failure.
            let anyone_active = self
                .slots
                .iter()
                .any(|s| matches!(s.state, SlotState::Running | SlotState::Backoff { .. }));
            if !anyone_active && self.queue.is_empty() {
                return Err(SupervisorError::Protocol {
                    shard: 0,
                    message: format!(
                        "no active workers but {} cells unfinished",
                        self.total_cells - self.sink.next_index()
                    ),
                });
            }

            match rx.recv_timeout(tick) {
                Ok(Event::Line { slot, gen, line }) => {
                    if gen == self.slots[slot].gen && self.slots[slot].state == SlotState::Running {
                        self.handle_line(on_record, slot, &line)?;
                    }
                }
                Ok(Event::Eof { slot, gen }) => {
                    if gen == self.slots[slot].gen && self.slots[slot].state == SlotState::Running {
                        self.handle_crash(slot)?;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor holds a sender")
                }
            }

            // Heartbeat sweep.
            for s in 0..self.slots.len() {
                let slot = &mut self.slots[s];
                if slot.state == SlotState::Running && slot.last_seen.elapsed() > self.cfg.heartbeat
                {
                    self.stats.stall_kills += 1;
                    slot.gen += 1; // orphan the reader before killing
                    slot.reap();
                    self.handle_crash(s)?;
                }
            }
        }
    }

    fn handle_line<F>(
        &mut self,
        on_record: &mut F,
        s: usize,
        line: &str,
    ) -> Result<(), SupervisorError>
    where
        F: FnMut(u64, &str, &LineBody) -> Result<(), String>,
    {
        let protocol = |message: String| SupervisorError::Protocol { shard: s, message };
        let body = record::parse_line(line).map_err(protocol)?;
        let slot = &mut self.slots[s];
        slot.last_seen = Instant::now();
        let cells = slot.cells.expect("running slot has an assignment");
        match body {
            LineBody::Hello { start, end } => {
                if (start, end) != (cells.start, cells.end) {
                    return Err(protocol(format!(
                        "hello claims cells {start}-{end}, assigned {cells}"
                    )));
                }
            }
            LineBody::Record { cell, .. } => {
                if cell != slot.next_cell || cell >= cells.end {
                    return Err(protocol(format!(
                        "record for cell {cell}, expected {} of {cells}",
                        slot.next_cell
                    )));
                }
                slot.next_cell = cell + cells.step;
                if cell >= self.total_cells {
                    return Err(protocol(format!("cell {cell} beyond campaign end")));
                }
                for (index, (raw, decoded)) in
                    self.sink.push(cell, (line.to_string(), body.clone()))
                {
                    on_record(index, &raw, &decoded).map_err(SupervisorError::Sink)?;
                    self.stats.cells_run += 1;
                }
            }
            LineBody::Done { cells: done } => {
                if slot.next_cell < cells.end {
                    return Err(protocol(format!(
                        "done before cell {} of {cells}",
                        slot.next_cell
                    )));
                }
                if done != cells.cell_count() {
                    return Err(protocol(format!(
                        "done reports {done} cells, {cells} has {}",
                        cells.cell_count()
                    )));
                }
                slot.reap();
                slot.cells = None;
                slot.state = SlotState::Idle;
            }
            LineBody::Header { .. } => {
                return Err(protocol("worker sent a header line".to_string()));
            }
        }
        Ok(())
    }

    fn handle_crash(&mut self, s: usize) -> Result<(), SupervisorError> {
        let slot = &mut self.slots[s];
        slot.reap();
        let cells = slot.cells.take().expect("crashed slot has an assignment");
        slot.state = SlotState::Idle;
        let first_missing = slot.next_cell;
        if first_missing >= cells.end {
            // Crashed after emitting every assigned cell but before Done —
            // the work is all in hand, so treat the assignment as complete.
            return Ok(());
        }
        let rest = Assignment {
            start: first_missing,
            ..cells
        };

        let cell_attempts = self.attempts.entry(first_missing).or_insert(0);
        *cell_attempts += 1;
        if *cell_attempts >= self.cfg.max_cell_attempts {
            return Err(SupervisorError::PoisonedRange {
                start: rest.start,
                end: rest.end,
                step: rest.step,
                attempts: *cell_attempts,
            });
        }
        if self.cfg.fail_on_crash {
            // Drain: the crash with the lowest cell names the abort.
            if self.crashed.is_none_or(|(_, cell)| first_missing < cell) {
                self.crashed = Some((s, first_missing));
            }
            return Ok(());
        }
        if slot.respawns_used >= self.cfg.max_respawns_per_slot {
            slot.state = SlotState::Retired;
            self.queue.push_back(rest);
            self.stats.reassigned_ranges += 1;
            if self.slots.iter().all(|sl| sl.state == SlotState::Retired) {
                return Err(SupervisorError::AllShardsDead {
                    remaining: self.total_cells - self.sink.next_index(),
                });
            }
            return Ok(());
        }
        slot.respawns_used += 1;
        self.stats.respawns += 1;
        let delay = respawn_delay_ms(self.cfg.backoff_seed, s as u64, slot.respawns_used);
        slot.cells = Some(rest);
        slot.state = SlotState::Backoff {
            until: Instant::now() + Duration::from_millis(delay),
        };
        Ok(())
    }
}

fn spawn_worker(
    cmd: &WorkerCmd,
    inject: &mut InjectSchedule,
    slot: &mut Slot,
    index: usize,
    tx: &mpsc::Sender<Event>,
) -> Result<(), SupervisorError> {
    let cells = slot.cells.expect("spawn_worker needs an assignment");
    let mut command = Command::new(&cmd.program);
    command
        .args(&cmd.args)
        .arg("--cells")
        .arg(format!("{}-{}", cells.start, cells.end))
        .arg("--step")
        .arg(cells.step.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for (kind, cell) in inject.take(index, &cells) {
        let flag = match kind {
            InjectKind::Kill => "--inject-kill",
            InjectKind::Stall => "--inject-stall",
        };
        command.arg(flag).arg(cell.to_string());
    }
    let mut child = command.spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    slot.gen += 1;
    slot.child = Some(child);
    slot.next_cell = cells.start;
    slot.last_seen = Instant::now();
    slot.state = SlotState::Running;

    let gen = slot.gen;
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(stdout);
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    // A partial final line (no newline) is the residue of
                    // a crash mid-write; drop it and let Eof report.
                    if buf.ends_with('\n') {
                        let line = buf.trim_end_matches('\n').to_string();
                        if tx
                            .send(Event::Line {
                                slot: index,
                                gen,
                                line,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            }
        }
        let _ = tx.send(Event::Eof { slot: index, gen });
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assigned(start: u64, end: u64, step: u64) -> Assignment {
        Assignment { start, end, step }
    }

    const SPANS: [(u64, u64, usize); 6] = [
        (0, 12, 4),
        (3, 10, 2),
        (0, 5, 8),
        (7, 8, 3),
        (0, 500, 2),
        (200, 500, 3),
    ];

    #[test]
    fn deal_puts_each_cell_in_exactly_one_assignment() {
        for (start, end, shards) in SPANS {
            let dealt = deal(start, end, shards);
            for cell in start..end {
                let holders = dealt.iter().filter(|a| a.contains(cell)).count();
                assert_eq!(holders, 1, "cell {cell} of {start}..{end} over {shards}");
            }
            let total: u64 = dealt.iter().map(Assignment::cell_count).sum();
            assert_eq!(total, end - start);
        }
    }

    #[test]
    fn deal_balances_within_one_cell() {
        let counts: Vec<u64> = deal(0, 10, 3).iter().map(Assignment::cell_count).collect();
        assert_eq!(counts, [4, 3, 3]);
    }

    #[test]
    fn slot_i_runs_the_cells_congruent_to_start_plus_i() {
        for (start, end, shards) in SPANS {
            let dealt = deal(start, end, shards);
            let n = dealt.len() as u64;
            for (i, a) in dealt.iter().enumerate() {
                assert_eq!((a.start, a.end, a.step), (start + i as u64, end, n));
                for cell in start..end {
                    assert_eq!(a.contains(cell), (cell - start) % n == i as u64);
                }
            }
        }
    }

    #[test]
    fn more_shards_than_cells_leaves_no_assignment_empty() {
        assert_eq!(
            deal(0, 3, 8),
            [assigned(0, 3, 3), assigned(1, 3, 3), assigned(2, 3, 3)]
        );
        for (start, end, shards) in SPANS {
            let dealt = deal(start, end, shards);
            assert_eq!(dealt.len() as u64, (shards as u64).min(end - start));
            assert!(dealt.iter().all(|a| a.cell_count() > 0));
        }
    }

    #[test]
    fn one_shard_deals_the_whole_range_in_order() {
        assert_eq!(deal(3, 10, 1), [assigned(3, 10, 1)]);
        assert_eq!(deal(200, 500, 1), [assigned(200, 500, 1)]);
    }

    #[test]
    fn errors_name_the_step_when_it_is_not_1() {
        assert_eq!(assigned(3, 10, 1).to_string(), "3-10");
        assert_eq!(assigned(1, 10, 2).to_string(), "1-10 step 2");
        let poisoned = |step| {
            SupervisorError::PoisonedRange {
                start: 3,
                end: 6,
                step,
                attempts: 3,
            }
            .to_string()
        };
        assert!(poisoned(1).contains("cells 3..6 cannot"), "{}", poisoned(1));
        assert!(
            poisoned(2).contains("cells 3..6 step 2 cannot"),
            "{}",
            poisoned(2)
        );
    }

    #[test]
    fn empty_campaign_returns_immediately() {
        let cfg = SupervisorConfig::default();
        let cmd = WorkerCmd {
            program: PathBuf::from("/nonexistent"),
            args: vec![],
        };
        let stats = run(&cfg, &cmd, 5, 5, &mut InjectSchedule::new(), |_, _, _| {
            panic!("no records expected")
        })
        .unwrap();
        assert_eq!(stats.cells_run, 0);
    }

    #[test]
    fn unspawnable_worker_reports_io_error() {
        let cfg = SupervisorConfig::default();
        let cmd = WorkerCmd {
            program: PathBuf::from("/nonexistent/worker/binary"),
            args: vec![],
        };
        let err = run(&cfg, &cmd, 0, 4, &mut InjectSchedule::new(), |_, _, _| {
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SupervisorError::Io(_)), "{err}");
    }
}
