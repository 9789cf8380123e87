//! Deterministic crash-injection schedules.
//!
//! `--inject-kill shard=1,trial=13` tells the supervisor: when (a worker
//! on) shard 1 is about to execute global cell 13, make it die there.
//! `shard=N` addresses a cell in slot N's residue class: with `n` slots
//! dealt over `[start, end)`, slot N runs cells `start + N, start + N + n,
//! …`, so an entry for a cell that slot N never runs stays unfired.
//! The supervisor does not reach into the child — at spawn time it scans
//! the schedule for entries matching the worker's shard and assigned
//! cells and passes them down as bare `--inject-kill 13` worker flags;
//! the worker then calls `process::exit(101)` immediately before running
//! that cell (or, for `--inject-stall`, sleeps until the heartbeat
//! timeout kills it).
//!
//! Entries are one-shot by default — consumed at the spawn that carries
//! them, so the respawned worker completes its cells and the campaign
//! converges. A `repeat` entry is never consumed: every (re)spawn
//! covering the cell inherits the injection, which is how the
//! poisoned-range policy test manufactures a cell that *always* crashes
//! its worker.

use crate::supervisor::Assignment;

/// What the injected fault does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Worker exits with a nonzero status immediately before the cell.
    Kill,
    /// Worker hangs before the cell until the heartbeat timeout fires.
    Stall,
}

/// One parsed injection entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectSpec {
    /// Restrict the injection to this shard slot; `None` matches any.
    pub shard: Option<usize>,
    /// Global cell index the fault fires at.
    pub cell: u64,
    /// Re-arm on every spawn instead of firing once.
    pub repeat: bool,
}

impl InjectSpec {
    /// Parses `shard=N,trial=K[,repeat]`; `trial=K` alone (or a bare
    /// `K`) matches any shard.
    ///
    /// # Errors
    /// Reports unknown keys, non-numeric values and a missing `trial`.
    pub fn parse(s: &str) -> Result<InjectSpec, String> {
        let mut shard = None;
        let mut cell = None;
        let mut repeat = false;
        for part in s.split(',') {
            let part = part.trim();
            if part == "repeat" {
                repeat = true;
            } else if let Some(v) = part.strip_prefix("shard=") {
                shard = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad shard number `{v}`"))?,
                );
            } else if let Some(v) = part.strip_prefix("trial=") {
                cell = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad trial number `{v}`"))?,
                );
            } else if let Ok(v) = part.parse::<u64>() {
                cell = Some(v);
            } else {
                return Err(format!(
                    "bad injection spec `{part}` (expected shard=N,trial=K[,repeat])"
                ));
            }
        }
        let cell = cell.ok_or("injection spec needs a trial=K (or bare K)")?;
        Ok(InjectSpec {
            shard,
            cell,
            repeat,
        })
    }
}

struct Entry {
    kind: InjectKind,
    spec: InjectSpec,
    used: bool,
}

/// A mutable schedule of pending injections, consumed at worker spawn.
#[derive(Default)]
pub struct InjectSchedule {
    entries: Vec<Entry>,
}

impl InjectSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry to the schedule.
    pub fn add(&mut self, kind: InjectKind, spec: InjectSpec) {
        self.entries.push(Entry {
            kind,
            spec,
            used: false,
        });
    }

    /// True when no entries were ever added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Collects the injections a worker spawned on `shard` over `cells`
    /// must carry, consuming one-shot entries. Only an entry whose cell is
    /// one of `cells` matches; any other stays armed.
    pub(crate) fn take(&mut self, shard: usize, cells: &Assignment) -> Vec<(InjectKind, u64)> {
        let mut out = Vec::new();
        for entry in &mut self.entries {
            if entry.used && !entry.spec.repeat {
                continue;
            }
            let shard_ok = entry.spec.shard.is_none() || entry.spec.shard == Some(shard);
            if shard_ok && cells.contains(entry.spec.cell) {
                entry.used = true;
                out.push((entry.kind, entry.spec.cell));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assigned(start: u64, end: u64, step: u64) -> Assignment {
        Assignment { start, end, step }
    }

    #[test]
    fn parse_accepts_all_forms() {
        assert_eq!(
            InjectSpec::parse("shard=1,trial=12").unwrap(),
            InjectSpec {
                shard: Some(1),
                cell: 12,
                repeat: false
            }
        );
        assert_eq!(
            InjectSpec::parse("trial=3,repeat").unwrap(),
            InjectSpec {
                shard: None,
                cell: 3,
                repeat: true
            }
        );
        assert_eq!(
            InjectSpec::parse("7").unwrap(),
            InjectSpec {
                shard: None,
                cell: 7,
                repeat: false
            }
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(InjectSpec::parse("shard=1").unwrap_err().contains("trial"));
        assert!(InjectSpec::parse("trial=x").unwrap_err().contains("bad"));
        assert!(InjectSpec::parse("bogus=1").unwrap_err().contains("bogus"));
    }

    #[test]
    fn one_shot_entries_fire_exactly_once() {
        let mut sched = InjectSchedule::new();
        sched.add(InjectKind::Kill, InjectSpec::parse("trial=5").unwrap());
        assert_eq!(sched.take(0, &assigned(0, 10, 1)), [(InjectKind::Kill, 5)]);
        // The respawn covering the same cells gets nothing.
        assert!(sched.take(0, &assigned(5, 10, 1)).is_empty());
    }

    #[test]
    fn repeat_entries_rearm_on_every_spawn() {
        let mut sched = InjectSchedule::new();
        sched.add(
            InjectKind::Kill,
            InjectSpec::parse("trial=5,repeat").unwrap(),
        );
        for _ in 0..3 {
            assert_eq!(sched.take(1, &assigned(0, 10, 1)), [(InjectKind::Kill, 5)]);
        }
    }

    #[test]
    fn shard_and_range_filters_apply() {
        let mut sched = InjectSchedule::new();
        sched.add(
            InjectKind::Stall,
            InjectSpec::parse("shard=2,trial=5").unwrap(),
        );
        assert!(sched.take(1, &assigned(0, 10, 1)).is_empty(), "wrong shard");
        assert!(
            sched.take(2, &assigned(6, 10, 1)).is_empty(),
            "cell outside range"
        );
        assert_eq!(sched.take(2, &assigned(0, 10, 1)), [(InjectKind::Stall, 5)]);
    }

    #[test]
    fn a_cell_outside_the_residue_class_stays_armed_for_its_holder() {
        let mut sched = InjectSchedule::new();
        sched.add(InjectKind::Kill, InjectSpec::parse("trial=5").unwrap());
        sched.add(
            InjectKind::Kill,
            InjectSpec::parse("shard=0,trial=7").unwrap(),
        );
        // Two slots over [0, 10): slot 0 runs the even cells, slot 1 the
        // odd ones. Cells 5 and 7 lie in slot 0's span but not its class.
        assert!(sched.take(0, &assigned(0, 10, 2)).is_empty());
        assert_eq!(sched.take(1, &assigned(1, 10, 2)), [(InjectKind::Kill, 5)]);
        // `shard=0,trial=7` names a cell slot 0 never runs: it never fires.
        assert!(sched.take(0, &assigned(0, 10, 2)).is_empty());
        assert!(sched.take(1, &assigned(1, 10, 2)).is_empty());
    }
}
