//! Crash-safe sharded campaign runner.
//!
//! `h2priv_util::pool` parallelizes trials *within* a process; this
//! crate is the same guarantee one level up: a campaign's `(batch,
//! trial)` space is sharded across supervised child **worker
//! processes** (the bench bins re-invoked in `--shard-worker` mode),
//! each worker streams its per-trial results as checksummed jsonl over
//! a pipe, and the supervisor journals and folds them **strictly in
//! global cell order** — so the journal bytes and the final report are
//! identical at any shard count and across any crash/kill/resume
//! schedule.
//!
//! Robustness model:
//!
//! * [`journal`] — an append-only jsonl journal, one CRC-32-stamped
//!   line per record, flushed per append. A crash can only ever lose
//!   the partial final line; recovery truncates to the last complete
//!   record and the campaign resumes from there, re-executing only the
//!   missing cells.
//! * [`supervisor`] — cells dealt round-robin, so with `n` shards each
//!   worker runs every `n`-th cell and all of them feed the journal's
//!   frontier together; per-shard heartbeat timeouts (a stalled worker is
//!   killed and its cells run again), bounded seed-deterministic
//!   exponential respawn backoff ([`backoff`]), and a poisoned-range
//!   detector: a cell that keeps killing its worker fails the campaign
//!   with a structured error naming the range instead of looping
//!   forever.
//! * [`inject`] — a deterministic crash-injection schedule
//!   (`--inject-kill shard=N,trial=K`, `--inject-stall …`, `repeat`
//!   entries) that turns "kill a worker at every batch boundary,
//!   resume, diff against the uninterrupted run" into a repeatable
//!   test.
//!
//! Determinism argument: workers race only over *when* their records
//! arrive; every record names its global cell index, the supervisor
//! releases records to the journal and the fold through an
//! [`order::OrderedSink`] keyed by that index, and duplicate or
//! already-journaled cells are dropped. The journal is therefore always
//! a strict prefix of the campaign's canonical record sequence — which
//! is what makes resume a simple "count the prefix, run the rest". A
//! fail-on-crash stop drains to the crashed cell, so its journal is
//! exactly the cells before it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backoff;
pub mod inject;
pub mod journal;
pub mod order;
pub mod record;
pub mod supervisor;
