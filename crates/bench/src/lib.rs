//! Shared helpers for the experiment binaries.

#![warn(missing_docs)]

use h2priv_core::experiments::{self, named, Registered, EXPERIMENTS};

pub mod obs;
pub mod oplog;
pub mod out;
pub mod shard;

/// Prints an operator-facing info line through the leveled sink
/// ([`oplog`]); suppressed by `--quiet`.
#[macro_export]
macro_rules! oinfo {
    ($($arg:tt)*) => {
        $crate::oplog::log($crate::oplog::Level::Info, &format!($($arg)*))
    };
}

/// Prints an operator-facing warning line through the leveled sink
/// ([`oplog`]); survives `--quiet`.
#[macro_export]
macro_rules! owarn {
    ($($arg:tt)*) => {
        $crate::oplog::log($crate::oplog::Level::Warn, &format!($($arg)*))
    };
}

/// Prints an operator-facing error line through the leveled sink
/// ([`oplog`]); never filtered.
#[macro_export]
macro_rules! oerror {
    ($($arg:tt)*) => {
        $crate::oplog::log($crate::oplog::Level::Error, &format!($($arg)*))
    };
}

/// Prints progress chatter or a machine-readable dump (stderr) through
/// the leveled sink ([`oplog`]); dropped by `--quiet`.
#[macro_export]
macro_rules! odetail {
    ($($arg:tt)*) => {
        $crate::oplog::log($crate::oplog::Level::Detail, &format!($($arg)*))
    };
}

/// Parses the positional CLI argument at `position` (1-based argv index)
/// as a non-negative integer, with `default` when the argument is
/// absent. Malformed input is an error, not a silent fallback: the
/// binary prints a consistent usage line to stderr and exits with
/// status 2, so a typo like `--trials=1o0` can never masquerade as a
/// default-sized run.
pub fn count_arg(position: usize, name: &str, default: u64, usage_tail: &str) -> u64 {
    match positional_args().into_iter().nth(position) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            let bin = std::env::args()
                .next()
                .as_deref()
                .and_then(|p| p.rsplit('/').next().map(str::to_string))
                .unwrap_or_else(|| "bench".to_string());
            oerror!("error: invalid {name} {s:?} (expected a non-negative integer)");
            oerror!("usage: {bin} {usage_tail}");
            std::process::exit(2);
        }),
    }
}

/// Flags that take a value (`--flag V` / `--flag=V`), shared by
/// positional stripping and flag lookup so the two can never disagree.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--trace",
    "--shards",
    "--journal",
    "--out",
    "--heartbeat-ms",
    "--max-respawns",
    "--inject-kill",
    "--inject-stall",
    "--cells",
    "--step",
];

/// Flags that are bare booleans.
const BOOL_FLAGS: &[&str] = &[
    "--metrics",
    "--quiet",
    "--resume",
    "--fail-on-crash",
    "--shard-worker",
];

/// The command line with every flag removed — value flags (`--jobs N`,
/// `--trace FILE`, the campaign runner's `--shards`/`--journal`/…) and
/// boolean flags (`--metrics`, `--quiet`, `--resume`, …) — so positional
/// parsing ([`count_arg`]) and the flags compose in any order.
fn positional_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut out = Vec::with_capacity(args.len());
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if VALUE_FLAGS
            .iter()
            .any(|f| a.len() > f.len() && a.starts_with(f) && a.as_bytes()[f.len()] == b'=')
        {
            continue;
        }
        if BOOL_FLAGS.contains(&a.as_str()) {
            continue;
        }
        out.push(a);
    }
    out
}

/// The value of a `--name V` / `--name=V` flag, when present. `name`
/// must be listed in the crate's value-flag table so positional
/// stripping agrees with it.
pub fn flag_value(name: &str) -> Option<String> {
    flag_values(name).into_iter().next()
}

/// Every occurrence of a repeatable `--name V` / `--name=V` flag, in
/// command-line order. A missing value — an empty one, or the next flag
/// in its place — prints an error and exits with status 2, before any
/// trial runs.
pub fn flag_values(name: &str) -> Vec<String> {
    debug_assert!(VALUE_FLAGS.contains(&name), "unregistered flag {name}");
    let args: Vec<String> = std::env::args().collect();
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        let value = if a == name {
            args.get(i + 1).cloned().unwrap_or_default()
        } else if a.len() > name.len() && a.starts_with(name) && a.as_bytes()[name.len()] == b'=' {
            a[name.len() + 1..].to_string()
        } else {
            continue;
        };
        if value.is_empty() || value.starts_with("--") {
            oerror!("error: {name} requires a value");
            std::process::exit(2);
        }
        out.push(value);
    }
    out
}

/// True when a boolean `--name` flag is on the command line.
pub fn flag_present(name: &str) -> bool {
    debug_assert!(BOOL_FLAGS.contains(&name), "unregistered flag {name}");
    std::env::args().any(|a| a == name)
}

/// Parses a numeric flag value, with a default when absent. Malformed
/// input prints usage and exits with status 2, like [`count_arg`].
pub fn flag_u64(name: &str, default: u64) -> u64 {
    match flag_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            oerror!("error: invalid {name} {v:?} (expected a non-negative integer)");
            std::process::exit(2);
        }),
    }
}

/// The positional CLI argument at `position` (1-based argv index), with
/// every flag (`--jobs`, `--trace`, `--metrics`, `--quiet`) already
/// stripped, so flags and positionals compose in any order.
pub fn positional(position: usize) -> Option<String> {
    positional_args().into_iter().nth(position)
}

/// Parses the worker count for the parallel trial executor: an optional
/// `--jobs N` flag anywhere on the command line (default `0` = all
/// cores; `1` = the legacy sequential path). Results are byte-identical
/// at any job count, so this only changes wall-clock time.
pub fn jobs_arg() -> usize {
    flag_u64("--jobs", 0) as usize
}

/// The registered experiment named by the positional argument at
/// `position`; a missing or unknown name prints the registered names
/// and exits with status 2.
pub fn experiment_arg(position: usize) -> &'static Registered {
    let name = positional(position);
    if let Some(entry) = name.as_deref().and_then(named) {
        return entry;
    }
    match name {
        Some(name) => oerror!("error: unknown experiment {name:?}"),
        None => oerror!("error: missing experiment name"),
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    oerror!("experiments: {}", names.join(", "));
    std::process::exit(2)
}

/// The `run` command: runs `entry` in-process at the trial count in the
/// positional argument at `trials_position` (default: the entry's),
/// prints its table on stdout, and writes its report to `--out FILE`,
/// or to stderr without it. Every flag is checked before a trial runs.
pub fn run_experiment(entry: &Registered, trials_position: usize) {
    let o = obs::init();
    let out_path = flag_value("--out");
    let words: String = (1..trials_position)
        .filter_map(|p| positional(p).map(|w| w + " "))
        .collect();
    let usage = format!(
        "{words}[trials={}] [--jobs N] [--out FILE] [--trace FILE] [--metrics] [--quiet]",
        entry.default_trials
    );
    let trials = count_arg(
        trials_position,
        "trials",
        entry.default_trials as u64,
        &usage,
    ) as usize;
    let jobs = jobs_arg();
    odetail!("{}: {trials} trials per batch...", entry.name);
    let mut folder = entry.experiment.folder();
    experiments::drive(
        entry.experiment,
        trials,
        entry.base_seed,
        jobs,
        &mut *folder,
    );
    oinfo!("{}", folder.table());
    let report = folder.report();
    match out_path {
        Some(path) => {
            out::write_result_file(&path, &report);
            odetail!("wrote {path}");
        }
        None => out::stderr_str(&report),
    }
    obs::finish(&o);
}
