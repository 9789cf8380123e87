//! CLI plumbing for the deterministic observability layer.
//!
//! Every experiment binary calls [`init`] before running trials and
//! [`finish`] after printing its results. Both are no-ops unless the
//! operator passed `--trace FILE` (write every collected trace event as
//! one jsonl line) or `--metrics` (print the folded per-trial metric
//! registries as a summary block). With neither flag the telemetry
//! layer stays disabled and the binary's output — including every
//! committed `results/*.json` — is byte-for-byte what it was before
//! this layer existed.
//!
//! Determinism: slots drain sorted by `(batch, trial)`, batches are
//! opened sequentially on the main thread and events within a trial are
//! in emission order of that trial's deterministic simulation, so the
//! jsonl bytes are identical at any `--jobs` level.

use crate::oplog::{self, Level};
use crate::{flag_present, flag_value};
use h2priv_util::telemetry;

/// What the operator asked for on the command line.
pub struct Observability {
    /// Destination for the jsonl trace, when `--trace FILE` was given.
    pub trace_path: Option<String>,
    /// Whether `--metrics` asked for the summary block.
    pub metrics: bool,
}

/// Parses `--trace FILE` / `--trace=FILE`, `--metrics` and `--quiet`
/// from the command line and arms the telemetry layer accordingly.
/// Call once, before any trials run.
pub fn init() -> Observability {
    let trace_path = flag_value("--trace");
    let metrics = flag_present("--metrics");
    if flag_present("--quiet") {
        oplog::set_max_level(Level::Info);
    }
    telemetry::set_trace_enabled(trace_path.is_some());
    telemetry::set_metrics_enabled(metrics);
    Observability {
        trace_path,
        metrics,
    }
}

/// Drains the telemetry registry and delivers what [`init`] armed: the
/// jsonl trace file and/or the metrics summary block. No-op when
/// neither flag was given.
pub fn finish(obs: &Observability) {
    if obs.trace_path.is_none() && !obs.metrics {
        return;
    }
    let slots = telemetry::drain_slots();
    if let Some(path) = &obs.trace_path {
        let mut out = String::new();
        let mut events = 0usize;
        for slot in &slots {
            for ev in &slot.telemetry.events {
                out.push_str(&ev.to_json_line(&slot.label, slot.trial));
                out.push('\n');
                events += 1;
            }
        }
        match std::fs::write(path, out) {
            Ok(()) => oplog::log(Level::Info, &format!("trace: {events} events -> {path}")),
            Err(e) => {
                oplog::log(Level::Error, &format!("error: writing trace {path}: {e}"));
                std::process::exit(1);
            }
        }
    }
    if obs.metrics {
        print_metrics_summary(&slots);
    }
}

/// Folds every slot's registry (in submission order — counters add,
/// gauges take the last trial's value, histograms merge) and prints the
/// sorted summary block.
fn print_metrics_summary(slots: &[telemetry::SlotRecord]) {
    let mut folded = telemetry::Metrics::default();
    let mut trials = 0usize;
    for slot in slots {
        if !slot.telemetry.metrics.is_empty() {
            trials += 1;
        }
        folded.merge(&slot.telemetry.metrics);
    }
    oplog::log(Level::Info, &format!("\n=== metrics ({trials} trials) ==="));
    if folded.is_empty() {
        oplog::log(Level::Info, "(nothing recorded)");
        return;
    }
    for (name, v) in &folded.counters {
        oplog::log(Level::Info, &format!("counter  {name:<28} {v}"));
    }
    for (name, v) in &folded.gauges {
        oplog::log(
            Level::Info,
            &format!("gauge    {name:<28} {v}  (last trial)"),
        );
    }
    for (name, h) in &folded.histograms {
        oplog::log(
            Level::Info,
            &format!(
                "hist     {name:<28} count {}  min {}  mean {:.1}  max {}",
                h.count,
                h.min,
                h.mean().unwrap_or(0.0),
                h.max
            ),
        );
    }
}
