//! The benchmark's metric catalogue and its output: one line per metric
//! with its unit, then the result object as the last line of stdout.

use h2priv_util::json::Json;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p90", "ms"),
    ("cpu_ms_per_trial", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Every workload reports all of
/// them; a layer that does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("web.ms", "ms"),
    ("web.allocs", "count"),
    ("sim.ms", "ms"),
    ("sim.allocs", "count"),
    ("sim.alloc_bytes", "B"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.virtual_ms", "ms"),
    ("predictor.ms", "ms"),
    ("predictor.allocs", "count"),
    ("predictor.units", "count"),
    ("predictor.identified", "count"),
    ("predictor.identified_ratio", "ratio"),
    ("metrics.ms", "ms"),
    ("metrics.allocs", "count"),
    ("trial.ms", "ms"),
    ("trial.self_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_trials_per_s", "1/s"),
    ("tcp.segments", "count"),
    ("tcp.retransmits", "count"),
    ("tcp.rto_events", "count"),
    ("quic.datagrams", "count"),
    ("quic.retransmits", "count"),
    ("quic.pto_events", "count"),
    ("quic.pad_bytes", "B"),
    ("tls.records", "count"),
    ("tls.pad_bytes", "B"),
    ("h2.requests", "count"),
    ("h2.rerequests", "count"),
    ("h2.resets", "count"),
    ("h2.copies_served", "count"),
    ("middlebox.observed", "count"),
    ("middlebox.delayed", "count"),
    ("middlebox.dropped", "count"),
    ("attack.gets_seen", "count"),
    ("capture.records", "count"),
    ("defense.dummy_cells", "count"),
    ("defense.split_datagrams", "count"),
    ("watchdog.completed", "count"),
    ("watchdog.stalled", "count"),
    ("watchdog.aborted", "count"),
    ("watchdog.horizon", "count"),
    ("pool.busy_ratio", "ratio"),
    ("pool.tail_ms", "ms"),
    ("pool.runq_wait_ms", "ms"),
    ("campaign.spawns", "count"),
    ("campaign.respawns", "count"),
    ("campaign.first_record_ms", "ms"),
    ("campaign.resume_ms", "ms"),
    ("campaign.recover_ms", "ms"),
    ("campaign.journal_bytes", "B"),
    ("campaign.reorder_max_pending", "count"),
    ("failed_pct", "%"),
];

/// Values for one catalogue.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// End-to-end metrics, all unset.
    pub fn end_to_end() -> Metrics {
        Metrics {
            catalogue: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// Per-layer metrics, all 0 until set.
    pub fn per_layer() -> Metrics {
        Metrics {
            catalogue: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// On a name outside the catalogue: a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` of every set metric, in catalogue order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.catalogue
            .iter()
            .zip(&self.values)
            .filter_map(|(&(name, unit), v)| v.map(|v| (name, v, unit)))
    }
}

/// What a run measured and found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that panicked, went missing or differ from the reference.
    pub failed: u64,
    /// No failed trial and every other check passed.
    pub correct: bool,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Check results and context, one line each.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed trials as a share of those attempted, in percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and every set
/// metric with its unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .entries()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(o.correct)),
        ("attempted".to_string(), Json::UInt(o.attempted.max(1))),
        ("failed".to_string(), Json::UInt(o.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::end_to_end();
        m.set("trials_per_s", 312.5);
        m.set("setup_s", 0.00125);
        let o = Outcome {
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: m,
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&o),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"trials_per_s\":{\"value\":312.5,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.00125,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn per_layer_defaults_to_zero_and_names_are_unique() {
        let m = Metrics::per_layer();
        assert_eq!(m.entries().count(), PER_LAYER.len());
        let mut names: Vec<_> = PER_LAYER.iter().chain(END_TO_END).map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
    }
}
