//! The layers of one trial as the benchmark sees them from outside: the
//! public steps an isidewith trial is made of, each wrapped in a span,
//! the exact work counters a `TrialResult` carries, and their per-trial
//! summary over a run.

use std::collections::BTreeMap;

use h2priv_core::attack::TransportKind;
use h2priv_core::experiment::{
    run_h3_site_trial, run_site_trial, IsideWithTrial, TrialOptions, TrialOutcome, TrialResult,
};
use h2priv_core::predictor::SizeMap;
use h2priv_netsim::prelude::SimRng;
use h2priv_web::IsideWith;

use crate::report::Metrics;
use crate::spans::{self, LayerTotal, Recorder, Span};

/// Runs one isidewith trial the way `run_isidewith_trial_with` (TCP) or
/// `run_isidewith_h3_trial_with` (QUIC) does, one public step at a time,
/// inside a `trial` span with a child span per layer:
///
/// * `web` — the survey permutation, `IsideWith::generate` and the
///   defense's config and site transformation;
/// * `sim` — `run_site_trial` / `run_h3_site_trial`: event queue, links,
///   transport, TLS, HTTP, the attacking middlebox and trace capture;
/// * `predictor` — the size-map prediction over the capture;
/// * `metrics` — `outcome_calls`, the caller's outcome calls, which
///   evaluate the degree of multiplexing.
///
/// The steps mirror the library's own sequence; checking the result's
/// digest against the pinned reference catches the two drifting apart.
pub fn traced_trial<O>(
    rec: &mut Recorder,
    trial_id: u64,
    mut opts: TrialOptions,
    transport: TransportKind,
    outcome_calls: impl FnOnce(&IsideWithTrial) -> O,
) -> (IsideWithTrial, O) {
    let quic = matches!(transport, TransportKind::Quic);
    rec.span("trial", trial_id, |rec| {
        let (iw, site) = rec.span("web", trial_id, |_| {
            if quic {
                if let Some(attack) = &mut opts.attack {
                    attack.transport = TransportKind::Quic;
                }
            }
            let mut perm_rng = SimRng::new(
                opts.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1),
            );
            let iw = IsideWith::generate(&mut perm_rng);
            let defense = opts.defense;
            defense.configure(&mut opts.server, &mut opts.client);
            let site = defense.transform_site(&iw, opts.seed);
            (iw, site)
        });
        let result = rec.span("sim", trial_id, |_| {
            if quic {
                run_h3_site_trial(site, &opts)
            } else {
                run_site_trial(site, &opts)
            }
        });
        let prediction = rec.span("predictor", trial_id, |_| {
            let map = SizeMap::isidewith();
            if quic {
                result.predict_datagram(&map)
            } else {
                result.predict(&map)
            }
        });
        let trial = IsideWithTrial {
            iw,
            result,
            prediction,
        };
        let out = rec.span("metrics", trial_id, |_| outcome_calls(&trial));
        (trial, out)
    })
}

/// Names of the per-trial work counters, in [`work_counters`] order.
pub const COUNTERS: [&str; 24] = [
    "tcp.segments",
    "tcp.retransmits",
    "tcp.rto_events",
    "quic.datagrams",
    "quic.retransmits",
    "quic.pto_events",
    "quic.pad_bytes",
    "tls.records",
    "tls.pad_bytes",
    "h2.requests",
    "h2.rerequests",
    "h2.resets",
    "h2.copies_served",
    "middlebox.observed",
    "middlebox.delayed",
    "middlebox.dropped",
    "attack.gets_seen",
    "capture.records",
    "defense.dummy_cells",
    "defense.split_datagrams",
    "watchdog.completed",
    "watchdog.stalled",
    "watchdog.aborted",
    "watchdog.horizon",
];

/// Exact counts of the work one trial did, read from its `TrialResult`.
///
/// A QUIC trial reports its transport through the TCP-shaped stats
/// fields (datagrams as segments, PTOs as RTOs) and its PADDING bytes
/// through the pad counter, so the transport decides which rows they
/// land in: the TCP, TLS and H2 rows stay zero on QUIC, the QUIC rows on
/// TCP. `tls.records` counts the server's wire-map spans, one per TLS
/// record piece of the server→client stream.
pub fn work_counters(r: &TrialResult, transport: TransportKind) -> [u64; 24] {
    let (s, c) = (&r.server_tcp, &r.client_tcp);
    let segments = s.segments_sent + c.segments_sent;
    let retransmits = r.total_retransmissions();
    let timeouts = s.rto_events + c.rto_events;
    let tcp = matches!(transport, TransportKind::Tcp);
    let on = |v: u64, yes: bool| if yes { v } else { 0 };
    let ended = |o: TrialOutcome| u64::from(r.outcome == o);
    [
        on(segments, tcp),
        on(retransmits, tcp),
        on(timeouts, tcp),
        on(segments, !tcp),
        on(retransmits, !tcp),
        on(timeouts, !tcp),
        on(r.pad_overhead_bytes, !tcp),
        on(r.wire_map.spans().len() as u64, tcp),
        on(r.pad_overhead_bytes, tcp),
        on(r.client.requests.len() as u64, tcp),
        on(r.client.h2_rerequests, tcp),
        on(r.client.resets_sent, tcp),
        on(r.serve_log.len() as u64, tcp),
        r.mbox_stats.observed_c2s + r.mbox_stats.observed_s2c,
        r.mbox_stats.delayed,
        r.mbox_stats.dropped,
        r.attack.gets_seen,
        r.trace.len() as u64,
        r.dummy_cells_sent,
        r.split_alt_datagrams,
        ended(TrialOutcome::Completed),
        ended(TrialOutcome::Stalled),
        ended(TrialOutcome::ConnectionAborted),
        ended(TrialOutcome::HorizonExhausted),
    ]
}

/// What a traced trial contributes to the per-layer summary.
#[derive(Debug, Clone)]
pub struct TracedTrial {
    /// The trial's spans (one recorder's worth).
    pub spans: Vec<Span>,
    /// [`work_counters`] of the trial.
    pub counters: [u64; 24],
    /// Simulator events dispatched.
    pub events: u64,
    /// Virtual time the simulation ended at, ns.
    pub virtual_ns: u64,
    /// Units the predictor segmented.
    pub units: u64,
    /// Units it identified.
    pub identified: u64,
}

impl TracedTrial {
    /// Collects the summary of a finished traced trial.
    pub fn new(spans: Vec<Span>, trial: &IsideWithTrial, transport: TransportKind) -> TracedTrial {
        let units = &trial.prediction.units;
        TracedTrial {
            spans,
            counters: work_counters(&trial.result, transport),
            events: trial.result.sim_events,
            virtual_ns: trial.result.ended_at.as_nanos(),
            units: units.len() as u64,
            identified: units.iter().filter(|u| u.label.is_some()).count() as u64,
        }
    }
}

/// Per-layer summary of a traced run. Times and allocations average over
/// every traced trial; work counts average over distinct trials only, so
/// they are exact for a given set of inputs however often a run revisits
/// them.
#[derive(Debug, Default)]
pub struct LayerSummary {
    totals: BTreeMap<&'static str, LayerTotal>,
    trials: u64,
    distinct: u64,
    counters: [u64; 24],
    events: u64,
    virtual_ns: u64,
    units: u64,
    identified: u64,
    sim_events_timed: u64,
}

impl LayerSummary {
    /// Adds a traced trial; `first_visit` marks the first run of its input.
    pub fn add(&mut self, t: &TracedTrial, first_visit: bool) {
        spans::add_layer_totals(&t.spans, &mut self.totals);
        self.trials += 1;
        self.sim_events_timed += t.events;
        if first_visit {
            self.distinct += 1;
            for (sum, v) in self.counters.iter_mut().zip(t.counters) {
                *sum += v;
            }
            self.events += t.events;
            self.virtual_ns += t.virtual_ns;
            self.units += t.units;
            self.identified += t.identified;
        }
    }

    /// Traced trials added.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Share of the `trial` spans' time that a child layer span covers,
    /// in percent; the rest is harness time between the layer calls.
    pub fn attributed_pct(&self) -> f64 {
        let trial = self.totals.get("trial").copied().unwrap_or_default();
        if trial.total_ns == 0 {
            return 0.0;
        }
        100.0 * (1.0 - trial.self_ns as f64 / trial.total_ns as f64)
    }

    /// Writes the layer metrics into `m`.
    pub fn fill(&self, m: &mut Metrics) {
        let per_trial = self.trials.max(1) as f64;
        let per_distinct = self.distinct.max(1) as f64;
        let layer = |name: &str| self.totals.get(name).copied().unwrap_or_default();
        for name in ["web", "sim", "predictor", "metrics"] {
            let t = layer(name);
            m.set(&format!("{name}.ms"), t.self_ns as f64 / 1e6 / per_trial);
            m.set(&format!("{name}.allocs"), t.self_allocs as f64 / per_trial);
        }
        let sim = layer("sim");
        m.set("sim.alloc_bytes", sim.self_alloc_bytes as f64 / per_trial);
        m.set("sim.events", self.events as f64 / per_distinct);
        m.set(
            "sim.virtual_ms",
            self.virtual_ns as f64 / 1e6 / per_distinct,
        );
        if sim.self_ns > 0 {
            m.set(
                "sim.events_per_s",
                self.sim_events_timed as f64 / (sim.self_ns as f64 / 1e9),
            );
        }
        for (name, sum) in COUNTERS.iter().zip(self.counters) {
            m.set(name, sum as f64 / per_distinct);
        }
        m.set("predictor.units", self.units as f64 / per_distinct);
        m.set(
            "predictor.identified",
            self.identified as f64 / per_distinct,
        );
        if self.units > 0 {
            m.set(
                "predictor.identified_ratio",
                self.identified as f64 / self.units as f64,
            );
        }
        let trial = layer("trial");
        m.set("trial.ms", trial.total_ns as f64 / 1e6 / per_trial);
        m.set("trial.self_ms", trial.self_ns as f64 / 1e6 / per_trial);
        m.set("trace.attributed_pct", self.attributed_pct());
    }
}
