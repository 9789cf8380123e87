//! The trial harness: build the client—gateway—server world, run one
//! page load (attacked or not), and collect everything the evaluation
//! needs — the client's report, the server's ground truth, the
//! adversary's capture, and the attack timeline.

use crate::attack::{AttackConfig, AttackEvent, AttackPolicy, TransportKind};
use crate::defense::Defense;
use crate::metrics::{is_serialized, MuxIndex, ObjectMux};
use crate::predictor::{
    densest_party_burst, predict_from_datagram_trace, predict_from_trace, IdentifiedUnit,
    Prediction, SizeMap, HTML_LABEL,
};
use h2priv_h2::{ClientConfig, ClientNode, ClientReport, ServeRecord, ServerConfig, ServerNode};
use h2priv_netsim::faults::{FaultConfig, FaultStats};
use h2priv_netsim::middlebox::{Middlebox, MiddleboxPolicy, MiddleboxStats, Passthrough};
use h2priv_netsim::prelude::*;
use h2priv_netsim::time::SimTime as AttackTime;
use h2priv_netsim::time::SimTime;
use h2priv_quic::{H3ClientNode, H3ServerNode};
use h2priv_tcp::TcpStats;
use h2priv_tls::WireMap;
use h2priv_trace::analysis::UnitConfig;
use h2priv_trace::capture::{shared_trace, Trace};
use h2priv_trace::datagram::DatagramUnitConfig;
use h2priv_util::impl_to_json;
use h2priv_util::telemetry;
use h2priv_web::{IsideWith, ObjectId, Party, Site};
use std::sync::OnceLock;

/// Fault configurations for the two halves of the path; each applies to
/// both directions of its link pair. Empty by default (no impairments,
/// no extra RNG draws — existing seeded runs stay byte-identical).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Faults on the client ↔ middlebox links.
    pub client_link: Option<FaultConfig>,
    /// Faults on the middlebox ↔ server links.
    pub server_link: Option<FaultConfig>,
}

impl FaultPlan {
    /// `true` when no fault configuration is attached anywhere.
    pub fn is_empty(&self) -> bool {
        self.client_link.is_none() && self.server_link.is_none()
    }
}

/// Options for one trial.
#[derive(Debug, Clone)]
pub struct TrialOptions {
    /// RNG seed (also drives the survey-result permutation).
    pub seed: u64,
    /// Adversary configuration; `None` runs a passive baseline.
    pub attack: Option<AttackConfig>,
    /// Server behaviour.
    pub server: ServerConfig,
    /// Client behaviour.
    pub client: ClientConfig,
    /// Path link parameters.
    pub path: PathConfig,
    /// Simulation horizon (safety net; page loads finish well before).
    pub horizon: SimDuration,
    /// Network impairments to inject (empty = pristine path).
    pub faults: FaultPlan,
    /// Stall-watchdog window: a trial that makes no forward progress
    /// (no packets delivered, no client-visible progress) across a full
    /// window is classified as stalled. Zero disables the watchdog
    /// (one window equal to the horizon).
    pub stall_window: SimDuration,
    /// When `true`, the watchdog ends the simulation at the first full
    /// stalled window instead of running out the horizon. Keep `false`
    /// (the default) to preserve the exact event sequence of a plain
    /// `run_until(horizon)` run.
    pub fail_fast: bool,
    /// Countermeasure under test. [`Defense::None`] (the default)
    /// changes nothing: no config knobs move, no site transformation
    /// runs, no extra RNG draws occur — seeded runs stay byte-identical.
    /// Applied by [`run_isidewith_trial_with`]; callers of
    /// [`run_site_trial`] set the equivalent config knobs themselves.
    pub defense: Defense,
    /// The victim's stack: HTTP/2 over TCP+TLS ([`TransportKind::Tcp`],
    /// the default) or HTTP/3 over QUIC. The trial deploys the attack
    /// monitor for this transport whatever the attack config names.
    pub transport: TransportKind,
}

impl TrialOptions {
    /// Default options with the given seed and attack.
    pub fn new(seed: u64, attack: Option<AttackConfig>) -> TrialOptions {
        TrialOptions {
            seed,
            attack,
            server: ServerConfig::default(),
            client: ClientConfig::default(),
            path: PathConfig::default(),
            horizon: SimDuration::from_secs(120),
            faults: FaultPlan::default(),
            stall_window: SimDuration::from_secs(30),
            fail_fast: false,
            defense: Defense::None,
            transport: TransportKind::Tcp,
        }
    }
}

/// How a trial ended. Every trial terminates with exactly one of these;
/// the experiment runners aggregate the degraded ones into their reports
/// instead of silently folding them into the success statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialOutcome {
    /// The page load finished.
    Completed,
    /// No forward progress across a full stall window and the connection
    /// never finished (e.g. a permanent link outage with unbounded
    /// retransmission).
    Stalled,
    /// The TCP connection aborted after exhausting its retransmissions
    /// (the paper's "broken connection").
    ConnectionAborted,
    /// The simulation was still making progress when the horizon hit.
    HorizonExhausted,
}

impl_to_json!(
    enum TrialOutcome {
        Completed,
        Stalled,
        ConnectionAborted,
        HorizonExhausted,
    }
);

impl TrialOutcome {
    /// `true` for every outcome other than [`TrialOutcome::Completed`].
    pub fn is_degraded(self) -> bool {
        !matches!(self, TrialOutcome::Completed)
    }

    /// A stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrialOutcome::Completed => "completed",
            TrialOutcome::Stalled => "stalled",
            TrialOutcome::ConnectionAborted => "connection_aborted",
            TrialOutcome::HorizonExhausted => "horizon_exhausted",
        }
    }
}

/// Snapshot of the adversary's observable state after a trial.
#[derive(Debug, Clone, Default)]
pub struct AttackSnapshot {
    /// Timeline of phase events.
    pub events: Vec<AttackEvent>,
    /// GETs the monitor counted.
    pub gets_seen: u64,
    /// Packets the drop gate discarded.
    pub packets_dropped: u64,
    /// Packets the pacer delayed.
    pub packets_delayed: u64,
}

/// Everything collected from one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The client's page-load report.
    pub client: ClientReport,
    /// The server's ground-truth serve log.
    pub serve_log: Vec<ServeRecord>,
    /// Ground-truth wire map of the server→client stream. The first
    /// [`TrialResult::degree`] call indexes it, so it must not change
    /// after that.
    pub wire_map: WireMap,
    /// The adversary's capture.
    pub trace: Trace,
    /// Middlebox counters.
    pub mbox_stats: MiddleboxStats,
    /// Server TCP statistics (a QUIC trial reports its counters in
    /// their TCP projection: datagrams as segments, PTOs as RTOs).
    pub server_tcp: TcpStats,
    /// Client TCP statistics (same projection on QUIC).
    pub client_tcp: TcpStats,
    /// Attack timeline (empty snapshot for passive baselines).
    pub attack: AttackSnapshot,
    /// How the trial terminated.
    pub outcome: TrialOutcome,
    /// Total discrete events the simulator dispatched for this trial
    /// (what repobench's `sim.events` and `sim.events_per_s` count).
    pub sim_events: u64,
    /// Virtual time when the simulation stopped.
    pub ended_at: SimTime,
    /// When the watchdog first saw a full window without progress that
    /// was never followed by more progress; `None` for clean runs.
    pub stall_detected_at: Option<SimTime>,
    /// Fault-layer counters for each link a fault config was attached
    /// to, in topology order (client→mbox, mbox→client, mbox→server,
    /// server→mbox). Empty when the trial ran without faults.
    pub fault_stats: Vec<FaultStats>,
    /// Padding bytes the server added on the wire (TLS record fill on
    /// H2, PADDING-frame bytes on H3). 0 when padding is off.
    pub pad_overhead_bytes: u64,
    /// Dummy DATA cells the shaping layer emitted (H2 only).
    pub dummy_cells_sent: u64,
    /// Response datagrams routed over the untapped alternate path (H3
    /// traffic splitting only).
    pub split_alt_datagrams: u64,
    /// Every entity's interleaving in `wire_map`, swept on the first
    /// [`TrialResult::degree`] call and shared by the rest.
    mux: OnceLock<MuxIndex>,
}

impl TrialResult {
    /// The paper's "number of retransmissions" measurement: wire-level
    /// (TCP) retransmissions on both endpoints, summed from the
    /// endpoints' own counters ([`TcpStats::retransmits`]), not from the
    /// capture. Application-layer re-requests (whose served copies
    /// the paper calls "retransmitted versions of the object") are
    /// reported separately in [`ClientReport::h2_rerequests`].
    pub fn total_retransmissions(&self) -> u64 {
        self.server_tcp.retransmits() + self.client_tcp.retransmits()
    }

    /// Degree of multiplexing of `object` (all served copies), equal to
    /// [`crate::metrics::degree_of_multiplexing`] over `wire_map`.
    pub fn degree(&self, object: ObjectId) -> ObjectMux {
        self.mux
            .get_or_init(|| MuxIndex::new(&self.wire_map))
            .degree(object)
    }

    /// Runs the predictor over this trial's capture.
    pub fn predict(&self, map: &SizeMap) -> Prediction {
        predict_from_trace(&self.trace, map, &UnitConfig::default(), None)
    }

    /// Runs the datagram-delimiter predictor over this trial's capture —
    /// the pipeline for QUIC trials, where no TLS record stream exists
    /// to reassemble.
    pub fn predict_datagram(&self, map: &SizeMap) -> Prediction {
        predict_from_datagram_trace(&self.trace, map, &DatagramUnitConfig::default(), None)
    }
}

/// Runs one trial of `site` over `opts.transport`.
pub fn run_site_trial(site: Site, opts: &TrialOptions) -> TrialResult {
    match opts.transport {
        TransportKind::Tcp => trial_over::<H2>(site, opts),
        TransportKind::Quic => trial_over::<H3>(site, opts),
    }
}

/// Runs one trial of `site` over QUIC/HTTP-3, whatever `opts.transport`
/// says: [`run_site_trial`] with the transport fixed.
pub fn run_h3_site_trial(site: Site, opts: &TrialOptions) -> TrialResult {
    trial_over::<H3>(site, opts)
}

/// What differs between the victim's two stacks. Everything else about
/// a site trial — topology, attack, faults, watchdog, harvest — is the
/// one body in [`trial_over`], instantiated per stack.
trait Endpoints {
    type Client: Node + 'static;
    type Server: Node + 'static;
    /// The wire format the attack monitor parses.
    const TRANSPORT: TransportKind;
    fn nodes(
        site: Site,
        client: ClientConfig,
        server: ServerConfig,
    ) -> (Self::Client, Self::Server);
    /// Whether the server routes part of its traffic over a second,
    /// untapped gateway.
    fn split_path(_server: &ServerConfig) -> bool {
        false
    }
    /// The client's forward-progress fingerprint; reads nothing that
    /// mutates state or draws from an RNG.
    fn progress_probe(client: &Self::Client) -> (u64, u64, bool, bool);
    fn take_report(client: &mut Self::Client) -> ClientReport;
    /// Client and server transport counters, in their TCP projection.
    fn transport_stats(client: &Self::Client, server: &Self::Server) -> (TcpStats, TcpStats);
    /// The server's serve log and wire map.
    fn ground_truth(server: &Self::Server) -> (&[ServeRecord], &WireMap);
    /// Defense overhead: padding bytes, dummy cells, split datagrams.
    fn defense_counters(server: &Self::Server) -> [u64; 3];
}

/// HTTP/2 over TCP+TLS.
struct H2;

impl Endpoints for H2 {
    type Client = ClientNode;
    type Server = ServerNode;
    const TRANSPORT: TransportKind = TransportKind::Tcp;
    fn nodes(site: Site, client: ClientConfig, server: ServerConfig) -> (ClientNode, ServerNode) {
        (
            ClientNode::new(site.clone(), client),
            ServerNode::new(site, server),
        )
    }
    fn progress_probe(client: &ClientNode) -> (u64, u64, bool, bool) {
        client.progress_probe()
    }
    fn take_report(client: &mut ClientNode) -> ClientReport {
        client.take_report()
    }
    fn transport_stats(client: &ClientNode, server: &ServerNode) -> (TcpStats, TcpStats) {
        (*client.tcp_stats(), *server.tcp_stats())
    }
    fn ground_truth(server: &ServerNode) -> (&[ServeRecord], &WireMap) {
        (server.serve_log(), server.wire_map())
    }
    fn defense_counters(server: &ServerNode) -> [u64; 3] {
        [server.pad_overhead_bytes(), server.dummy_cells_sent(), 0]
    }
}

/// HTTP/3 over QUIC.
struct H3;

impl Endpoints for H3 {
    type Client = H3ClientNode;
    type Server = H3ServerNode;
    const TRANSPORT: TransportKind = TransportKind::Quic;
    fn nodes(
        site: Site,
        client: ClientConfig,
        server: ServerConfig,
    ) -> (H3ClientNode, H3ServerNode) {
        (
            H3ClientNode::new(site.clone(), client),
            H3ServerNode::new(site, server),
        )
    }
    fn split_path(server: &ServerConfig) -> bool {
        server.split_burst > 0
    }
    fn progress_probe(client: &H3ClientNode) -> (u64, u64, bool, bool) {
        client.progress_probe()
    }
    fn take_report(client: &mut H3ClientNode) -> ClientReport {
        client.take_report()
    }
    fn transport_stats(client: &H3ClientNode, server: &H3ServerNode) -> (TcpStats, TcpStats) {
        (client.tcp_stats(), server.tcp_stats())
    }
    fn ground_truth(server: &H3ServerNode) -> (&[ServeRecord], &WireMap) {
        (server.serve_log(), server.wire_map())
    }
    fn defense_counters(server: &H3ServerNode) -> [u64; 3] {
        [
            server.quic_stats().pad_bytes_sent,
            0,
            server.split_alt_datagrams(),
        ]
    }
}

/// Builds, runs and harvests one trial of `site` over the stack `E`.
fn trial_over<E: Endpoints>(site: Site, opts: &TrialOptions) -> TrialResult {
    let mut sim = Simulator::new(opts.seed);
    let collector = shared_trace();
    sim.set_capture_sink(collector.clone());

    let mut client_cfg = opts.client.clone();
    client_cfg.addr = opts.path.client_addr;
    client_cfg.server_addr = opts.path.server_addr;
    let mut server_cfg = opts.server.clone();
    server_cfg.addr = opts.path.server_addr;
    server_cfg.client_addr = opts.path.client_addr;
    let (client, server) = E::nodes(site, client_cfg, server_cfg);

    let (policy, attack_state): (Box<dyn MiddleboxPolicy>, _) = match &opts.attack {
        Some(cfg) => {
            let (p, s) = AttackPolicy::new(cfg.clone().with_transport(E::TRANSPORT));
            (Box::new(p), Some(s))
        }
        None => (Box::new(Passthrough), None),
    };

    // Traffic splitting needs a second (untapped) gateway; the primary
    // path is identical either way, so an unsplit trial's topology —
    // node ids, link ids, event order — is untouched by this branch.
    // Faults stay on the primary path only.
    let topo = if E::split_path(&opts.server) {
        SplitPathTopology::build(&mut sim, client, policy, server, &opts.path).path
    } else {
        PathTopology::build(&mut sim, client, policy, server, &opts.path)
    };

    let mut faulted_links = Vec::new();
    if let Some(cfg) = &opts.faults.client_link {
        faulted_links.push(topo.client_to_mbox);
        faulted_links.push(topo.mbox_to_client);
        sim.attach_faults(topo.client_to_mbox, cfg.clone());
        sim.attach_faults(topo.mbox_to_client, cfg.clone());
    }
    if let Some(cfg) = &opts.faults.server_link {
        faulted_links.push(topo.mbox_to_server);
        faulted_links.push(topo.server_to_mbox);
        sim.attach_faults(topo.mbox_to_server, cfg.clone());
        sim.attach_faults(topo.server_to_mbox, cfg.clone());
    }

    let (outcome, stall_detected_at) = {
        let _sp = telemetry::span("trial.sim_ns");
        run_with_watchdog(&mut sim, opts, |sim| {
            E::progress_probe(sim.node_ref(topo.client))
        })
    };
    telemetry::gauge("trial.sim_events", sim.stats().events);

    let client_report = E::take_report(sim.node_mut(topo.client));
    let client_node = sim.node_ref::<E::Client>(topo.client);
    let server_node = sim.node_ref::<E::Server>(topo.server);
    let mbox = sim.node_ref::<Middlebox>(topo.middlebox);
    let (client_tcp, server_tcp) = E::transport_stats(client_node, server_node);
    let (serve_log, wire_map) = E::ground_truth(server_node);
    let [pad_overhead_bytes, dummy_cells_sent, split_alt_datagrams] =
        E::defense_counters(server_node);

    let trace = collector.borrow_mut().take_trace();
    let attack = attack_state
        .map(|s| {
            let s = s.borrow();
            AttackSnapshot {
                events: s.events.clone(),
                gets_seen: s.gets_seen,
                packets_dropped: s.packets_dropped,
                packets_delayed: s.packets_delayed,
            }
        })
        .unwrap_or_default();

    TrialResult {
        client: client_report,
        serve_log: serve_log.to_vec(),
        wire_map: wire_map.clone(),
        trace,
        mbox_stats: mbox.stats(),
        server_tcp,
        client_tcp,
        attack,
        outcome,
        sim_events: sim.stats().events,
        ended_at: sim.now(),
        stall_detected_at,
        fault_stats: faulted_links
            .iter()
            .filter_map(|&l| sim.fault_stats(l))
            .collect(),
        pad_overhead_bytes,
        dummy_cells_sent,
        split_alt_datagrams,
        mux: OnceLock::new(),
    }
}

/// Drives the simulation in stall-window-sized chunks up to the horizon,
/// classifying how the trial ends. `probe_fn` is the client's
/// forward-progress probe, so the same loop drives TCP and QUIC trials.
///
/// With `fail_fast` off, the event sequence processed is exactly what a
/// single `run_until(horizon)` would process — chunk boundaries only
/// partition the same ordered event stream, and the progress probes read
/// nothing that mutates state or consumes RNG draws — so default-path
/// trials stay byte-identical to the pre-watchdog harness.
fn run_with_watchdog(
    sim: &mut Simulator,
    opts: &TrialOptions,
    probe_fn: impl Fn(&Simulator) -> (u64, u64, bool, bool),
) -> (TrialOutcome, Option<SimTime>) {
    let (outcome, stall_detected_at) = watchdog_loop(sim, opts, probe_fn);
    telemetry::emit("watchdog", "outcome", |ev| {
        ev.fields.push(("outcome", outcome.label().into()));
        if let Some(t) = stall_detected_at {
            ev.fields.push(("stall_detected_ns", t.as_nanos().into()));
        }
    });
    (outcome, stall_detected_at)
}

fn watchdog_loop(
    sim: &mut Simulator,
    opts: &TrialOptions,
    probe_fn: impl Fn(&Simulator) -> (u64, u64, bool, bool),
) -> (TrialOutcome, Option<SimTime>) {
    let horizon = SimTime::ZERO + opts.horizon;
    let window = if opts.stall_window.is_zero() {
        opts.horizon
    } else {
        opts.stall_window
    };
    let mut last_probe = probe_fn(sim);
    let mut last_delivered = sim.stats().packets_delivered;
    let mut stall_detected_at: Option<SimTime> = None;
    let mut chunk_end = SimTime::ZERO;
    loop {
        // Boundaries advance monotonically even when a chunk processes no
        // events (e.g. everything pending lies past the horizon), so the
        // loop always reaches the horizon.
        chunk_end = (chunk_end.max(sim.now()) + window).min(horizon);
        sim.run_until(chunk_end);
        let probe = probe_fn(sim);
        let delivered = sim.stats().packets_delivered;
        let (_, _, page_done, broken) = probe;

        if sim.pending_events() == 0 {
            let outcome = if page_done {
                TrialOutcome::Completed
            } else if broken {
                TrialOutcome::ConnectionAborted
            } else {
                TrialOutcome::Stalled
            };
            return (outcome, stall_detected_at);
        }
        let progressed = probe != last_probe || delivered != last_delivered;
        if progressed {
            if stall_detected_at.is_some() {
                telemetry::emit("watchdog", "stall_recovered", |_| {});
            }
            stall_detected_at = None; // transient stall; progress resumed
        } else if stall_detected_at.is_none() {
            stall_detected_at = Some(sim.now());
            telemetry::emit("watchdog", "stall_detected", |ev| {
                ev.fields.push(("delivered", delivered.into()));
                ev.fields
                    .push(("pending_events", sim.pending_events().into()));
            });
            telemetry::count("watchdog.stalls", 1);
        }
        if chunk_end == horizon {
            let outcome = if page_done {
                TrialOutcome::Completed
            } else if broken {
                TrialOutcome::ConnectionAborted
            } else if stall_detected_at.is_some() {
                TrialOutcome::Stalled
            } else {
                TrialOutcome::HorizonExhausted
            };
            return (outcome, stall_detected_at);
        }
        if opts.fail_fast && !progressed && !page_done {
            let outcome = if broken {
                TrialOutcome::ConnectionAborted
            } else {
                TrialOutcome::Stalled
            };
            return (outcome, stall_detected_at);
        }
        last_probe = probe;
        last_delivered = delivered;
    }
}

/// Per-object attack outcome against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct ObjectAttackOutcome {
    /// The object.
    pub object: ObjectId,
    /// Lowest degree of multiplexing over served copies (1.0 if never
    /// transmitted).
    pub best_degree: f64,
    /// Whether the predictor identified the object's size in the trace.
    pub identified: bool,
    /// The paper's success criterion: degree brought to zero *and*
    /// identified from the encrypted traffic.
    pub success: bool,
}

/// An isidewith trial: ground truth plus results.
#[derive(Debug, Clone)]
pub struct IsideWithTrial {
    /// The generated site and ground truth.
    pub iw: IsideWith,
    /// The collected trial data.
    pub result: TrialResult,
    /// The predictor output (isidewith size map, default segmentation).
    pub prediction: Prediction,
}

impl IsideWithTrial {
    /// The start of the adversary's analysis window: the end of the drop
    /// phase if there was one, else the trigger, else `None` (passive
    /// baseline — the whole trace is analysed). The adversary knows this
    /// time exactly since it is part of its own schedule.
    pub fn attack_window(&self) -> Option<AttackTime> {
        let mut trigger = None;
        for ev in &self.result.attack.events {
            match ev {
                AttackEvent::DropsStopped { at_ms } => {
                    return Some(AttackTime::from_millis(*at_ms));
                }
                AttackEvent::Trigger { at_ms } => trigger = Some(AttackTime::from_millis(*at_ms)),
                _ => {}
            }
        }
        trigger
    }

    /// The prediction restricted to the adversary's analysis window.
    pub fn windowed_prediction(&self) -> Prediction {
        match self.attack_window() {
            Some(t) => self.prediction.after(t),
            None => self.prediction.clone(),
        }
    }

    /// The units of [`IsideWithTrial::windowed_prediction`], read in place.
    fn windowed_units(&self) -> impl Iterator<Item = &IdentifiedUnit> {
        let from = self.attack_window();
        self.prediction
            .units
            .iter()
            .filter(move |u| from.is_none_or(|t| u.unit.start >= t))
    }

    /// `true` if a unit in the analysis window was identified as `label`.
    fn identified(&self, label: &str) -> bool {
        self.windowed_units()
            .any(|u| u.label.as_deref() == Some(label))
    }

    fn outcome_for(&self, object: ObjectId, label: &str) -> ObjectAttackOutcome {
        let mux = self.result.degree(object);
        let best_degree = mux.best().map(|(_, d)| d).unwrap_or(1.0);
        let identified = self.identified(label);
        ObjectAttackOutcome {
            object,
            best_degree,
            identified,
            success: is_serialized(best_degree) && identified,
        }
    }

    /// Outcome for the result HTML (the paper's Section IV object of
    /// interest).
    pub fn html_outcome(&self) -> ObjectAttackOutcome {
        self.outcome_for(self.iw.html, HTML_LABEL)
    }

    /// Outcomes for the 8 emblem images in request (survey-result) order,
    /// judged independently — the paper's Table II "one object at a
    /// time" criterion.
    pub fn image_outcomes(&self) -> Vec<ObjectAttackOutcome> {
        self.iw
            .images
            .iter()
            .zip(self.iw.result_order)
            .map(|(img, party)| self.outcome_for(*img, party.label()))
            .collect()
    }

    /// The inferred party ranking. Under an attack the adversary reads
    /// the densest burst of party-sized units in its analysis window
    /// (it set the request spacing itself); the passive baseline falls
    /// back to first occurrences over the whole trace.
    pub fn predicted_order(&self) -> Vec<Party> {
        match self.attack_window() {
            Some(_) => densest_party_burst(self.windowed_units(), SimDuration::from_millis(1_500)),
            None => self.prediction.party_sequence(),
        }
    }

    /// Table II "all objects at a time": position `i` succeeds when the
    /// inferred ranking has the right party at `i` *and* that image was
    /// serialized (degree zero).
    pub fn sequence_success(&self) -> Vec<bool> {
        let predicted = self.predicted_order();
        let outcomes = self.image_outcomes();
        self.iw
            .result_order
            .iter()
            .enumerate()
            .map(|(i, truth)| {
                predicted.get(i) == Some(truth) && is_serialized(outcomes[i].best_degree)
            })
            .collect()
    }
}

/// Runs one isidewith trial with default options.
pub fn run_isidewith_trial(seed: u64, attack: Option<AttackConfig>) -> IsideWithTrial {
    run_isidewith_trial_with(TrialOptions::new(seed, attack))
}

/// The seed for retry `attempt` (attempt 0 is the original trial and
/// keeps the caller's seed verbatim). A splitmix64-style finalizer gives
/// each retry an independent, reproducible stream.
pub fn derive_retry_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An isidewith trial plus the outcomes of the degraded attempts that
/// preceded it (empty when the first attempt completed).
#[derive(Debug, Clone)]
pub struct RetriedTrial {
    /// The final attempt (completed, or the last degraded one).
    pub trial: IsideWithTrial,
    /// Outcomes of earlier attempts that were retried.
    pub failed_attempts: Vec<TrialOutcome>,
}

impl RetriedTrial {
    /// Retries consumed before the final attempt.
    pub fn retries_used(&self) -> u32 {
        self.failed_attempts.len() as u32
    }
}

/// Runs an isidewith trial, retrying degraded outcomes up to
/// `max_retries` extra times, each with a seed derived from the
/// original via [`derive_retry_seed`]. Returns the first attempt that
/// completes, or the last attempt when every one degraded — the caller
/// always gets a terminated trial with a [`TrialOutcome`], never a hang
/// or a panic. Serves both transports, as [`run_isidewith_trial_with`]
/// does.
///
/// Pool-safe: every attempt's state (simulator, RNG streams, shared
/// trace, watchdog) lives inside the call, and the retry seed is a pure
/// function of `opts.seed`, so concurrent calls from
/// [`h2priv_util::pool`] workers on different seeds cannot observe each
/// other.
pub fn run_isidewith_trial_retrying(opts: TrialOptions, max_retries: u32) -> RetriedTrial {
    let base_seed = opts.seed;
    let mut failed_attempts = Vec::new();
    for attempt in 0..=max_retries {
        let mut attempt_opts = opts.clone();
        attempt_opts.seed = derive_retry_seed(base_seed, attempt);
        let trial = run_isidewith_trial_with(attempt_opts);
        if !trial.result.outcome.is_degraded() || attempt == max_retries {
            return RetriedTrial {
                trial,
                failed_attempts,
            };
        }
        telemetry::emit("harness", "retry", |ev| {
            ev.seq = Some(attempt as u64);
            ev.fields
                .push(("outcome", trial.result.outcome.label().into()));
            ev.fields.push((
                "next_seed",
                derive_retry_seed(base_seed, attempt + 1).into(),
            ));
        });
        telemetry::count("harness.retries", 1);
        failed_attempts.push(trial.result.outcome);
    }
    unreachable!("loop always returns on the last attempt");
}

/// The volunteer's survey result for `seed`, drawn on a stream
/// independent of the trial's own, so attack configs do not perturb it
/// and a seed yields the same ground truth on both transports.
pub(crate) fn survey_ground_truth(seed: u64) -> IsideWith {
    let mut perm_rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    IsideWith::generate(&mut perm_rng)
}

/// Runs one isidewith trial with explicit options, over
/// `opts.transport`, with `opts.defense` applied. The predictor matches
/// the transport: TLS-record reassembly on TCP, datagram delimiting on
/// QUIC.
pub fn run_isidewith_trial_with(mut opts: TrialOptions) -> IsideWithTrial {
    let iw = survey_ground_truth(opts.seed);
    // With Defense::None both calls are no-ops (configure leaves every
    // knob alone; transform_site is the same site.clone() an undefended
    // trial always performed), so legacy seeded runs stay byte-identical.
    let defense = opts.defense;
    defense.configure(&mut opts.server, &mut opts.client);
    let site = defense.transform_site(&iw, opts.seed);
    let result = run_site_trial(site, &opts);
    let map = SizeMap::isidewith();
    let prediction = match opts.transport {
        TransportKind::Tcp => result.predict(&map),
        TransportKind::Quic => result.predict_datagram(&map),
    };
    IsideWithTrial {
        iw,
        result,
        prediction,
    }
}

/// Runs one isidewith trial over QUIC/HTTP-3 with default options.
pub fn run_isidewith_h3_trial(seed: u64, attack: Option<AttackConfig>) -> IsideWithTrial {
    run_isidewith_trial_with(TrialOptions {
        transport: TransportKind::Quic,
        ..TrialOptions::new(seed, attack)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_pipeline_is_pool_safe() {
        // The parallel executor moves options into workers and trial
        // results back out; both directions require Send, and the
        // shared prompt data (the options a closure captures by
        // reference) requires Sync. Compile-time assertions so a new
        // non-Send field can never silently break `--jobs`.
        fn send_and_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_and_sync::<TrialOptions>();
        send::<IsideWithTrial>();
        send::<RetriedTrial>();
        send::<TrialResult>();
    }

    #[test]
    fn passive_trial_completes_and_captures() {
        let trial = run_isidewith_trial(42, None);
        assert!(trial.result.client.page_completed_at.is_some());
        assert!(!trial.result.trace.is_empty());
        assert!(trial.result.mbox_stats.forwarded > 100);
        assert_eq!(
            trial.result.attack.gets_seen, 0,
            "passive baseline has no monitor"
        );
        // Every object served exactly once.
        assert_eq!(trial.result.serve_log.len(), trial.iw.site.len());
    }

    #[test]
    fn passive_html_is_usually_multiplexed() {
        // Single representative seed; the statistical claim (≈68 %) is
        // covered by the experiments module and integration tests.
        let trial = run_isidewith_trial(3, None);
        let out = trial.html_outcome();
        assert!(out.best_degree >= 0.0 && out.best_degree <= 1.0);
    }

    #[test]
    fn trials_are_deterministic() {
        let a = run_isidewith_trial(9, Some(AttackConfig::full_attack()));
        let b = run_isidewith_trial(9, Some(AttackConfig::full_attack()));
        assert_eq!(a.iw.result_order, b.iw.result_order);
        assert_eq!(a.result.trace.len(), b.result.trace.len());
        assert_eq!(
            a.result.total_retransmissions(),
            b.result.total_retransmissions()
        );
        assert_eq!(a.html_outcome().success, b.html_outcome().success);
    }

    #[test]
    fn h3_passive_trial_completes_and_captures() {
        let trial = run_isidewith_h3_trial(42, None);
        assert_eq!(trial.result.outcome, TrialOutcome::Completed);
        assert!(trial.result.client.page_completed_at.is_some());
        assert!(!trial.result.trace.is_empty());
        assert_eq!(trial.result.serve_log.len(), trial.iw.site.len());
        // Every object fully delivered.
        for obj in &trial.result.client.objects {
            assert!(obj.completed_at.is_some());
        }
    }

    #[test]
    fn h3_trial_shares_ground_truth_with_tcp_trial() {
        let h2 = run_isidewith_trial(7, None);
        let h3 = run_isidewith_h3_trial(7, None);
        assert_eq!(h2.iw.result_order, h3.iw.result_order);
    }

    #[test]
    fn h3_trials_are_deterministic() {
        let a = run_isidewith_h3_trial(9, Some(AttackConfig::full_attack()));
        let b = run_isidewith_h3_trial(9, Some(AttackConfig::full_attack()));
        assert_eq!(a.iw.result_order, b.iw.result_order);
        assert_eq!(a.result.trace.len(), b.result.trace.len());
        assert_eq!(a.html_outcome().success, b.html_outcome().success);
        assert_eq!(a.predicted_order(), b.predicted_order());
    }

    #[test]
    fn h3_monitor_counts_gets_during_attack() {
        let trial = run_isidewith_h3_trial(
            5,
            Some(AttackConfig::jitter_only(SimDuration::from_millis(25))),
        );
        assert!(
            trial.result.attack.gets_seen >= 53,
            "gets_seen = {}",
            trial.result.attack.gets_seen
        );
    }

    #[test]
    fn quic_trial_deploys_the_datagram_monitor_whatever_the_attack_names() {
        // The attack config names TCP; the runner takes the monitor's
        // transport from the endpoints, so a TLS record parser never
        // watches QUIC ciphertext.
        let attack = AttackConfig::jitter_only(SimDuration::from_millis(25));
        assert_eq!(attack.transport, TransportKind::Tcp);
        let opts = TrialOptions {
            transport: TransportKind::Quic,
            ..TrialOptions::new(5, Some(attack))
        };
        let result = run_site_trial(survey_ground_truth(5).site, &opts);
        assert!(
            result.attack.gets_seen >= 53,
            "gets_seen = {}",
            result.attack.gets_seen
        );
    }

    #[test]
    fn retrying_runner_serves_quic_trials() {
        let opts = TrialOptions {
            transport: TransportKind::Quic,
            ..TrialOptions::new(7, None)
        };
        let retried = run_isidewith_trial_retrying(opts, 2);
        assert_eq!(retried.retries_used(), 0, "clean seed needs no retry");
        let direct = run_isidewith_h3_trial(7, None);
        assert_eq!(retried.trial.result.outcome, direct.result.outcome);
        assert_eq!(retried.trial.result.sim_events, direct.result.sim_events);
        assert_eq!(retried.trial.result.trace.len(), direct.result.trace.len());
    }

    #[test]
    fn cached_outcome_lookups_match_their_definitions_on_real_trials() {
        use crate::experiments::transfer_attack_configs;
        use crate::metrics::{degree_of_multiplexing, tests::oracle, EntityId};
        let table2 = (0..20).map(|t| {
            let seed = 41_000 + 3_000_000 + t;
            run_isidewith_trial(seed, Some(AttackConfig::full_attack()))
        });
        let transfer =
            transfer_attack_configs()
                .into_iter()
                .enumerate()
                .flat_map(|(cfg, (_, attack))| {
                    (0..2).map(move |t| {
                        let seed = 82_000 + 6_000_000 + cfg as u64 * 10_000 + t;
                        run_isidewith_h3_trial(seed, Some(attack.clone()))
                    })
                });
        let labels: Vec<String> = SizeMap::isidewith()
            .entries()
            .iter()
            .map(|(l, _)| l.clone())
            .collect();
        let bits = |per_copy: &[(u16, f64)]| -> Vec<(u16, u64)> {
            per_copy.iter().map(|&(c, d)| (c, d.to_bits())).collect()
        };
        let mut trials = 0;
        for trial in table2.chain(transfer) {
            trials += 1;
            let r = &trial.result;
            for object in (0..=trial.iw.site.len() as u32).map(ObjectId) {
                let cached = r.degree(object);
                let fresh = degree_of_multiplexing(&r.wire_map, object);
                assert_eq!(bits(&cached.per_copy), bits(&fresh.per_copy));
                for &(copy, d) in &cached.per_copy {
                    let (i, b) = oracle(&r.wire_map, EntityId { object, copy }).expect("sent");
                    assert_eq!(d.to_bits(), (i as f64 / b as f64).to_bits());
                }
            }
            let windowed = trial.windowed_prediction();
            for label in &labels {
                assert_eq!(trial.identified(label), windowed.contains(label), "{label}");
            }
            let t = trial.attack_window().expect("attacked trial");
            let by_copy = trial
                .prediction
                .after(t)
                .party_burst_sequence(SimDuration::from_millis(1_500));
            assert_eq!(trial.predicted_order(), by_copy);
        }
        assert_eq!(trials, 28);
    }

    #[test]
    fn monitor_counts_gets_during_attack() {
        let trial = run_isidewith_trial(
            5,
            Some(AttackConfig::jitter_only(SimDuration::from_millis(25))),
        );
        // 53 objects, so at least 53 GETs must transit.
        assert!(
            trial.result.attack.gets_seen >= 53,
            "gets_seen = {}",
            trial.result.attack.gets_seen
        );
    }
}
