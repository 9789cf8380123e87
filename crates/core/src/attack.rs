//! The attack orchestrator: the paper's Section V adversary as a
//! middlebox policy.
//!
//! The full attack runs in three phases:
//!
//! 1. **Jitter** — from connection start, GET-carrying client→server
//!    packets are paced to a minimum spacing (50 ms in the paper).
//! 2. **Throttle + targeted drops** — when the traffic monitor counts
//!    the trigger GET (the 6th, carrying the result-HTML request), the
//!    path is throttled (800 Mbps) and 80 % of server→client data
//!    packets are dropped for 6 s, forcing the client into RST_STREAM +
//!    re-request with backed-off timers.
//! 3. **Wider jitter** — after the drop window the pacing is raised
//!    (80 ms) so the burst of emblem-image GETs is serialized.
//!
//! Ablated variants ([`AttackConfig::jitter_only`],
//! [`AttackConfig::jitter_and_bandwidth`]) regenerate the paper's
//! Table I and Fig. 5 sweeps.

use crate::controller::{DropGate, Pacer, PACE_MIN_PAYLOAD};
use crate::monitor::{DatagramGetCounter, GetCounter, DEFAULT_GET_MIN_BODY};
use h2priv_netsim::middlebox::{MiddleboxPolicy, PacketView, PolicyCtx, Verdict};
use h2priv_netsim::packet::Direction;
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_netsim::units::Bandwidth;
use h2priv_util::json::{Json, ToJson};
use h2priv_util::telemetry;
use std::cell::RefCell;
use std::rc::Rc;

/// Which transport substrate the victim connection runs on — and hence
/// which traffic monitor the adversary deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// HTTP/2 over TCP+TLS: cleartext TLS record headers are parseable
    /// in-order from the byte stream ([`GetCounter`]).
    #[default]
    Tcp,
    /// HTTP/3 over QUIC-lite: datagrams are opaque, only sizes and
    /// timing observable ([`DatagramGetCounter`]).
    Quic,
}

impl TransportKind {
    /// Stable report label: the victim's HTTP version and transport.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Tcp => "h2-tcp",
            TransportKind::Quic => "h3-quic",
        }
    }
}

/// Configuration of the adversary.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Phase-1 pacing of GET-carrying packets (`None` = no jitter).
    pub spacing: Option<SimDuration>,
    /// Bandwidth to throttle both directions to when the trigger GET is
    /// seen (`None` = no throttling).
    pub throttle: Option<Bandwidth>,
    /// Server→client drop rate applied for [`AttackConfig::drop_duration`]
    /// after the trigger GET (0.0 disables the drop phase).
    pub drop_rate: f64,
    /// Length of the drop window.
    pub drop_duration: SimDuration,
    /// Pacing applied once the drop window closes (`None` keeps phase-1
    /// pacing).
    pub spacing_after_drops: Option<SimDuration>,
    /// Stop the drop window early when the monitor observes the wire
    /// signature of the client's stream reset (a burst of small control
    /// records) — Section IV-D: "We continue the packet drops ... until
    /// the client sends stream reset".
    pub stop_drops_on_reset: bool,
    /// Which GET (1-based count) triggers phase 2. The paper's object of
    /// interest is the 6th.
    pub trigger_get: u64,
    /// TLS record-body threshold for counting GETs.
    pub get_min_record_body: u16,
    /// Transport substrate the monitored connection uses.
    pub transport: TransportKind,
}

impl AttackConfig {
    /// The paper's full Section V attack: 50 ms jitter, throttle to
    /// 800 Mbps + 80 % drops for 6 s at the 6th GET, then 80 ms jitter.
    pub fn full_attack() -> AttackConfig {
        AttackConfig {
            spacing: Some(SimDuration::from_millis(50)),
            throttle: Some(Bandwidth::mbps(800)),
            drop_rate: 0.8,
            drop_duration: SimDuration::from_secs(6),
            spacing_after_drops: Some(SimDuration::from_millis(80)),
            stop_drops_on_reset: true,
            trigger_get: 6,
            get_min_record_body: DEFAULT_GET_MIN_BODY,
            transport: TransportKind::Tcp,
        }
    }

    /// Jitter only (Table I rows): pace GETs to `spacing`.
    pub fn jitter_only(spacing: SimDuration) -> AttackConfig {
        AttackConfig {
            spacing: if spacing.is_zero() {
                None
            } else {
                Some(spacing)
            },
            throttle: None,
            drop_rate: 0.0,
            drop_duration: SimDuration::ZERO,
            spacing_after_drops: None,
            stop_drops_on_reset: true,
            trigger_get: 6,
            get_min_record_body: DEFAULT_GET_MIN_BODY,
            transport: TransportKind::Tcp,
        }
    }

    /// Jitter + bandwidth limit (Fig. 5 sweep): 50 ms pacing, throttle
    /// to `bw` at the trigger GET.
    pub fn jitter_and_bandwidth(spacing: SimDuration, bw: Bandwidth) -> AttackConfig {
        AttackConfig {
            spacing: Some(spacing),
            throttle: Some(bw),
            drop_rate: 0.0,
            drop_duration: SimDuration::ZERO,
            spacing_after_drops: None,
            stop_drops_on_reset: true,
            trigger_get: 6,
            get_min_record_body: DEFAULT_GET_MIN_BODY,
            transport: TransportKind::Tcp,
        }
    }

    /// Jitter + bandwidth + targeted drops (Section IV-D experiment),
    /// without the phase-3 spacing increase.
    pub fn with_drops(drop_rate: f64, drop_duration: SimDuration) -> AttackConfig {
        AttackConfig {
            drop_rate,
            drop_duration,
            spacing_after_drops: None,
            ..AttackConfig::full_attack()
        }
    }

    /// Returns `self` targeting a different trigger GET.
    pub fn with_trigger_get(mut self, n: u64) -> AttackConfig {
        self.trigger_get = n;
        self
    }

    /// Returns `self` retargeted at a different transport substrate.
    pub fn with_transport(mut self, transport: TransportKind) -> AttackConfig {
        self.transport = transport;
        self
    }

    /// Reset-signature detection parameters for this transport: the
    /// sliding window and how many small control packets inside it count
    /// as the client's stream-reset volley. QUIC resets arrive as one
    /// RESET_STREAM+STOP_SENDING datagram per stream in a near-instant
    /// volley interleaved with ambient ACK datagrams, so the window is
    /// tighter and the bar higher than for TLS control records.
    fn reset_signature(&self) -> (SimDuration, usize) {
        match self.transport {
            TransportKind::Tcp => (SimDuration::from_millis(120), 3),
            TransportKind::Quic => (SimDuration::from_millis(40), 4),
        }
    }
}

/// Timeline events logged by the policy (for tests and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackEvent {
    /// The trigger GET transited.
    Trigger {
        /// When.
        at_ms: u64,
    },
    /// The path was throttled.
    ThrottleApplied {
        /// When.
        at_ms: u64,
    },
    /// The drop window opened.
    DropsStarted {
        /// When.
        at_ms: u64,
    },
    /// The drop window closed.
    DropsStopped {
        /// When.
        at_ms: u64,
    },
    /// The pacing changed (phase 3).
    SpacingChanged {
        /// When.
        at_ms: u64,
        /// New spacing in milliseconds.
        to_ms: u64,
    },
}

impl ToJson for AttackEvent {
    fn to_json(&self) -> Json {
        let (tag, fields) = match self {
            AttackEvent::Trigger { at_ms } => ("Trigger", vec![("at_ms", at_ms.to_json())]),
            AttackEvent::ThrottleApplied { at_ms } => {
                ("ThrottleApplied", vec![("at_ms", at_ms.to_json())])
            }
            AttackEvent::DropsStarted { at_ms } => {
                ("DropsStarted", vec![("at_ms", at_ms.to_json())])
            }
            AttackEvent::DropsStopped { at_ms } => {
                ("DropsStopped", vec![("at_ms", at_ms.to_json())])
            }
            AttackEvent::SpacingChanged { at_ms, to_ms } => (
                "SpacingChanged",
                vec![("at_ms", at_ms.to_json()), ("to_ms", to_ms.to_json())],
            ),
        };
        let inner = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Json::Obj(vec![(tag.to_string(), Json::Obj(inner))])
    }
}

/// Observable adversary state shared between the policy (inside the
/// simulator) and the experiment harness (outside).
#[derive(Debug, Default)]
pub struct AttackState {
    /// Timeline of events.
    pub events: Vec<AttackEvent>,
    /// GETs counted.
    pub gets_seen: u64,
    /// Packets dropped by the drop gate.
    pub packets_dropped: u64,
    /// Packets delayed by the pacer.
    pub packets_delayed: u64,
}

/// Shared handle to [`AttackState`].
pub type SharedAttackState = Rc<RefCell<AttackState>>;

const TOKEN_STOP_DROPS: u64 = 1;

/// The transport-appropriate traffic monitor. [`GetCounter`] parses the
/// cleartext TLS record stream and would desynchronise (and panic) on
/// QUIC ciphertext, so the dispatch must happen before any byte reaches
/// it.
#[derive(Debug)]
enum Monitor {
    /// TLS record parser over the TCP byte stream.
    Tls(GetCounter),
    /// Datagram size classifier.
    Datagram(DatagramGetCounter),
}

impl Monitor {
    fn for_config(cfg: &AttackConfig) -> Monitor {
        match cfg.transport {
            TransportKind::Tcp => Monitor::Tls(GetCounter::new(cfg.get_min_record_body)),
            TransportKind::Quic => Monitor::Datagram(DatagramGetCounter::default()),
        }
    }

    fn on_packet(&mut self, pkt: &PacketView<'_>) -> u64 {
        match self {
            Monitor::Tls(c) => c.on_packet(pkt),
            Monitor::Datagram(c) => c.on_packet(pkt),
        }
    }

    fn gets(&self) -> u64 {
        match self {
            Monitor::Tls(c) => c.gets(),
            Monitor::Datagram(c) => c.gets(),
        }
    }

    /// Small control packets seen so far — TLS control records or small
    /// QUIC datagrams, whichever the transport makes observable.
    fn small_signals(&self) -> u64 {
        match self {
            Monitor::Tls(c) => c.small_records(),
            Monitor::Datagram(c) => c.small_datagrams(),
        }
    }
}

/// The adversary's middlebox policy. Build with [`AttackPolicy::new`],
/// hand the policy to the topology, keep the state handle.
pub struct AttackPolicy {
    cfg: AttackConfig,
    counter: Monitor,
    pacer: Pacer,
    drops: DropGate,
    triggered: bool,
    small_records_seen: u64,
    small_record_times: std::collections::VecDeque<SimTime>,
    drops_started_at: Option<SimTime>,
    state: SharedAttackState,
}

impl AttackPolicy {
    /// Creates the policy and its shared observation handle.
    pub fn new(cfg: AttackConfig) -> (AttackPolicy, SharedAttackState) {
        let state: SharedAttackState = Rc::new(RefCell::new(AttackState::default()));
        let policy = AttackPolicy {
            counter: Monitor::for_config(&cfg),
            pacer: Pacer::new(cfg.spacing),
            drops: DropGate::new(cfg.drop_rate),
            triggered: false,
            small_records_seen: 0,
            small_record_times: std::collections::VecDeque::new(),
            drops_started_at: None,
            state: state.clone(),
            cfg,
        };
        (policy, state)
    }

    fn fire_trigger(&mut self, ctx: &mut PolicyCtx<'_, '_>, now: SimTime) {
        self.triggered = true;
        let at_ms = now.as_millis();
        telemetry::emit("attack", "trigger", |ev| {
            ev.fields.push(("gets_seen", self.counter.gets().into()));
        });
        self.state
            .borrow_mut()
            .events
            .push(AttackEvent::Trigger { at_ms });
        if let Some(bw) = self.cfg.throttle {
            ctx.set_bandwidth(Direction::ClientToServer, Some(bw));
            ctx.set_bandwidth(Direction::ServerToClient, Some(bw));
            telemetry::emit("attack", "throttle_applied", |_| {});
            self.state
                .borrow_mut()
                .events
                .push(AttackEvent::ThrottleApplied { at_ms });
        }
        if self.cfg.drop_rate > 0.0 && !self.cfg.drop_duration.is_zero() {
            self.drops.open();
            self.drops_started_at = Some(now);
            self.small_record_times.clear();
            ctx.schedule_token(self.cfg.drop_duration, TOKEN_STOP_DROPS);
            telemetry::emit("attack", "drops_started", |ev| {
                ev.fields
                    .push(("duration_ms", self.cfg.drop_duration.as_millis().into()));
            });
            self.state
                .borrow_mut()
                .events
                .push(AttackEvent::DropsStarted { at_ms });
        }
    }

    fn stop_drops(&mut self, now: SimTime) {
        if !self.drops.is_open() {
            return;
        }
        self.drops.close();
        let at_ms = now.as_millis();
        telemetry::emit("attack", "drops_stopped", |ev| {
            ev.fields.push(("dropped", self.drops.dropped().into()));
        });
        let mut st = self.state.borrow_mut();
        st.events.push(AttackEvent::DropsStopped { at_ms });
        if let Some(spacing) = self.cfg.spacing_after_drops {
            self.pacer.set_spacing(Some(spacing));
            st.events.push(AttackEvent::SpacingChanged {
                at_ms,
                to_ms: spacing.as_millis(),
            });
        }
    }
}

impl MiddleboxPolicy for AttackPolicy {
    fn on_packet(
        &mut self,
        ctx: &mut PolicyCtx<'_, '_>,
        dir: Direction,
        pkt: PacketView<'_>,
    ) -> Verdict {
        let now = ctx.now();
        match dir {
            Direction::ClientToServer => {
                let new_gets = self.counter.on_packet(&pkt);
                if new_gets > 0 {
                    telemetry::emit("monitor", "get_counted", |ev| {
                        ev.seq = Some(self.counter.gets());
                        ev.fields.push(("new_gets", new_gets.into()));
                    });
                    telemetry::count("monitor.gets", new_gets);
                    self.state.borrow_mut().gets_seen = self.counter.gets();
                    if !self.triggered && self.counter.gets() >= self.cfg.trigger_get {
                        self.fire_trigger(ctx, now);
                    }
                }
                // Section IV-D: a tight burst of small control records
                // well into the lossy window is the wire signature of the
                // client's RST_STREAM volley (lone WINDOW_UPDATEs are the
                // same size but arrive in isolation) — stop dropping so
                // the follow-up GET is served cleanly.
                if self.drops.is_open() && self.cfg.stop_drops_on_reset {
                    let new_smalls = self.counter.small_signals() - self.small_records_seen;
                    let past_warmup = self
                        .drops_started_at
                        .is_some_and(|t| now.saturating_since(t) > SimDuration::from_millis(1_500));
                    if past_warmup {
                        for _ in 0..new_smalls {
                            self.small_record_times.push_back(now);
                        }
                        let (window, needed) = self.cfg.reset_signature();
                        while self
                            .small_record_times
                            .front()
                            .is_some_and(|t| now.saturating_since(*t) > window)
                        {
                            self.small_record_times.pop_front();
                        }
                        if self.small_record_times.len() >= needed {
                            self.stop_drops(now);
                        }
                    }
                }
                self.small_records_seen = self.counter.small_signals();
                if pkt.payload_len() >= PACE_MIN_PAYLOAD {
                    let delay = self.pacer.admit(now);
                    if !delay.is_zero() {
                        self.state.borrow_mut().packets_delayed += 1;
                        return Verdict::Delay(delay);
                    }
                }
                Verdict::Forward
            }
            Direction::ServerToClient => {
                if self.drops.should_drop(ctx.rng(), pkt.payload_len()) {
                    telemetry::count("attack.packets_dropped", 1);
                    self.state.borrow_mut().packets_dropped = self.drops.dropped();
                    Verdict::Drop
                } else {
                    Verdict::Forward
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut PolicyCtx<'_, '_>, token: u64) {
        if token == TOKEN_STOP_DROPS {
            self.stop_drops(ctx.now());
        }
    }

    fn name(&self) -> &'static str {
        "h2priv-attack"
    }
}

impl core::fmt::Debug for AttackPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AttackPolicy")
            .field("cfg", &self.cfg)
            .field("triggered", &self.triggered)
            .field("gets", &self.counter.gets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_match_paper_parameters() {
        let full = AttackConfig::full_attack();
        assert_eq!(full.spacing, Some(SimDuration::from_millis(50)));
        assert_eq!(full.throttle, Some(Bandwidth::mbps(800)));
        assert!((full.drop_rate - 0.8).abs() < 1e-12);
        assert_eq!(full.drop_duration, SimDuration::from_secs(6));
        assert_eq!(full.spacing_after_drops, Some(SimDuration::from_millis(80)));
        assert_eq!(full.trigger_get, 6);

        let j = AttackConfig::jitter_only(SimDuration::from_millis(25));
        assert_eq!(j.spacing, Some(SimDuration::from_millis(25)));
        assert!(j.throttle.is_none());
        assert_eq!(j.drop_rate, 0.0);

        let z = AttackConfig::jitter_only(SimDuration::ZERO);
        assert!(z.spacing.is_none(), "zero jitter means no pacing");
    }

    #[test]
    fn transport_defaults_to_tcp_and_builder_switches() {
        let full = AttackConfig::full_attack();
        assert_eq!(full.transport, TransportKind::Tcp);
        assert_eq!(full.reset_signature(), (SimDuration::from_millis(120), 3));
        let h3 = full.with_transport(TransportKind::Quic);
        assert_eq!(h3.transport, TransportKind::Quic);
        assert_eq!(h3.reset_signature(), (SimDuration::from_millis(40), 4));
    }

    #[test]
    fn state_handle_is_shared() {
        let (policy, state) = AttackPolicy::new(AttackConfig::full_attack());
        assert_eq!(state.borrow().gets_seen, 0);
        drop(policy);
        assert!(state.borrow().events.is_empty());
    }
}
