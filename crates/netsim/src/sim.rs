//! The simulator driver: owns the clock, the event queue, the nodes and
//! the links, and dispatches events until the simulation goes idle or a
//! deadline is reached.

use crate::capture::{CaptureEvent, CaptureSink};
use crate::event::{EventKind, EventQueue, FaultEvent, ScheduledEvent};
use crate::faults::{FaultAction, FaultConfig, FaultEngine, FaultStats, FaultVerdict};
use crate::link::{LinkConfig, LinkId, LinkStats, Links, SubmitOutcome};
use crate::node::{Ctx, Node, NodeId, TimerId};
use crate::rng::SimRng;
use crate::slab::{PacketHandle, PacketSlab};
use crate::stats::SimStats;
use crate::time::SimTime;
use h2priv_util::telemetry;

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a node can reach through its [`Ctx`]: links, event queue,
/// packet slab, RNG, capture sink. Kept separate from the node storage so
/// that a node can be mutably borrowed while the world is mutated.
pub(crate) struct World {
    pub queue: EventQueue,
    pub links: Links,
    /// Every packet sent and not yet delivered or dropped; the links, the
    /// lanes and the fault events hold their handles.
    pub packets: PacketSlab,
    pub rng: SimRng,
    pub next_packet_id: u64,
    pub stats: SimStats,
    pub sink: Option<Rc<RefCell<dyn CaptureSink>>>,
    pub faults: FaultEngine,
}

impl World {
    /// Hands the parked packet `pkt` to `link` at time `now`, first
    /// running it through the fault layer (if any faults are attached to
    /// the link). Links without attached faults go straight to
    /// [`World::submit_direct`] and consume no extra RNG draws, so
    /// existing seeded runs are unperturbed. A duplicate is a clone parked
    /// beside the original; a fault drop takes the packet out of the slab.
    pub fn submit(&mut self, now: SimTime, link_id: LinkId, pkt: PacketHandle) {
        match self.faults.evaluate(link_id) {
            FaultVerdict::Pass => self.submit_direct(now, link_id, pkt),
            FaultVerdict::PassAndDuplicate(delay) => {
                let original = self.packets.get(pkt);
                telemetry::emit("netsim", "fault_duplicate", |ev| {
                    ev.seq = Some(original.id.0);
                    ev.fields.push(("link", link_id.0.into()));
                    ev.fields.push(("delay_ns", delay.as_nanos().into()));
                });
                let copy = self.packets.park(original.clone());
                self.queue.push_fault(
                    now + delay,
                    FaultEvent::Release {
                        link: link_id,
                        pkt: copy,
                    },
                );
                self.submit_direct(now, link_id, pkt);
            }
            FaultVerdict::Hold(delay) => {
                let held = self.packets.get(pkt);
                telemetry::emit("netsim", "fault_hold", |ev| {
                    ev.seq = Some(held.id.0);
                    ev.fields.push(("link", link_id.0.into()));
                    ev.fields.push(("delay_ns", delay.as_nanos().into()));
                });
                self.queue
                    .push_fault(now + delay, FaultEvent::Release { link: link_id, pkt });
            }
            FaultVerdict::Drop => {
                let pkt = self.packets.take(pkt);
                telemetry::emit("netsim", "fault_drop", |ev| {
                    ev.seq = Some(pkt.id.0);
                    ev.fields.push(("link", link_id.0.into()));
                    ev.fields.push(("wire_size", pkt.wire_size().into()));
                });
                telemetry::count("netsim.fault_drops", 1);
                self.stats.packets_dropped += 1;
            }
        }
    }

    /// Hands the parked packet `pkt` to `link` at time `now`, scheduling
    /// whatever follow-up events the link model requires; a dropped packet
    /// leaves the slab here. Bypasses the fault layer — used for packets
    /// the fault layer already evaluated (releases, duplicates).
    pub fn submit_direct(&mut self, now: SimTime, link_id: LinkId, pkt: PacketHandle) {
        let draw = self.rng.uniform();
        let wire_size = self.packets.get(pkt).wire_size();
        let link = self.links.get_mut(link_id);
        let outcome = link.submit(pkt, wire_size, draw);
        match outcome {
            SubmitOutcome::StartTx(tx) => self.queue.push_tx(link_id, now + tx),
            SubmitOutcome::Queued => {}
            SubmitOutcome::DeliverAfter(delay) => {
                self.queue.push_delivery(link_id, now + delay, pkt);
            }
            SubmitOutcome::DroppedLoss | SubmitOutcome::DroppedQueue => {
                self.stats.packets_dropped += 1;
                let pkt = self.packets.take(pkt);
                let kind = match outcome {
                    SubmitOutcome::DroppedLoss => "drop_loss",
                    _ => "drop_queue",
                };
                telemetry::emit("netsim", kind, |ev| {
                    ev.seq = Some(pkt.id.0);
                    ev.fields.push(("link", link_id.0.into()));
                    ev.fields.push(("wire_size", pkt.wire_size().into()));
                });
                telemetry::count("netsim.link_drops", 1);
            }
        }
    }

    pub fn capture(&mut self, ev: &CaptureEvent<'_>) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(ev);
        }
    }

    /// Asserts that the slab parks exactly the packets whose handles the
    /// links (wire and queue), the lanes and the fault heap's `Release`
    /// events hold, each handle exactly once.
    fn assert_packets_held(&mut self) {
        let held = self.links.handles().chain(self.queue.handles());
        self.packets.assert_held_exactly(held);
    }
}

trait AnyNode: Node {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn as_any(&self) -> &dyn Any;
}

impl<N: Node + 'static> AnyNode for N {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The deterministic discrete-event simulator.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulator {
    now: SimTime,
    started: bool,
    nodes: Vec<Option<Box<dyn AnyNode>>>,
    world: World,
}

/// Initial timer-heap capacity. Timers peaked at 473 pending over 200 of
/// the benchmark's Table II trials and at 520 over 200 of its H3 transfer
/// trials; preallocating 24 bytes for each of 1,024 keeps the hot
/// push/pop path free of heap growth. Link events wait in their lanes,
/// and fault events in a heap of their own that grows on demand; neither
/// holds a packet, only its handle into the packet slab.
const EVENT_QUEUE_CAPACITY: usize = 1024;

/// Initial packet-slab capacity. The packets parked at once (on a wire,
/// in a link queue, in a lane or held by the fault layer) peaked at 146
/// over the benchmark's 1,000 Table II trials and at 178 over its 1,000
/// H3 transfer trials (medians 88 and 62); 256 slots of 88 bytes, the
/// larger peak rounded up, keep parking free of slab growth there.
const PACKET_SLAB_CAPACITY: usize = 256;

impl Simulator {
    /// Creates an empty simulator whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            started: false,
            nodes: Vec::new(),
            world: World {
                queue: EventQueue::with_capacity(EVENT_QUEUE_CAPACITY),
                links: Links::new(),
                packets: PacketSlab::with_capacity(PACKET_SLAB_CAPACITY),
                rng: SimRng::new(seed),
                next_packet_id: 0,
                stats: SimStats::default(),
                sink: None,
                faults: FaultEngine::default(),
            },
        }
    }

    /// Attaches a capture sink; replaces any previous one.
    pub fn set_capture_sink(&mut self, sink: Rc<RefCell<dyn CaptureSink>>) {
        self.world.sink = Some(sink);
    }

    /// Adds a node, returning its id.
    pub fn add_node<N: Node + 'static>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(Box::new(node)));
        id
    }

    /// Creates a duplex link pair between `a` and `b` with identical
    /// configuration; returns `(a_to_b, b_to_a)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let (ab, ba) = self.world.links.pair(a, b, cfg);
        self.world.queue.add_lane(ab);
        self.world.queue.add_lane(ba);
        (ab, ba)
    }

    /// Creates a single unidirectional link.
    pub fn connect_oneway(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        let link = self.world.links.add(from, to, cfg);
        self.world.queue.add_lane(link);
        link
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if `id` is invalid, the node is currently being dispatched,
    /// or `N` is not its concrete type.
    pub fn node_ref<N: Node + 'static>(&self, id: NodeId) -> &N {
        self.nodes[id.0]
            .as_deref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<N>()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Same conditions as [`Simulator::node_ref`].
    pub fn node_mut<N: Node + 'static>(&mut self, id: NodeId) -> &mut N {
        self.nodes[id.0]
            .as_deref_mut()
            .expect("node is being dispatched")
            .as_any_mut()
            .downcast_mut::<N>()
            .expect("node type mismatch")
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The RNG (e.g. to fork seeds for per-trial structures).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SimStats {
        &self.world.stats
    }

    /// Per-link statistics.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.world.links.stats(link)
    }

    /// Attaches a fault configuration to `link`, replacing any previous
    /// one. The fault layer gets its own RNG stream forked from the
    /// simulator seed (one parent draw), so fault decisions never perturb
    /// the main loss/jitter streams. Scheduled actions are queued as
    /// ordinary events at their configured times.
    pub fn attach_faults(&mut self, link: LinkId, cfg: FaultConfig) {
        let rng = self.world.rng.fork();
        for &(time, action) in &cfg.schedule {
            self.world
                .queue
                .push_fault(time, FaultEvent::Action { link, action });
        }
        self.world.faults.attach(link, cfg, rng);
    }

    /// Per-link fault-layer statistics; `None` when no faults were ever
    /// attached to the link.
    pub fn fault_stats(&self, link: LinkId) -> Option<FaultStats> {
        self.world.faults.stats(link)
    }

    /// Calls every node's `on_start` exactly once, on the first
    /// [`Simulator::run_until`].
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.with_node(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn AnyNode, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut node = self.nodes[id.0].take().expect("node re-entrancy");
        let mut ctx = Ctx {
            now: self.now,
            node: id,
            world: &mut self.world,
        };
        let r = f(node.as_mut(), &mut ctx);
        self.nodes[id.0] = Some(node);
        r
    }

    fn dispatch(&mut self, ev: ScheduledEvent) {
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        telemetry::set_sim_now(self.now.as_nanos());
        self.world.stats.events += 1;
        match ev.kind {
            EventKind::NodeTimer { node } => {
                self.with_node(node, |n, ctx| n.on_timer(ctx, TimerId(ev.seq)));
            }
            EventKind::LinkTxComplete { link } => {
                let wire = self.world.links.get_mut(link);
                let (pkt, next_tx) = wire.tx_complete();
                let arrival = self.now + wire.cfg.delay;
                self.world.queue.push_delivery(link, arrival, pkt);
                if let Some(tx) = next_tx {
                    self.world.queue.push_tx(link, self.now + tx);
                }
            }
            EventKind::LinkDeliver { link, pkt } => {
                let pkt = self.world.packets.take(pkt);
                let to = self.world.links.target_of(link);
                let stats = &mut self.world.links.get_mut(link).stats;
                stats.delivered += 1;
                stats.bytes_delivered += pkt.wire_size() as u64;
                self.world.stats.packets_delivered += 1;
                self.with_node(to, |n, ctx| n.on_packet(ctx, link, pkt));
            }
            EventKind::Fault(FaultEvent::Release { link, pkt }) => {
                self.world.submit_direct(self.now, link, pkt);
            }
            EventKind::Fault(FaultEvent::Action { link, action }) => {
                if !self.world.faults.apply_state_action(link, action) {
                    match action {
                        FaultAction::SetBandwidth(bw) => {
                            self.world.links.set_bandwidth(link, bw);
                        }
                        FaultAction::SetLoss(loss) => self.world.links.set_loss(link, loss),
                        FaultAction::LinkDown | FaultAction::LinkUp => unreachable!(),
                    }
                }
            }
        }
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`; the clock stays at the last processed event. The first
    /// call starts every node. Debug builds then check that every parked
    /// packet has exactly one holder.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(ev) = self.world.queue.pop_until(deadline) {
            self.dispatch(ev);
        }
        if cfg!(debug_assertions) {
            self.world.assert_packets_held();
        }
    }

    /// Number of pending events: timers and fault events in their heaps,
    /// link events in the lanes.
    pub fn pending_events(&self) -> usize {
        self.world.queue.len()
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.world.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Duplicate, GilbertElliott, Reorder};
    use crate::packet::{FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
    use crate::time::SimDuration;
    use crate::units::Bandwidth;
    use h2priv_util::bytes::Bytes;
    use h2priv_util::check::{self, Gen};

    struct Blaster {
        out: Option<LinkId>,
        count: u32,
        payload: usize,
    }
    struct Sink {
        received: Vec<(SimTime, u32)>,
    }

    fn packet(seq: u32, payload: usize) -> Packet {
        Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(0),
                    dst: HostAddr(1),
                    sport: 1,
                    dport: 2,
                },
                seq,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::from(vec![0u8; payload]),
        )
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.out = Some(ctx.egress_links()[0]);
            ctx.schedule(SimDuration::ZERO);
        }
        fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: crate::node::TimerId) {
            let link = self.out.unwrap();
            for i in 0..self.count {
                ctx.send(link, packet(i, self.payload));
            }
        }
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _f: LinkId, p: Packet) {
            self.received.push((ctx.now(), p.header.seq));
        }
        fn on_timer(&mut self, _c: &mut Ctx<'_>, _t: crate::node::TimerId) {}
    }

    fn build(count: u32, payload: usize, cfg: LinkConfig) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(99);
        let b = sim.add_node(Blaster {
            out: None,
            count,
            payload,
        });
        let s = sim.add_node(Sink { received: vec![] });
        sim.connect(b, s, cfg);
        (sim, s)
    }

    #[test]
    fn serialization_spaces_back_to_back_packets() {
        // 1 Mbps: a 125-byte wire packet takes exactly 1 ms to serialize.
        let cfg = LinkConfig {
            bandwidth: Some(crate::units::Bandwidth::mbps(1)),
            delay: SimDuration::from_millis(10),
            queue_bytes: 1 << 20,
            loss: 0.0,
        };
        let (mut sim, s) = build(3, 125 - 54, cfg);
        sim.run_until(SimTime::from_secs(5));
        let recv = &sim.node_ref::<Sink>(s).received;
        assert_eq!(recv.len(), 3);
        // First packet: 1 ms tx + 10 ms prop = 11 ms; then 1 ms apart.
        assert_eq!(recv[0].0, SimTime::from_millis(11));
        assert_eq!(recv[1].0, SimTime::from_millis(12));
        assert_eq!(recv[2].0, SimTime::from_millis(13));
        // FIFO order preserved.
        assert_eq!(recv.iter().map(|r| r.1).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    /// Sends three 1,000-byte packets on a 1 Mbps link and lifts the rate
    /// in the same instant, then sends a fourth 1 ms later, while the
    /// first is still on the wire.
    struct Unthrottler {
        out: Option<LinkId>,
        sent: u32,
    }

    impl Node for Unthrottler {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.out = Some(ctx.egress_links()[0]);
            ctx.schedule(SimDuration::ZERO);
        }
        fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: crate::node::TimerId) {
            let link = self.out.unwrap();
            let burst = if self.sent == 0 { 3 } else { 1 };
            for _ in 0..burst {
                ctx.send(link, packet(self.sent, 1000 - 54));
                self.sent += 1;
            }
            if self.sent == 3 {
                ctx.set_link_bandwidth(link, None);
                ctx.schedule(SimDuration::from_millis(1));
            }
        }
    }

    #[test]
    fn unthrottling_a_busy_link_keeps_send_order() {
        let cfg = LinkConfig {
            bandwidth: Some(crate::units::Bandwidth::mbps(1)),
            delay: SimDuration::from_millis(10),
            queue_bytes: 1 << 20,
            loss: 0.0,
        };
        let mut sim = Simulator::new(7);
        let u = sim.add_node(Unthrottler { out: None, sent: 0 });
        let s = sim.add_node(Sink { received: vec![] });
        sim.connect(u, s, cfg);
        sim.run_until(SimTime::from_secs(1));
        // The first packet keeps its 8 ms at the old rate; the wire frees
        // at 8 ms and the queued ones, the late fourth among them, follow
        // with zero serialization time, each `delay` after that.
        let at = SimTime::from_millis(18);
        assert_eq!(
            sim.node_ref::<Sink>(s).received,
            vec![(at, 0), (at, 1), (at, 2), (at, 3)]
        );
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn full_loss_drops_everything() {
        let cfg = LinkConfig::lan().with_loss(1.0);
        let (mut sim, s) = build(5, 100, cfg);
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.node_ref::<Sink>(s).received.is_empty());
        assert_eq!(sim.stats().packets_dropped, 5);
    }

    #[test]
    fn run_until_respects_deadline() {
        let cfg = LinkConfig {
            bandwidth: Some(crate::units::Bandwidth::mbps(1)),
            delay: SimDuration::from_millis(100),
            queue_bytes: 1 << 20,
            loss: 0.0,
        };
        let (mut sim, s) = build(1, 100, cfg);
        sim.run_until(SimTime::from_millis(50));
        assert!(sim.node_ref::<Sink>(s).received.is_empty());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node_ref::<Sink>(s).received.len(), 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mk = || {
            let cfg = LinkConfig::lan().with_loss(0.3);
            let (mut sim, s) = build(50, 500, cfg);
            sim.run_until(SimTime::from_secs(1));
            sim.node_ref::<Sink>(s).received.clone()
        };
        assert_eq!(mk(), mk());
    }

    /// One step of a [`Storm`]'s script.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `burst` back-to-back packets on egress link `link`.
        Send {
            link: usize,
            burst: u32,
            payload: usize,
        },
        /// Lifts egress link `link`'s bandwidth.
        Lift { link: usize },
    }

    /// Runs a script of sends and bandwidth lifts over its egress links,
    /// one timer per step, and counts what it did.
    struct Storm {
        script: Vec<(SimTime, Step)>,
        next: usize,
        links: Vec<LinkId>,
        sent: u64,
        /// Lifts that found a packet on the link's wire.
        lifted_busy: u64,
    }

    impl Node for Storm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.links = ctx.egress_links();
            // Ties fire in the order scheduled, so in script order.
            for &(at, _) in &self.script {
                ctx.schedule_at(at);
            }
        }
        fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: crate::node::TimerId) {
            let (_, step) = self.script[self.next];
            self.next += 1;
            match step {
                Step::Send {
                    link,
                    burst,
                    payload,
                } => {
                    for i in 0..burst {
                        ctx.send(self.links[link], packet(i, payload));
                        self.sent += 1;
                    }
                }
                Step::Lift { link } => {
                    let link = self.links[link];
                    if ctx.world.links.get_mut(link).transmitting.is_some() {
                        self.lifted_busy += 1;
                    }
                    ctx.set_link_bandwidth(link, None);
                }
            }
        }
    }

    fn random_link(g: &mut Gen) -> LinkConfig {
        LinkConfig {
            bandwidth: g.bool(0.85).then(|| Bandwidth::mbps(g.u64(1, 100))),
            delay: SimDuration::from_micros(g.u64(0, 20_000)),
            queue_bytes: if g.bool(0.4) {
                g.u64(0, 6_000)
            } else {
                1 << 20
            },
            loss: if g.bool(0.5) { g.f64(0.0, 0.3) } else { 0.0 },
        }
    }

    fn random_faults(g: &mut Gen, span: SimDuration) -> FaultConfig {
        let mut cfg = FaultConfig::none();
        if g.bool(0.4) {
            let ge = GilbertElliott::bursty(g.f64(0.01, 0.3), g.f64(1.0, 6.0));
            cfg = cfg.with_burst_loss(ge);
        }
        if g.bool(0.4) {
            cfg = cfg.with_reorder(Reorder {
                probability: g.f64(0.0, 0.4),
                delay_min: SimDuration::from_micros(g.u64(0, 2_000)),
                delay_max: SimDuration::from_micros(g.u64(0, 10_000)),
            });
        }
        if g.bool(0.4) {
            cfg = cfg.with_duplicate(Duplicate {
                probability: g.f64(0.0, 0.3),
                delay: SimDuration::from_micros(g.u64(0, 5_000)),
            });
        }
        if g.bool(0.3) {
            let down_at = SimTime::from_nanos(g.u64(0, span.as_nanos()));
            cfg = cfg.with_flap(down_at, SimDuration::from_micros(g.u64(0, 30_000)));
        }
        cfg
    }

    /// Packet counts across every case, to show that the cases reach
    /// each way a packet can leave the slab or wait in it.
    #[derive(Default, Debug)]
    struct Coverage {
        dropped_loss: u64,
        dropped_queue: u64,
        lifted_busy: u64,
        dropped_burst: u64,
        dropped_down: u64,
        reordered: u64,
        duplicated: u64,
        /// Stops that found packets parked.
        stops_in_flight: u64,
    }

    /// Runs one random case: a [`Storm`] on 2–4 links to a [`Sink`],
    /// stopped at random deadlines and then drained.
    fn run_storm(g: &mut Gen, cov: &mut Coverage) {
        let mut script = Vec::new();
        let mut at = SimTime::ZERO;
        let links = g.usize(2, 4);
        for _ in 0..g.usize(1, 60) {
            at += SimDuration::from_micros(g.u64(0, 3_000));
            let link = g.usize(0, links - 1);
            let step = if g.bool(0.1) {
                Step::Lift { link }
            } else {
                Step::Send {
                    link,
                    burst: g.u32(1, 8),
                    payload: g.usize(0, 1_446),
                }
            };
            script.push((at, step));
        }
        let span = at.saturating_since(SimTime::ZERO) + SimDuration::from_millis(30);

        let mut sim = Simulator::new(g.u64(0, u64::MAX));
        let storm = sim.add_node(Storm {
            script,
            next: 0,
            links: Vec::new(),
            sent: 0,
            lifted_busy: 0,
        });
        let sink = sim.add_node(Sink { received: vec![] });
        let ids: Vec<LinkId> = (0..links)
            .map(|_| sim.connect_oneway(storm, sink, random_link(g)))
            .collect();
        for &link in &ids {
            if g.bool(0.6) {
                sim.attach_faults(link, random_faults(g, span));
            }
        }

        // Every packet sent or injected as a copy is parked until it is
        // delivered or dropped.
        let balance = |sim: &mut Simulator| {
            sim.world.assert_packets_held();
            let sent = sim.node_ref::<Storm>(storm).sent;
            let copies: u64 = ids
                .iter()
                .filter_map(|&l| sim.fault_stats(l))
                .map(|f| f.duplicated)
                .sum();
            let stats = sim.stats();
            assert_eq!(
                stats.packets_delivered,
                sim.node_ref::<Sink>(sink).received.len() as u64
            );
            let parked = sim.world.packets.len() as u64;
            assert_eq!(
                stats.packets_delivered + stats.packets_dropped + parked,
                sent + copies,
                "a packet left the slab unaccounted"
            );
            (sent + copies, parked)
        };
        let mut stops: Vec<u64> = (0..g.usize(1, 4))
            .map(|_| g.u64(0, span.as_nanos()))
            .collect();
        stops.sort_unstable();
        for stop in stops {
            sim.run_until(SimTime::from_nanos(stop));
            let (_, parked) = balance(&mut sim);
            cov.stops_in_flight += u64::from(parked > 0);
        }
        sim.run_until(SimTime::from_secs(3_600));
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(
            sim.world.packets.len(),
            0,
            "the queue is empty, the slab not"
        );
        let (entered, _) = balance(&mut sim);
        assert_eq!(
            sim.stats().packets_delivered + sim.stats().packets_dropped,
            entered
        );

        cov.lifted_busy += sim.node_ref::<Storm>(storm).lifted_busy;
        for &link in &ids {
            let ls = sim.link_stats(link);
            cov.dropped_loss += ls.dropped_loss;
            cov.dropped_queue += ls.dropped_queue;
            if let Some(f) = sim.fault_stats(link) {
                cov.dropped_burst += f.dropped_burst;
                cov.dropped_down += f.dropped_down;
                cov.reordered += f.reordered;
                cov.duplicated += f.duplicated;
            }
        }
    }

    /// The slab parks exactly the packets the network still owns: at
    /// random stops the links, lanes and fault events hold each parked
    /// packet's handle once, every packet that entered is delivered,
    /// dropped or parked, and the slab is empty once the queue is.
    #[test]
    fn the_slab_holds_exactly_the_packets_in_flight() {
        let mut cov = Coverage::default();
        check::run("packet-slab-storm", 256, |g| run_storm(g, &mut cov));
        let reached = [
            cov.dropped_loss,
            cov.dropped_queue,
            cov.lifted_busy,
            cov.dropped_burst,
            cov.dropped_down,
            cov.reordered,
            cov.duplicated,
            cov.stops_in_flight,
        ];
        assert!(reached.iter().all(|&n| n > 0), "{cov:?}");
    }
}
