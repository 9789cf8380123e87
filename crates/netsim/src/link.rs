//! Unidirectional links with bandwidth, propagation delay, a drop-tail
//! queue, and random loss.
//!
//! A duplex connection between two nodes is a pair of links; the topology
//! helpers register each as the other's reverse. Bandwidth is mutable at
//! runtime — that is the primitive behind the adversary's throttling
//! (paper Section IV-C).

use crate::node::NodeId;
use crate::slab::PacketHandle;
use crate::time::SimDuration;
use crate::units::Bandwidth;
use core::fmt;
use std::collections::VecDeque;

/// Identifies a link within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index (stable for the lifetime of the simulator).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a `LinkId` from a raw index. Only meaningful for ids that
    /// came from [`Self::index`].
    pub fn from_raw(index: usize) -> LinkId {
        LinkId(index)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Clamps a loss probability into `[0, 1]`; NaN maps to `0`.
///
/// Loss rates can now be composed at runtime (fault schedules, sweeps over
/// computed intensities), so out-of-range values are coerced instead of
/// aborting the whole run. Debug builds log a warning when a value actually
/// had to be clamped.
pub fn clamp_loss(loss: f64) -> f64 {
    if loss.is_nan() {
        #[cfg(debug_assertions)]
        eprintln!("warning: NaN loss probability clamped to 0");
        return 0.0;
    }
    if !(0.0..=1.0).contains(&loss) {
        let clamped = loss.clamp(0.0, 1.0);
        #[cfg(debug_assertions)]
        eprintln!("warning: loss probability {loss} out of range, clamped to {clamped}");
        return clamped;
    }
    loss
}

/// Static configuration of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Serialization rate; `None` models an unconstrained link.
    pub bandwidth: Option<Bandwidth>,
    /// One-way propagation delay. Fixed once the link exists: the event
    /// queue's per-link lanes rely on it to keep deliveries in time order.
    pub delay: SimDuration,
    /// Drop-tail queue capacity in bytes (packets beyond this are dropped).
    /// Packets queue only behind one on the wire, so an unconstrained link
    /// queues only while a packet that started under a rate finishes.
    pub queue_bytes: u64,
    /// Independent random loss probability per packet.
    pub loss: f64,
}

impl LinkConfig {
    /// A fast local link: 1 Gbps, 0.1 ms delay, 256 KiB queue, no loss.
    pub fn lan() -> LinkConfig {
        LinkConfig {
            bandwidth: Some(Bandwidth::gbps(1)),
            delay: SimDuration::from_micros(100),
            queue_bytes: 256 * 1024,
            loss: 0.0,
        }
    }

    /// A wide-area link: 1 Gbps, the given one-way delay, 512 KiB queue.
    pub fn wan(one_way: SimDuration) -> LinkConfig {
        LinkConfig {
            bandwidth: Some(Bandwidth::gbps(1)),
            delay: one_way,
            queue_bytes: 512 * 1024,
            loss: 0.0,
        }
    }

    /// An ideal link with no bandwidth constraint and the given delay.
    pub fn unconstrained(one_way: SimDuration) -> LinkConfig {
        LinkConfig {
            bandwidth: None,
            delay: one_way,
            queue_bytes: u64::MAX,
            loss: 0.0,
        }
    }

    /// Returns `self` with a different bandwidth.
    pub fn with_bandwidth(mut self, bw: Bandwidth) -> LinkConfig {
        self.bandwidth = Some(bw);
        self
    }

    /// Returns `self` with a different loss probability. Out-of-range
    /// values are clamped into `[0, 1]` (see [`clamp_loss`]).
    pub fn with_loss(mut self, loss: f64) -> LinkConfig {
        self.loss = clamp_loss(loss);
        self
    }

    /// Returns `self` with a different propagation delay.
    pub fn with_delay(mut self, delay: SimDuration) -> LinkConfig {
        self.delay = delay;
        self
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::lan()
    }
}

/// Per-link counters, exposed through [`crate::sim::Simulator::link_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub sent: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Packets dropped by random loss.
    pub dropped_loss: u64,
    /// Packets dropped by queue overflow.
    pub dropped_queue: u64,
    /// Payload + header bytes delivered.
    pub bytes_delivered: u64,
}

/// A link holds its packets by handle: each waits in the world's packet
/// slab, and the link owns the handle from the `submit` that accepts it
/// until the `tx_complete` that hands it to the lane.
#[derive(Debug)]
pub(crate) struct Link {
    pub cfg: LinkConfig,
    pub from: NodeId,
    pub to: NodeId,
    pub reverse: Option<LinkId>,
    /// The packet currently being serialized, if any.
    pub transmitting: Option<PacketHandle>,
    /// The drop-tail queue behind it: each packet with its wire size, so
    /// `queued_bytes` and serialization times never read the slab.
    pub queue: VecDeque<(PacketHandle, u32)>,
    pub queued_bytes: u64,
    pub stats: LinkStats,
}

impl Link {
    fn new(from: NodeId, to: NodeId, cfg: LinkConfig) -> Link {
        Link {
            cfg,
            from,
            to,
            reverse: None,
            transmitting: None,
            queue: VecDeque::new(),
            queued_bytes: 0,
            stats: LinkStats::default(),
        }
    }
}

/// The registry of all links in a simulator.
#[derive(Debug, Default)]
pub(crate) struct Links {
    links: Vec<Link>,
}

impl Links {
    pub fn new() -> Links {
        Links::default()
    }

    pub fn add(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link::new(from, to, cfg));
        id
    }

    pub fn pair(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.add(a, b, cfg);
        let ba = self.add(b, a, cfg);
        self.links[ab.0].reverse = Some(ba);
        self.links[ba.0].reverse = Some(ab);
        (ab, ba)
    }

    pub fn get_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    pub fn origin_of(&self, id: LinkId) -> NodeId {
        self.links[id.0].from
    }

    pub fn target_of(&self, id: LinkId) -> NodeId {
        self.links[id.0].to
    }

    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        self.links[id.0].reverse
    }

    pub fn links_from(&self, node: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.from == node)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    pub fn set_bandwidth(&mut self, id: LinkId, bw: Option<Bandwidth>) {
        self.links[id.0].cfg.bandwidth = bw;
    }

    pub fn set_loss(&mut self, id: LinkId, loss: f64) {
        self.links[id.0].cfg.loss = clamp_loss(loss);
    }

    pub fn stats(&self, id: LinkId) -> LinkStats {
        self.links[id.0].stats
    }

    /// The handle of every packet on a wire or in a queue.
    pub fn handles(&self) -> impl Iterator<Item = PacketHandle> + '_ {
        self.links.iter().flat_map(Link::handles)
    }
}

/// What a link does with a packet submitted to it (computed by the world).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// Start serializing now; TxComplete should fire after the duration.
    StartTx(SimDuration),
    /// Queued behind the in-flight packet.
    Queued,
    /// Dropped by random loss.
    DroppedLoss,
    /// Dropped because the queue is full.
    DroppedQueue,
    /// Unconstrained link: deliver directly after the propagation delay.
    DeliverAfter(SimDuration),
}

impl Link {
    /// Decides what to do with the packet `pkt` of `wire_size` bytes,
    /// updating queue state. `lossy_draw` is the pre-drawn uniform sample
    /// for the loss decision (drawn by the caller so that the RNG lives in
    /// one place). The link keeps `pkt` when it starts or queues it; on
    /// any other outcome the caller still holds it.
    ///
    /// A packet never overtakes one on the wire or queued: even on an
    /// unconstrained link (throttling lifted mid-transmission) it waits
    /// behind them, so a link delivers in submission order.
    pub(crate) fn submit(
        &mut self,
        pkt: PacketHandle,
        wire_size: u32,
        lossy_draw: f64,
    ) -> SubmitOutcome {
        if self.cfg.loss > 0.0 && lossy_draw < self.cfg.loss {
            self.stats.dropped_loss += 1;
            return SubmitOutcome::DroppedLoss;
        }
        self.stats.sent += 1;
        if self.transmitting.is_some() {
            if self.queued_bytes + wire_size as u64 <= self.cfg.queue_bytes {
                self.queued_bytes += wire_size as u64;
                self.queue.push_back((pkt, wire_size));
                SubmitOutcome::Queued
            } else {
                self.stats.sent -= 1; // not actually sent
                self.stats.dropped_queue += 1;
                SubmitOutcome::DroppedQueue
            }
        } else {
            match self.cfg.bandwidth {
                None => SubmitOutcome::DeliverAfter(self.cfg.delay),
                Some(bw) => {
                    self.transmitting = Some(pkt);
                    SubmitOutcome::StartTx(bw.transmit_time(wire_size))
                }
            }
        }
    }

    /// Finishes the in-flight packet: returns it plus, if another packet is
    /// queued, the serialization time of the next one (which becomes the
    /// new in-flight packet). Once the link is unconstrained, queued
    /// packets leave in order with zero serialization time.
    pub(crate) fn tx_complete(&mut self) -> (PacketHandle, Option<SimDuration>) {
        let done = self.transmitting.take().expect("tx_complete on idle link");
        let next = self.queue.pop_front().map(|(pkt, wire_size)| {
            self.queued_bytes -= wire_size as u64;
            self.transmitting = Some(pkt);
            self.cfg
                .bandwidth
                .map_or(SimDuration::ZERO, |bw| bw.transmit_time(wire_size))
        });
        (done, next)
    }

    /// The packet on the wire, then the queue in order.
    fn handles(&self) -> impl Iterator<Item = PacketHandle> + '_ {
        let queued = self.queue.iter().map(|&(pkt, _)| pkt);
        self.transmitting.into_iter().chain(queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
    use crate::slab::PacketSlab;
    use h2priv_util::bytes::Bytes;

    /// Parks a packet of `size` payload bytes and sequence number `seq`.
    fn mk(slab: &mut PacketSlab, size: usize, seq: u32) -> (PacketHandle, u32) {
        let pkt = Packet::new(
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
            Bytes::from(vec![0u8; size]),
        );
        let wire_size = pkt.wire_size();
        (slab.park(pkt), wire_size)
    }

    #[test]
    fn idle_link_starts_transmitting() {
        let mut slab = PacketSlab::with_capacity(1);
        let mut l = Link::new(NodeId(0), NodeId(1), LinkConfig::lan());
        let (pkt, wire) = mk(&mut slab, 1446, 0);
        match l.submit(pkt, wire, 1.0) {
            SubmitOutcome::StartTx(tx) => {
                // 1500 bytes at 1 Gbps = 12 us
                assert_eq!(tx, SimDuration::from_micros(12));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(l.transmitting, Some(pkt));
    }

    #[test]
    fn busy_link_queues_then_drains_fifo() {
        let mut slab = PacketSlab::with_capacity(3);
        let mut l = Link::new(NodeId(0), NodeId(1), LinkConfig::lan());
        let (p0, w0) = mk(&mut slab, 100, 0);
        let (p1, w1) = mk(&mut slab, 200, 1);
        let (p2, w2) = mk(&mut slab, 300, 2);
        assert!(matches!(l.submit(p0, w0, 1.0), SubmitOutcome::StartTx(_)));
        assert_eq!(l.submit(p1, w1, 1.0), SubmitOutcome::Queued);
        assert_eq!(l.submit(p2, w2, 1.0), SubmitOutcome::Queued);
        assert_eq!(l.queued_bytes, u64::from(w1 + w2));

        let bw = Bandwidth::gbps(1);
        let (first, next) = l.tx_complete();
        assert_eq!(slab.get(first).header.seq, 0);
        assert_eq!(next, Some(bw.transmit_time(w1)));
        let (second, next) = l.tx_complete();
        assert_eq!(slab.get(second).header.seq, 1);
        assert_eq!(next, Some(bw.transmit_time(w2)));
        let (third, next) = l.tx_complete();
        assert_eq!(slab.get(third).header.seq, 2);
        assert!(next.is_none());
        assert_eq!(l.queued_bytes, 0);
        assert_eq!(l.handles().collect::<Vec<_>>(), vec![]);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut slab = PacketSlab::with_capacity(2);
        let mut cfg = LinkConfig::lan();
        cfg.queue_bytes = 100; // too small for one more packet
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let (on_wire, w) = mk(&mut slab, 1000, 0);
        let _ = l.submit(on_wire, w, 1.0);
        let (pkt, w) = mk(&mut slab, 1000, 1);
        assert_eq!(l.submit(pkt, w, 1.0), SubmitOutcome::DroppedQueue);
        assert_eq!(l.stats.dropped_queue, 1);
        // The link kept only the packet on the wire.
        assert_eq!(l.handles().collect::<Vec<_>>(), vec![on_wire]);
    }

    #[test]
    fn loss_draw_below_threshold_drops() {
        let mut slab = PacketSlab::with_capacity(2);
        let cfg = LinkConfig::lan().with_loss(0.5);
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let (pkt, w) = mk(&mut slab, 10, 0);
        assert_eq!(l.submit(pkt, w, 0.2), SubmitOutcome::DroppedLoss);
        assert!(l.transmitting.is_none());
        let (pkt, w) = mk(&mut slab, 10, 1);
        assert!(matches!(l.submit(pkt, w, 0.9), SubmitOutcome::StartTx(_)));
    }

    #[test]
    fn unconstrained_link_delivers_after_delay() {
        let mut slab = PacketSlab::with_capacity(1);
        let cfg = LinkConfig::unconstrained(SimDuration::from_millis(7));
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let (pkt, w) = mk(&mut slab, 10_000, 0);
        assert_eq!(
            l.submit(pkt, w, 1.0),
            SubmitOutcome::DeliverAfter(SimDuration::from_millis(7))
        );
        assert_eq!(l.handles().collect::<Vec<_>>(), vec![]);
    }

    #[test]
    fn pair_registers_reverse() {
        let mut links = Links::new();
        let (ab, ba) = links.pair(NodeId(0), NodeId(1), LinkConfig::lan());
        assert_eq!(links.reverse_of(ab), Some(ba));
        assert_eq!(links.reverse_of(ba), Some(ab));
        assert_eq!(links.origin_of(ab), NodeId(0));
        assert_eq!(links.target_of(ab), NodeId(1));
        assert_eq!(links.links_from(NodeId(0)), vec![ab]);
    }

    #[test]
    fn invalid_loss_clamped() {
        assert_eq!(LinkConfig::lan().with_loss(1.5).loss, 1.0);
        assert_eq!(LinkConfig::lan().with_loss(-0.2).loss, 0.0);
        assert_eq!(LinkConfig::lan().with_loss(f64::NAN).loss, 0.0);
        assert_eq!(LinkConfig::lan().with_loss(0.25).loss, 0.25);

        let mut links = Links::new();
        let id = links.add(NodeId(0), NodeId(1), LinkConfig::lan());
        links.set_loss(id, 7.0);
        assert_eq!(links.links[id.0].cfg.loss, 1.0);
        links.set_loss(id, f64::NEG_INFINITY);
        assert_eq!(links.links[id.0].cfg.loss, 0.0);
    }
}
