//! Unidirectional links with bandwidth, propagation delay, a drop-tail
//! queue, and random loss.
//!
//! A duplex connection between two nodes is a pair of links; the topology
//! helpers register each as the other's reverse. Bandwidth is mutable at
//! runtime — that is the primitive behind the adversary's throttling
//! (paper Section IV-C).

use crate::node::NodeId;
use crate::packet::Packet;
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

#[derive(Debug)]
pub(crate) struct Link {
    pub cfg: LinkConfig,
    pub from: NodeId,
    pub to: NodeId,
    pub reverse: Option<LinkId>,
    /// Packet currently being serialized, if any.
    pub transmitting: Option<Packet>,
    pub queue: VecDeque<Packet>,
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
    /// Decides what to do with `pkt`, updating queue state. `lossy_draw`
    /// is the pre-drawn uniform sample for the loss decision (drawn by the
    /// caller so that the RNG lives in one place).
    ///
    /// A packet never overtakes one on the wire or queued: even on an
    /// unconstrained link (throttling lifted mid-transmission) it waits
    /// behind them, so a link delivers in submission order.
    pub(crate) fn submit(
        &mut self,
        pkt: Packet,
        lossy_draw: f64,
    ) -> (SubmitOutcome, Option<Packet>) {
        if self.cfg.loss > 0.0 && lossy_draw < self.cfg.loss {
            self.stats.dropped_loss += 1;
            return (SubmitOutcome::DroppedLoss, Some(pkt));
        }
        self.stats.sent += 1;
        if self.transmitting.is_some() {
            if self.queued_bytes + pkt.wire_size() as u64 <= self.cfg.queue_bytes {
                self.queued_bytes += pkt.wire_size() as u64;
                self.queue.push_back(pkt);
                (SubmitOutcome::Queued, None)
            } else {
                self.stats.sent -= 1; // not actually sent
                self.stats.dropped_queue += 1;
                (SubmitOutcome::DroppedQueue, Some(pkt))
            }
        } else {
            match self.cfg.bandwidth {
                None => (SubmitOutcome::DeliverAfter(self.cfg.delay), Some(pkt)),
                Some(bw) => {
                    let tx = bw.transmit_time(pkt.wire_size());
                    self.transmitting = Some(pkt);
                    (SubmitOutcome::StartTx(tx), None)
                }
            }
        }
    }

    /// Finishes the in-flight packet: returns it plus, if another packet is
    /// queued, the serialization time of the next one (which becomes the
    /// new in-flight packet). Once the link is unconstrained, queued
    /// packets leave in order with zero serialization time.
    pub(crate) fn tx_complete(&mut self) -> (Packet, Option<SimDuration>) {
        let done = self.transmitting.take().expect("tx_complete on idle link");
        let next = self.queue.pop_front().map(|p| {
            self.queued_bytes -= p.wire_size() as u64;
            let tx = self
                .cfg
                .bandwidth
                .map_or(SimDuration::ZERO, |bw| bw.transmit_time(p.wire_size()));
            self.transmitting = Some(p);
            tx
        });
        (done, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, HostAddr, TcpFlags, TcpHeader};
    use h2priv_util::bytes::Bytes;

    fn mk(size: usize) -> Packet {
        Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(0),
                    dst: HostAddr(1),
                    sport: 1,
                    dport: 2,
                },
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::from(vec![0u8; size]),
        )
    }

    #[test]
    fn idle_link_starts_transmitting() {
        let mut l = Link::new(NodeId(0), NodeId(1), LinkConfig::lan());
        let (o, _) = l.submit(mk(1446), 1.0);
        match o {
            SubmitOutcome::StartTx(tx) => {
                // 1500 bytes at 1 Gbps = 12 us
                assert_eq!(tx, SimDuration::from_micros(12));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(l.transmitting.is_some());
    }

    #[test]
    fn busy_link_queues_then_drains_fifo() {
        let mut l = Link::new(NodeId(0), NodeId(1), LinkConfig::lan());
        let _ = l.submit(mk(100), 1.0);
        let mut a = mk(200);
        a.header.seq = 1;
        let mut b = mk(300);
        b.header.seq = 2;
        assert_eq!(l.submit(a, 1.0).0, SubmitOutcome::Queued);
        assert_eq!(l.submit(b, 1.0).0, SubmitOutcome::Queued);

        let (first, next) = l.tx_complete();
        assert_eq!(first.header.seq, 0);
        assert!(next.is_some());
        let (second, next) = l.tx_complete();
        assert_eq!(second.header.seq, 1);
        assert!(next.is_some());
        let (third, next) = l.tx_complete();
        assert_eq!(third.header.seq, 2);
        assert!(next.is_none());
    }

    #[test]
    fn queue_overflow_drops() {
        let mut cfg = LinkConfig::lan();
        cfg.queue_bytes = 100; // too small for one more packet
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let _ = l.submit(mk(1000), 1.0); // in-flight
        let (o, returned) = l.submit(mk(1000), 1.0);
        assert_eq!(o, SubmitOutcome::DroppedQueue);
        assert!(returned.is_some());
        assert_eq!(l.stats.dropped_queue, 1);
    }

    #[test]
    fn loss_draw_below_threshold_drops() {
        let cfg = LinkConfig::lan().with_loss(0.5);
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let (o, _) = l.submit(mk(10), 0.2);
        assert_eq!(o, SubmitOutcome::DroppedLoss);
        let (o, _) = l.submit(mk(10), 0.9);
        assert!(matches!(o, SubmitOutcome::StartTx(_)));
    }

    #[test]
    fn unconstrained_link_delivers_after_delay() {
        let cfg = LinkConfig::unconstrained(SimDuration::from_millis(7));
        let mut l = Link::new(NodeId(0), NodeId(1), cfg);
        let (o, p) = l.submit(mk(10_000), 1.0);
        assert_eq!(o, SubmitOutcome::DeliverAfter(SimDuration::from_millis(7)));
        assert!(p.is_some());
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
