//! The node abstraction and the context handed to node callbacks.
//!
//! A [`Node`] is anything attached to the simulated network: the client
//! host, the server host, or the adversary's middlebox. Nodes react to
//! packet arrivals and timer expiries; everything they can do to the world
//! (send packets, schedule timers, tweak links) goes through [`Ctx`], which
//! keeps the borrow structure simple and the simulation deterministic.

use crate::capture::CaptureEvent;
use crate::link::LinkId;
use crate::packet::{Packet, PacketId};
use crate::rng::SimRng;
use crate::sim::World;
use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;
use core::fmt;

/// Identifies a node within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable for the lifetime of the simulator).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a scheduled timer; returned by [`Ctx::schedule`] and passed
/// back to [`Node::on_timer`] when it fires.
///
/// It is the sequence number the timer was scheduled under, so no two
/// timers of one simulator ever share an id. A timer cannot be cancelled:
/// a node that no longer wants one keeps the id in a map of pending
/// purposes and ignores it when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A participant in the simulation.
///
/// Implementations live in higher-level crates: TCP/HTTP2 hosts in
/// `h2priv-h2`, the adversary middlebox in this crate (driven by a policy
/// from `h2priv-core`).
pub trait Node {
    /// Called once when the simulation starts, before any event fires.
    /// The default does nothing; initiating nodes (e.g. a client that must
    /// open a connection) override this to schedule their first action.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet arrived on `from` (a link whose destination is this node).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: LinkId, pkt: Packet);

    /// A timer scheduled by this node fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId);
}

/// The capabilities available to a node during a callback.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) world: &'a mut World,
}

impl<'a> Ctx<'a> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    /// Sends `pkt` on `link`, assigning it a fresh packet id.
    ///
    /// # Panics
    /// Panics if `link` does not originate at this node — a node can only
    /// transmit on its own egress links.
    pub fn send(&mut self, link: LinkId, mut pkt: Packet) -> PacketId {
        let from = self.world.links.origin_of(link);
        assert_eq!(
            from, self.node,
            "node {} attempted to send on link {} owned by {}",
            self.node, link, from
        );
        let id = PacketId(self.world.next_packet_id);
        self.world.next_packet_id += 1;
        pkt.id = id;
        self.world.submit(self.now, link, pkt);
        id
    }

    /// Schedules a timer to fire `after` from now; returns its id.
    pub fn schedule(&mut self, after: SimDuration) -> TimerId {
        self.schedule_at(self.now + after)
    }

    /// Schedules a timer at the absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime) -> TimerId {
        let at = at.max(self.now);
        self.world.queue.push_timer(at, self.node)
    }

    /// The link carrying traffic in the opposite direction of `link`, if
    /// the topology registered one.
    pub fn reverse_link(&self, link: LinkId) -> Option<LinkId> {
        self.world.links.reverse_of(link)
    }

    /// All links originating at this node, in creation order.
    pub fn egress_links(&self) -> Vec<LinkId> {
        self.world.links.links_from(self.node)
    }

    /// Replaces the bandwidth of `link` (`None` removes the constraint).
    ///
    /// Takes effect for packets whose serialization starts after this call;
    /// a packet already on the wire finishes at its original rate. Without
    /// a constraint, the packets queued behind it (and any sent meanwhile)
    /// then leave in order with zero serialization time: a link never
    /// reorders.
    pub fn set_link_bandwidth(&mut self, link: LinkId, bw: Option<Bandwidth>) {
        self.world.links.set_bandwidth(link, bw);
    }

    /// Replaces the random loss probability of `link`.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.world.links.set_loss(link, loss);
    }

    /// Records a capture event into the attached sink, if any.
    pub fn capture(&mut self, ev: &CaptureEvent<'_>) {
        self.world.capture(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::{FlowId, HostAddr, TcpFlags, TcpHeader};
    use crate::sim::Simulator;
    use h2priv_util::bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every timer a node saw fire, as `(node, id)`, in dispatch order.
    type Fired = Rc<RefCell<Vec<(NodeId, TimerId)>>>;

    struct Sender {
        out: Option<LinkId>,
        sent: u32,
        scheduled: Vec<TimerId>,
        fired: Fired,
    }
    struct Receiver {
        got: Vec<u32>,
    }

    fn pkt(seq: u32) -> Packet {
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
            Bytes::new(),
        )
    }

    impl Sender {
        fn new(fired: &Fired) -> Sender {
            Sender {
                out: None,
                sent: 0,
                scheduled: Vec::new(),
                fired: Rc::clone(fired),
            }
        }
    }

    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.out = ctx.egress_links().first().copied();
            self.scheduled
                .push(ctx.schedule(SimDuration::from_millis(1)));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: LinkId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
            self.fired.borrow_mut().push((ctx.node_id(), timer));
            if let Some(link) = self.out {
                ctx.send(link, pkt(self.sent));
            }
            self.sent += 1;
            if self.sent < 3 {
                self.scheduled
                    .push(ctx.schedule(SimDuration::from_millis(1)));
            }
        }
    }

    impl Node for Receiver {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
            self.got.push(pkt.header.seq);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId) {}
    }

    /// Two nodes schedule their timers at the same instants. Each
    /// `on_timer` gets an id its own node's `schedule` returned, in the
    /// order that node scheduled them: the endpoints key their pending
    /// timers by id and rely on exactly this.
    #[test]
    fn timers_and_sends_deliver_in_order() {
        let fired = Fired::default();
        let mut sim = Simulator::new(1);
        let s = sim.add_node(Sender::new(&fired));
        let r = sim.add_node(Receiver { got: vec![] });
        let twin = sim.add_node(Sender::new(&fired));
        sim.connect(s, r, LinkConfig::lan());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node_ref::<Receiver>(r).got, vec![0, 1, 2]);

        let ids = |node| sim.node_ref::<Sender>(node).scheduled.clone();
        let (mine, theirs) = (ids(s), ids(twin));
        assert_eq!((mine.len(), theirs.len()), (3, 3));
        let fired = fired.borrow();
        let fired_at =
            |node| -> Vec<TimerId> { fired.iter().filter(|f| f.0 == node).map(|f| f.1).collect() };
        assert_eq!(fired_at(s), mine);
        assert_eq!(fired_at(twin), theirs);
        // Same instants, so the two nodes' timers interleave, each pair
        // in the order its timers were scheduled.
        let interleaved: Vec<TimerId> = mine
            .iter()
            .zip(&theirs)
            .flat_map(|(&a, &b)| [a, b])
            .collect();
        assert_eq!(fired.iter().map(|f| f.1).collect::<Vec<_>>(), interleaved);
    }
}
