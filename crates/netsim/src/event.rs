//! The discrete-event queue: two [`EventHeap`]s, one for timers and one
//! for fault events, and one *lane* per link for that link's
//! serialization and delivery events.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotone counter assigned at scheduling time, so simultaneous events are
//! dispatched in the order they were scheduled. This tie-break makes the
//! whole simulation deterministic. `EventQueue` owns the one counter
//! that numbers every event, in either heap or any lane, so
//! `EventQueue::pop_until` returns exactly the order one heap holding
//! every event would. A timer's `seq` is also its [`TimerId`].
//!
//! Timers and fault events live in separate heaps so that a timer entry
//! stays 24 bytes (time, `seq`, node) while a fault event carries a
//! whole [`Packet`]; most trials schedule no fault event at all.
//!
//! A lane needs no heap because of two invariants of the link model,
//! both asserted at push:
//! - a link serializes one packet at a time, so at most one
//!   `LinkTxComplete` is pending per link: the lane's `tx` slot;
//! - every delivery is scheduled at `now + delay`, `now` never decreases
//!   and a link's delay never changes, so a lane's deliveries arrive in
//!   time order and a FIFO keeps them sorted.
//!
//! A pop therefore takes the least `(time, seq)` among the two heaps' tops
//! and every lane's two heads. Nothing is ever cancelled.

use crate::faults;
use crate::link::LinkId;
use crate::node::{NodeId, TimerId};
use crate::packet::Packet;
use crate::queue::EventHeap;
use crate::time::SimTime;
use std::collections::VecDeque;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A node timer expires; its [`TimerId`] is the event's `seq`.
    NodeTimer { node: NodeId },
    /// A link finishes serializing the packet currently on its wire.
    LinkTxComplete { link: LinkId },
    /// A packet arrives at the receiving end of a link.
    LinkDeliver { link: LinkId, pkt: Packet },
    /// An event of the fault layer.
    Fault(FaultEvent),
}

/// An event of the fault layer: the only kind besides timers that waits
/// in a heap rather than a lane.
#[derive(Debug)]
pub(crate) enum FaultEvent {
    /// A packet held by the fault layer (reordering delay or duplicate
    /// copy) is released to its link.
    Release { link: LinkId, pkt: Packet },
    /// A scripted fault action fires against a link.
    Action {
        link: LinkId,
        action: faults::FaultAction,
    },
}

#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// One link's pending events, each keyed by `(time, seq)`.
struct Lane {
    /// The pending `LinkTxComplete`, while the link serializes a packet.
    tx: Option<(SimTime, u64)>,
    /// Packets in propagation, in delivery order.
    deliveries: VecDeque<(SimTime, u64, Packet)>,
}

/// Initial delivery capacity of a lane, allocated with its link. It
/// covers the packets one link keeps in flight in the pinned trials of
/// `alloc_regression.rs`, so no lane regrows there; at 64 the H3 trial's
/// lanes regrow twice.
const LANE_CAPACITY: usize = 128;

/// Where the earliest pending event waits.
#[derive(Clone, Copy)]
enum Head {
    Timer,
    Fault,
    Tx(usize),
    Deliver(usize),
}

/// A min-ordered queue of scheduled events: timers and fault events in
/// an [`EventHeap`] each, link events in per-link lanes.
#[derive(Default)]
pub(crate) struct EventQueue {
    timers: EventHeap<NodeId>,
    faults: EventHeap<FaultEvent>,
    lanes: Vec<Lane>,
    next_seq: u64,
}

impl EventQueue {
    /// A queue whose timer heap is preallocated for `cap` timers, so the
    /// steady-state timer population never reallocates mid-run. The fault
    /// heap grows on demand.
    pub fn with_capacity(cap: usize) -> EventQueue {
        EventQueue {
            timers: EventHeap::with_capacity(cap),
            ..EventQueue::default()
        }
    }

    /// Creates the lane of a new link. Links are numbered in creation
    /// order, so `link` must be the next index.
    pub fn add_lane(&mut self, link: LinkId) {
        assert_eq!(link.index(), self.lanes.len(), "lanes follow link ids");
        self.lanes.push(Lane {
            tx: None,
            deliveries: VecDeque::with_capacity(LANE_CAPACITY),
        });
    }

    /// The next tie-break `seq`, shared by both heaps and every lane.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules a `NodeTimer` event for `node` at `time`; its id is the
    /// `seq` it is scheduled under, unique for the queue's lifetime.
    pub fn push_timer(&mut self, time: SimTime, node: NodeId) -> TimerId {
        let seq = self.take_seq();
        self.timers.push(time, seq, node);
        TimerId(seq)
    }

    /// Schedules a fault event at absolute time `time`.
    pub fn push_fault(&mut self, time: SimTime, event: FaultEvent) {
        let seq = self.take_seq();
        self.faults.push(time, seq, event);
    }

    /// Schedules `link`'s `LinkTxComplete` at `time`. A link serializes
    /// one packet at a time, so none may be pending.
    pub fn push_tx(&mut self, link: LinkId, time: SimTime) {
        let seq = self.take_seq();
        let lane = &mut self.lanes[link.index()];
        debug_assert!(lane.tx.is_none(), "{link} is already serializing");
        lane.tx = Some((time, seq));
    }

    /// Schedules the delivery of `pkt` over `link` at `time`, which may
    /// not precede the lane's latest delivery.
    pub fn push_delivery(&mut self, link: LinkId, time: SimTime, pkt: Packet) {
        let seq = self.take_seq();
        let lane = &mut self.lanes[link.index()];
        debug_assert!(
            lane.deliveries.back().is_none_or(|last| last.0 <= time),
            "{link} delivers out of order"
        );
        lane.deliveries.push_back((time, seq, pkt));
    }

    /// Removes and returns the earliest event if it is due no later than
    /// `deadline`; otherwise leaves the queue as it is.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent> {
        let mut best = self.timers.peek_key();
        let mut head = Head::Timer;
        if let Some(key) = self.faults.peek_key() {
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                head = Head::Fault;
            }
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(key) = lane.tx {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    head = Head::Tx(i);
                }
            }
            if let Some(&(time, seq, _)) = lane.deliveries.front() {
                if best.is_none_or(|b| (time, seq) < b) {
                    best = Some((time, seq));
                    head = Head::Deliver(i);
                }
            }
        }
        let (time, seq) = best?;
        if time > deadline {
            return None;
        }
        let kind = match head {
            Head::Timer => EventKind::NodeTimer {
                node: self.timers.pop().expect("the timer heap's top").payload,
            },
            Head::Fault => {
                EventKind::Fault(self.faults.pop().expect("the fault heap's top").payload)
            }
            Head::Tx(i) => {
                self.lanes[i].tx = None;
                EventKind::LinkTxComplete {
                    link: LinkId::from_raw(i),
                }
            }
            Head::Deliver(i) => {
                let (_, _, pkt) = self.lanes[i]
                    .deliveries
                    .pop_front()
                    .expect("the lane's head is pending");
                EventKind::LinkDeliver {
                    link: LinkId::from_raw(i),
                    pkt,
                }
            }
        };
        Some(ScheduledEvent { time, seq, kind })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.timers.len()
            + self.faults.len()
            + self
                .lanes
                .iter()
                .map(|l| usize::from(l.tx.is_some()) + l.deliveries.len())
                .sum::<usize>()
    }
}

impl core::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAction;
    use crate::packet::{FlowId, HostAddr, PacketId, TcpFlags, TcpHeader};
    use crate::time::SimDuration;
    use h2priv_util::bytes::Bytes;
    use h2priv_util::check::{self, Gen};

    fn pop(q: &mut EventQueue) -> Option<ScheduledEvent> {
        q.pop_until(SimTime::MAX)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push_timer(SimTime::from_millis(30), NodeId(0));
        q.push_timer(SimTime::from_millis(10), NodeId(0));
        q.push_timer(SimTime::from_millis(20), NodeId(0));
        let order: Vec<u64> = std::iter::from_fn(|| pop(&mut q))
            .map(|e| e.time.as_millis())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::default();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push_timer(t, NodeId(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| pop(&mut q))
            .map(|e| match e.kind {
                EventKind::NodeTimer { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn with_capacity_preallocates_and_behaves_identically() {
        let mut q = EventQueue::with_capacity(64);
        assert_eq!(q.len(), 0);
        q.push_timer(SimTime::from_millis(2), NodeId(0));
        q.push_timer(SimTime::from_millis(1), NodeId(0));
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&mut q).unwrap().time, SimTime::from_millis(1));
        assert_eq!(pop(&mut q).unwrap().time, SimTime::from_millis(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_until_leaves_later_events_pending() {
        let mut q = EventQueue::default();
        assert!(q.pop_until(SimTime::MAX).is_none());
        q.push_timer(SimTime::from_millis(9), NodeId(0));
        q.push_timer(SimTime::from_millis(3), NodeId(0));
        assert!(q.pop_until(SimTime::from_millis(2)).is_none());
        assert_eq!(q.len(), 2);
        let due = q.pop_until(SimTime::from_millis(3)).expect("due at 3 ms");
        assert_eq!(due.time, SimTime::from_millis(3));
        assert!(q.pop_until(SimTime::from_millis(8)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn timer_ids_are_the_seqs_they_pop_with() {
        let mut q = EventQueue::default();
        q.push_fault(
            SimTime::from_millis(1),
            FaultEvent::Action {
                link: LinkId::from_raw(0),
                action: FaultAction::LinkDown,
            },
        );
        let a = q.push_timer(SimTime::from_millis(2), NodeId(0));
        let b = q.push_timer(SimTime::from_millis(2), NodeId(1));
        assert_eq!((a, b), (TimerId(1), TimerId(2)));
        assert_eq!(pop(&mut q).map(|e| e.seq), Some(0));
        assert_eq!(pop(&mut q).map(|e| TimerId(e.seq)), Some(a));
        assert_eq!(pop(&mut q).map(|e| TimerId(e.seq)), Some(b));
        assert!(pop(&mut q).is_none());
    }

    /// What the model knows of a pending event: its kind, its link (or
    /// timer id) and, for packets, the packet's id.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Tag {
        Timer(u64),
        Release(usize, u64),
        Action(usize),
        Tx(usize),
        Deliver(usize, u64),
    }

    /// A timer's tag is the id `push_timer` returned, so comparing tags
    /// also checks that a timer pops with its id as its `seq`.
    fn tag(ev: &ScheduledEvent) -> Tag {
        match &ev.kind {
            EventKind::NodeTimer { .. } => Tag::Timer(ev.seq),
            EventKind::Fault(FaultEvent::Release { link, pkt }) => {
                Tag::Release(link.index(), pkt.id.0)
            }
            EventKind::Fault(FaultEvent::Action { link, .. }) => Tag::Action(link.index()),
            EventKind::LinkTxComplete { link } => Tag::Tx(link.index()),
            EventKind::LinkDeliver { link, pkt } => Tag::Deliver(link.index(), pkt.id.0),
        }
    }

    fn packet(id: u64) -> Packet {
        let header = TcpHeader {
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
        };
        let mut pkt = Packet::new(header, Bytes::new());
        pkt.id = PacketId(id);
        pkt
    }

    fn in_heap(tag: Tag) -> bool {
        matches!(tag, Tag::Timer(_) | Tag::Release(..) | Tag::Action(_))
    }

    /// The specification: every pending `(time, seq, tag)` in one `Vec`,
    /// the earliest found by a linear scan.
    #[derive(Default)]
    struct Model {
        live: Vec<(SimTime, u64, Tag)>,
        next_seq: u64,
        /// Pops whose instant a heap event and a lane event shared.
        mixed_ties: usize,
    }

    impl Model {
        fn push(&mut self, time: SimTime, tag: Tag) {
            self.live.push((time, self.next_seq, tag));
            self.next_seq += 1;
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Tag)> {
            let pos = (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))?;
            let time = self.live[pos].0;
            if time > deadline {
                return None;
            }
            let tied = |heap| {
                self.live
                    .iter()
                    .any(|e| e.0 == time && in_heap(e.2) == heap)
            };
            if tied(true) && tied(false) {
                self.mixed_ties += 1;
            }
            Some(self.live.swap_remove(pos))
        }
    }

    /// The queue and the model driven in lockstep over `links` lanes.
    struct Lockstep {
        queue: EventQueue,
        model: Model,
        /// Each link's latest delivery time.
        last_delivery: Vec<SimTime>,
        next_packet: u64,
    }

    impl Lockstep {
        fn new(links: usize) -> Lockstep {
            let mut queue = EventQueue::default();
            for i in 0..links {
                queue.add_lane(LinkId::from_raw(i));
            }
            Lockstep {
                queue,
                model: Model::default(),
                last_delivery: vec![SimTime::ZERO; links],
                next_packet: 0,
            }
        }

        fn links(&self) -> usize {
            self.last_delivery.len()
        }

        fn tx_pending(&self, link: usize) -> bool {
            self.model.live.iter().any(|e| e.2 == Tag::Tx(link))
        }

        fn push_timer(&mut self, time: SimTime) {
            let id = self.queue.push_timer(time, NodeId(0)).0;
            self.model.push(time, Tag::Timer(id));
        }

        fn push_fault(&mut self, time: SimTime, link: usize, release: bool) {
            let lid = LinkId::from_raw(link);
            if release {
                let pkt = packet(self.next_packet);
                self.model.push(time, Tag::Release(link, self.next_packet));
                self.next_packet += 1;
                self.queue
                    .push_fault(time, FaultEvent::Release { link: lid, pkt });
            } else {
                self.model.push(time, Tag::Action(link));
                let action = FaultAction::LinkDown;
                self.queue
                    .push_fault(time, FaultEvent::Action { link: lid, action });
            }
        }

        fn push_tx(&mut self, time: SimTime, link: usize) {
            self.queue.push_tx(LinkId::from_raw(link), time);
            self.model.push(time, Tag::Tx(link));
        }

        fn push_delivery(&mut self, time: SimTime, link: usize) {
            let id = self.next_packet;
            self.next_packet += 1;
            self.queue
                .push_delivery(LinkId::from_raw(link), time, packet(id));
            self.model.push(time, Tag::Deliver(link, id));
            self.last_delivery[link] = time;
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Tag)> {
            let got = self.queue.pop_until(deadline);
            let want = self.model.pop_until(deadline);
            assert_eq!(
                got.as_ref().map(|e| (e.time, e.seq, tag(e))),
                want,
                "pop_until({deadline:?}) diverged"
            );
            want
        }

        fn assert_len(&self) {
            assert_eq!(self.queue.len(), self.model.live.len(), "len diverged");
        }
    }

    /// A time at or a little after `now` on a coarse grid, so events of
    /// different kinds and links often share an instant.
    fn soon(g: &mut Gen, now: SimTime) -> SimTime {
        let step = match g.u8(0, 3) {
            0 => 0,
            1 | 2 => g.u64(1, 4),
            _ => g.u64(5, 200),
        };
        now + SimDuration::from_micros(10 * step)
    }

    /// Runs one workload; returns its pops that broke a tie between a
    /// heap event and a lane event.
    fn run_lockstep(g: &mut Gen, ops: usize) -> usize {
        let mut q = Lockstep::new(g.usize(4, 8));
        let mut now = SimTime::ZERO;
        for _ in 0..ops {
            let link = g.usize(0, q.links() - 1);
            let popped = match g.u8(0, 13) {
                0 | 1 => {
                    q.push_timer(soon(g, now));
                    None
                }
                2 => {
                    let release = g.bool(0.5);
                    q.push_fault(soon(g, now), link, release);
                    None
                }
                3 | 4 => {
                    if !q.tx_pending(link) {
                        q.push_tx(soon(g, now), link);
                    }
                    None
                }
                5..=7 => {
                    let time = soon(g, now).max(q.last_delivery[link]);
                    q.push_delivery(time, link);
                    None
                }
                8..=10 => q.pop_until(SimTime::MAX),
                _ => {
                    let deadline = soon(g, now);
                    q.pop_until(deadline)
                }
            };
            if let Some((t, _, _)) = popped {
                now = t;
            }
            q.assert_len();
        }
        while q.pop_until(SimTime::MAX).is_some() {
            q.assert_len();
        }
        assert_eq!(q.queue.len(), 0);
        q.model.mixed_ties
    }

    #[test]
    fn lanes_and_heap_pop_like_one_model_queue() {
        let mut mixed_ties = 0;
        check::run("event-queue-lanes-model", 256, |g| {
            let ops = g.usize(32, 600);
            mixed_ties += run_lockstep(g, ops);
        });
        assert!(mixed_ties > 1_000, "only {mixed_ties} heap/lane ties");
    }
}
