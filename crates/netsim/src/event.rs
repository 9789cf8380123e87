//! The discrete-event queue: an [`EventHeap`] for timers and fault
//! events, and one *lane* per link for that link's serialization and
//! delivery events.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotone counter assigned at scheduling time, so simultaneous events are
//! dispatched in the order they were scheduled. This tie-break makes the
//! whole simulation deterministic. The heap's counter numbers every
//! event, lane events included, so `EventQueue::pop` returns exactly
//! the order one heap holding every event would.
//!
//! A lane needs no heap because of two invariants of the link model,
//! both asserted at push:
//! - a link serializes one packet at a time, so at most one
//!   `LinkTxComplete` is pending per link: the lane's `tx` slot;
//! - every delivery is scheduled at `now + delay`, `now` never decreases
//!   and a link's delay never changes, so a lane's deliveries arrive in
//!   time order and a FIFO keeps them sorted.
//!
//! A pop therefore takes the least `(time, seq)` among the heap's top and
//! every lane's two heads. A cancelled timer leaves a tombstone in the
//! heap that `pop` skips; lane events are never cancelled.

use crate::faults;
use crate::link::LinkId;
use crate::node::{NodeId, TimerId};
use crate::packet::Packet;
use crate::queue::{EventHeap, Handle};
use crate::time::SimTime;
use std::collections::VecDeque;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A node timer expires.
    NodeTimer { node: NodeId, timer: TimerId },
    /// A link finishes serializing the packet currently on its wire.
    LinkTxComplete { link: LinkId },
    /// A packet arrives at the receiving end of a link.
    LinkDeliver { link: LinkId, pkt: Packet },
    /// A packet held by the fault layer (reordering delay or duplicate
    /// copy) is released to its link.
    FaultRelease { link: LinkId, pkt: Packet },
    /// A scripted fault action fires against a link.
    FaultAction {
        link: LinkId,
        action: faults::FaultAction,
    },
}

#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    #[allow(dead_code)] // read by the model test, which checks the tie-break order
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
    Heap,
    Tx(usize),
    Deliver(usize),
}

/// A min-ordered queue of scheduled events: timers and fault events in
/// an [`EventHeap`], link events in per-link lanes.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: EventHeap<EventKind>,
    lanes: Vec<Lane>,
}

impl EventQueue {
    /// A queue whose heap storage is preallocated for `cap` events, so
    /// the steady-state timer population never reallocates mid-run.
    pub fn with_capacity(cap: usize) -> EventQueue {
        EventQueue {
            heap: EventHeap::with_capacity(cap),
            lanes: Vec::new(),
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

    /// Schedules a timer or fault event at absolute time `time`. Link
    /// events go through [`EventQueue::push_tx`] and
    /// [`EventQueue::push_delivery`].
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(
            !matches!(
                kind,
                EventKind::LinkTxComplete { .. } | EventKind::LinkDeliver { .. }
            ),
            "link events belong in their lane"
        );
        self.heap.push(time, kind);
    }

    /// Schedules a `NodeTimer` event for `node` at `time`; the returned
    /// [`TimerId`] wraps the slab handle, so it can later be cancelled in
    /// O(1) via [`EventQueue::cancel`].
    pub fn push_timer(&mut self, time: SimTime, node: NodeId) -> TimerId {
        let handle = self.heap.push_with(time, |handle| EventKind::NodeTimer {
            node,
            timer: TimerId(handle.raw()),
        });
        TimerId(handle.raw())
    }

    /// Schedules `link`'s `LinkTxComplete` at `time`. A link serializes
    /// one packet at a time, so none may be pending.
    pub fn push_tx(&mut self, link: LinkId, time: SimTime) {
        let seq = self.heap.take_seq();
        let lane = &mut self.lanes[link.index()];
        debug_assert!(lane.tx.is_none(), "{link} is already serializing");
        lane.tx = Some((time, seq));
    }

    /// Schedules the delivery of `pkt` over `link` at `time`, which may
    /// not precede the lane's latest delivery.
    pub fn push_delivery(&mut self, link: LinkId, time: SimTime, pkt: Packet) {
        let seq = self.heap.take_seq();
        let lane = &mut self.lanes[link.index()];
        debug_assert!(
            lane.deliveries.back().is_none_or(|last| last.0 <= time),
            "{link} delivers out of order"
        );
        lane.deliveries.push_back((time, seq, pkt));
    }

    /// Cancels a pending timer event. Stale ids (already fired or already
    /// cancelled) are a no-op; returns whether a live event was removed.
    pub fn cancel(&mut self, timer: TimerId) -> bool {
        self.heap.cancel(Handle::from_raw(timer.0)).is_some()
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due no later than
    /// `deadline`; otherwise leaves the queue as it is.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent> {
        let mut best = self.heap.peek_key();
        let mut head = Head::Heap;
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
            Head::Heap => {
                let p = self.heap.pop().expect("the heap's top is live");
                p.payload
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
        self.heap.len()
            + self
                .lanes
                .iter()
                .map(|l| usize::from(l.tx.is_some()) + l.deliveries.len())
                .sum::<usize>()
    }

    /// Number of cancelled timers whose tombstones are still in the heap.
    pub fn dead(&self) -> usize {
        self.heap.dead()
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

    fn timer(node: usize, t: u64) -> EventKind {
        EventKind::NodeTimer {
            node: NodeId(node),
            timer: TimerId(t),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_millis(30), timer(0, 0));
        q.push(SimTime::from_millis(10), timer(0, 1));
        q.push(SimTime::from_millis(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_millis())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::default();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::NodeTimer { timer, .. } => timer.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn with_capacity_preallocates_and_behaves_identically() {
        let mut q = EventQueue::with_capacity(64);
        assert_eq!(q.len(), 0);
        q.push(SimTime::from_millis(2), timer(0, 0));
        q.push(SimTime::from_millis(1), timer(0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().time, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().time, SimTime::from_millis(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_until_leaves_later_events_pending() {
        let mut q = EventQueue::default();
        assert!(q.pop_until(SimTime::MAX).is_none());
        q.push(SimTime::from_millis(9), timer(0, 0));
        q.push(SimTime::from_millis(3), timer(0, 1));
        assert!(q.pop_until(SimTime::from_millis(2)).is_none());
        assert_eq!(q.len(), 2);
        let due = q.pop_until(SimTime::from_millis(3)).expect("due at 3 ms");
        assert_eq!(due.time, SimTime::from_millis(3));
        assert!(q.pop_until(SimTime::from_millis(8)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn timer_events_cancel_exactly_once() {
        let mut q = EventQueue::default();
        let a = q.push_timer(SimTime::from_millis(1), NodeId(0));
        let b = q.push_timer(SimTime::from_millis(2), NodeId(0));
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        let fired = q.pop().expect("b still pending");
        match fired.kind {
            EventKind::NodeTimer { timer, .. } => assert_eq!(timer, b),
            _ => unreachable!(),
        }
        assert!(!q.cancel(b), "cancel after fire is a no-op");
        assert_eq!(q.len(), 0);
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

    fn tag(kind: &EventKind) -> Tag {
        match kind {
            EventKind::NodeTimer { timer, .. } => Tag::Timer(timer.0),
            EventKind::FaultRelease { link, pkt } => Tag::Release(link.index(), pkt.id.0),
            EventKind::FaultAction { link, .. } => Tag::Action(link.index()),
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
    /// the earliest found by a linear scan, and the keys of cancelled
    /// timers the heap still holds as tombstones.
    #[derive(Default)]
    struct Model {
        live: Vec<(SimTime, u64, Tag)>,
        tombstones: Vec<(SimTime, u64)>,
        next_seq: u64,
        /// Pops whose instant a heap event and a lane event shared.
        mixed_ties: usize,
    }

    impl Model {
        fn push(&mut self, time: SimTime, tag: Tag) {
            self.live.push((time, self.next_seq, tag));
            self.next_seq += 1;
        }

        fn cancel(&mut self, id: u64) -> bool {
            let Some(pos) = self.live.iter().position(|e| e.2 == Tag::Timer(id)) else {
                return false;
            };
            let (time, seq, _) = self.live.swap_remove(pos);
            self.tombstones.push((time, seq));
            true
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Tag)> {
            // The heap drops the tombstones above its earliest live event.
            let heap_min = self
                .live
                .iter()
                .filter(|e| in_heap(e.2))
                .map(|e| (e.0, e.1))
                .min();
            self.tombstones
                .retain(|&key| heap_min.is_some_and(|min| key > min));
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

        fn push_timer(&mut self, time: SimTime) -> u64 {
            let id = self.queue.push_timer(time, NodeId(0)).0;
            self.model.push(time, Tag::Timer(id));
            id
        }

        fn push_fault(&mut self, time: SimTime, link: usize, release: bool) {
            let lid = LinkId::from_raw(link);
            if release {
                let pkt = packet(self.next_packet);
                self.model.push(time, Tag::Release(link, self.next_packet));
                self.next_packet += 1;
                self.queue
                    .push(time, EventKind::FaultRelease { link: lid, pkt });
            } else {
                self.model.push(time, Tag::Action(link));
                let action = FaultAction::LinkDown;
                self.queue
                    .push(time, EventKind::FaultAction { link: lid, action });
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
                got.as_ref().map(|e| (e.time, e.seq, tag(&e.kind))),
                want,
                "pop_until({deadline:?}) diverged"
            );
            want
        }

        fn pop(&mut self) -> Option<(SimTime, u64, Tag)> {
            let got = self.queue.pop();
            let want = self.model.pop_until(SimTime::MAX);
            assert_eq!(
                got.as_ref().map(|e| (e.time, e.seq, tag(&e.kind))),
                want,
                "pop diverged"
            );
            want
        }

        fn assert_counts(&self) {
            assert_eq!(self.queue.len(), self.model.live.len(), "len diverged");
            assert_eq!(
                self.queue.dead(),
                self.model.tombstones.len(),
                "dead diverged"
            );
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
        let mut timers: Vec<u64> = Vec::new();
        let mut spent: Vec<u64> = Vec::new();
        for _ in 0..ops {
            let link = g.usize(0, q.links() - 1);
            match g.u8(0, 15) {
                0 | 1 => timers.push(q.push_timer(soon(g, now))),
                2 => {
                    let release = g.bool(0.5);
                    q.push_fault(soon(g, now), link, release);
                }
                3 | 4 => {
                    if !q.tx_pending(link) {
                        q.push_tx(soon(g, now), link);
                    }
                }
                5..=7 => {
                    let time = soon(g, now).max(q.last_delivery[link]);
                    q.push_delivery(time, link);
                }
                // Cancel a pending timer, maybe rescheduling it.
                8 => {
                    if !timers.is_empty() {
                        let id = timers.swap_remove(g.usize(0, timers.len() - 1));
                        let live = q.model.live.iter().any(|e| e.2 == Tag::Timer(id));
                        assert_eq!(q.queue.cancel(TimerId(id)), live, "cancel of {id}");
                        assert_eq!(q.model.cancel(id), live);
                        spent.push(id);
                        if g.bool(0.5) {
                            timers.push(q.push_timer(soon(g, now)));
                        }
                    }
                }
                // A spent handle (fired or cancelled) cancels nothing.
                9 => {
                    if !spent.is_empty() {
                        let id = spent[g.usize(0, spent.len() - 1)];
                        assert!(!q.queue.cancel(TimerId(id)), "spent handle revived");
                        assert!(!q.model.cancel(id));
                    }
                }
                10..=12 => {
                    if let Some((t, _, tag)) = q.pop() {
                        now = t;
                        if let Tag::Timer(id) = tag {
                            spent.push(id);
                        }
                    }
                }
                _ => {
                    let deadline = soon(g, now);
                    if let Some((t, _, tag)) = q.pop_until(deadline) {
                        now = t;
                        if let Tag::Timer(id) = tag {
                            spent.push(id);
                        }
                    }
                }
            }
            q.assert_counts();
        }
        while q.pop().is_some() {
            q.assert_counts();
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
