//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotone counter assigned at scheduling time, so simultaneous events are
//! dispatched in the order they were scheduled. This tie-break makes the
//! whole simulation deterministic.
//!
//! The queue is the `BinaryHeap`-backed [`EventHeap`] of [`crate::queue`];
//! a cancelled timer leaves a tombstone there that `pop` skips.

use crate::faults;
use crate::link::LinkId;
use crate::node::{NodeId, TimerId};
use crate::packet::Packet;
use crate::queue::{EventHeap, Handle};
use crate::time::SimTime;

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
    #[allow(dead_code)] // kept for tests asserting the tie-break order
    pub seq: u64,
    pub kind: EventKind,
}

/// A min-ordered queue of scheduled events.
#[derive(Default)]
pub(crate) struct EventQueue {
    inner: EventHeap<EventKind>,
}

impl EventQueue {
    /// A queue whose slab storage is preallocated for `cap` events, so
    /// the steady-state event population never reallocates mid-run.
    pub fn with_capacity(cap: usize) -> EventQueue {
        EventQueue {
            inner: EventHeap::with_capacity(cap),
        }
    }

    /// Schedules `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        self.inner.push(time, kind);
    }

    /// Schedules a `NodeTimer` event for `node` at `time`; the returned
    /// [`TimerId`] wraps the slab handle, so it can later be cancelled in
    /// O(1) via [`EventQueue::cancel`].
    pub fn push_timer(&mut self, time: SimTime, node: NodeId) -> TimerId {
        let handle = self.inner.push_with(time, |handle| EventKind::NodeTimer {
            node,
            timer: TimerId(handle.raw()),
        });
        TimerId(handle.raw())
    }

    /// Cancels a pending timer event. Stale ids (already fired or already
    /// cancelled) are a no-op; returns whether a live event was removed.
    pub fn cancel(&mut self, timer: TimerId) -> bool {
        self.inner.cancel(Handle::from_raw(timer.0)).is_some()
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.inner.pop().map(|p| ScheduledEvent {
            time: p.time,
            seq: p.seq,
            kind: p.payload,
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Number of cancelled events whose tombstones are still in the heap.
    pub fn dead(&self) -> usize {
        self.inner.dead()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl core::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(q.is_empty());
        q.push(SimTime::from_millis(2), timer(0, 0));
        q.push(SimTime::from_millis(1), timer(0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().time, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().time, SimTime::from_millis(2));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_tracks_min() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(9), timer(0, 0));
        q.push(SimTime::from_millis(3), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
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
        assert!(q.is_empty());
    }
}
