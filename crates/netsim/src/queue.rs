//! [`EventHeap`], the min-heap the simulator keeps its timers and fault
//! events in: a `BinaryHeap` of `(time, seq, payload)` entries. Link
//! events wait in per-link lanes beside it (`event::EventQueue`), which
//! also owns the one `seq` counter that heaps and lanes share.
//!
//! ## Ordering invariant
//!
//! Events pop in strict `(time, seq)` order, where `seq` is a monotone
//! counter the caller assigns at push time. Ties in `time` are therefore
//! broken by insertion order, which is what makes the whole simulation
//! deterministic. `tests/queue_differential.rs` drives the heap against a
//! brute-force model over randomized push/pop/peek workloads and asserts
//! identical pops, peeks and lengths; a unit test in `event.rs` does the
//! same for the heaps merged with the lanes.
//!
//! Nothing is ever cancelled: a node that no longer wants a timer ignores
//! it when it fires, so every entry in the heap is live.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event removed from the heap by [`EventHeap::pop`].
#[derive(Debug)]
pub struct Popped<T> {
    /// The absolute time the event was scheduled for.
    pub time: SimTime,
    /// The insertion-order tie-break counter assigned at push time.
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A min-queue of events in `(time, seq)` order with O(log n) push and
/// pop. See the module docs for the ordering invariant.
pub struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for EventHeap<T> {
    fn default() -> EventHeap<T> {
        EventHeap::with_capacity(0)
    }
}

impl<T> EventHeap<T> {
    /// A heap preallocated for `cap` pending events.
    pub fn with_capacity(cap: usize) -> EventHeap<T> {
        EventHeap {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    /// Schedules `payload` at absolute time `time` under the tie-break
    /// `seq`, which must be unique and larger than every `seq` pushed
    /// before it.
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        self.heap.pop().map(|e| Popped {
            time: e.time,
            seq: e.seq,
            payload: e.payload,
        })
    }

    /// The `(time, seq)` key of the earliest event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|top| (top.time, top.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Pushes each `(time, payload)` under the next `seq`.
    fn heap_of(events: &[(SimTime, u32)]) -> EventHeap<u32> {
        let mut q = EventHeap::with_capacity(8);
        for (seq, &(time, payload)) in events.iter().enumerate() {
            q.push(time, seq as u64, payload);
        }
        q
    }

    fn drain(q: &mut EventHeap<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).map(|p| p.payload).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = heap_of(&[
            (SimTime::from_millis(30), 0),
            (SimTime::from_millis(10), 1),
            (SimTime::from_millis(20), 2),
        ]);
        assert_eq!(drain(&mut q), vec![1, 2, 0]);
    }

    #[test]
    fn same_instant_fifo() {
        let base = SimTime::from_nanos(1 << 20);
        let mut q = heap_of(&[
            (base + SimDuration::from_nanos(3), 0),
            (base + SimDuration::from_nanos(1), 1),
            (base + SimDuration::from_nanos(1), 2),
            (base, 3),
        ]);
        // Time first, then insertion order for the tie at +1 ns.
        assert_eq!(drain(&mut q), vec![3, 1, 2, 0]);
    }

    #[test]
    fn far_future_events() {
        // ~50 virtual days.
        let far = SimTime::from_secs(50 * 24 * 3600);
        let mut q = heap_of(&[
            (far, 0),
            (SimTime::from_millis(5), 1),
            (far + SimDuration::from_nanos(1), 2),
        ]);
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(5), 1)));
        assert_eq!(drain(&mut q), vec![1, 0, 2]);
    }

    #[test]
    fn interleaves_pop_and_push() {
        let mut q = heap_of(&[(SimTime::from_millis(1), 0), (SimTime::from_secs(2), 1)]);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Push earlier than the pending far event, later than "now".
        q.push(SimTime::from_millis(500), 2, 2);
        // Push at (conceptually) the current instant.
        q.push(SimTime::from_millis(1), 3, 3);
        assert_eq!(drain(&mut q), vec![3, 2, 1]);
    }
}
