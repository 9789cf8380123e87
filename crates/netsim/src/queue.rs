//! The simulator's heap of timers and fault events: [`EventHeap`], a
//! `BinaryHeap` of `(time, seq)` keys over a slab of payloads. Link
//! events wait in per-link lanes beside it (`event::EventQueue`), and
//! take their `seq` from the same counter ([`EventHeap::take_seq`]).
//!
//! ## Ordering invariant
//!
//! Events pop in strict `(time, seq)` order, where `seq` is a monotone
//! counter assigned at push time. Ties in `time` are therefore broken by
//! insertion order, which is what makes the whole simulation
//! deterministic. `tests/queue_differential.rs` drives the heap against a
//! brute-force model over randomized schedule/cancel/pop workloads and
//! asserts identical pops, peeks, lengths and cancel results; a unit
//! test in `event.rs` does the same for the heap merged with the lanes.
//!
//! ## Cancellation
//!
//! Payloads are slab-allocated: [`Handle`] packs a slab index and a
//! generation tag. Cancelling takes the payload out of the slab and
//! advances the generation at once, so a stale handle fails the
//! generation check; the heap key stays behind as a tombstone until it
//! reaches the top, where [`EventHeap::pop`] and [`EventHeap::peek_key`]
//! drop it. Tombstones are therefore bounded by the cancelled events
//! whose deadlines are still ahead of the earliest live one.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A generation-tagged reference to a scheduled event.
///
/// Packs a slab index and a generation counter; once the event fires or is
/// cancelled the generation advances, so a stale handle can never cancel an
/// unrelated event that happens to reuse the slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u64);

impl Handle {
    #[inline]
    fn new(idx: u32, generation: u32) -> Handle {
        Handle((u64::from(generation) << 32) | u64::from(idx))
    }

    /// The packed representation (stable within one queue's lifetime).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`Handle::raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Handle {
        Handle(raw)
    }

    #[inline]
    fn idx(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event removed from the queue by [`EventHeap::pop`].
#[derive(Debug)]
pub struct Popped<T> {
    /// The absolute time the event was scheduled for.
    pub time: SimTime,
    /// The insertion-order tie-break counter assigned at push time.
    pub seq: u64,
    /// The (now spent) handle the event was scheduled under.
    pub handle: Handle,
    /// The scheduled payload.
    pub payload: T,
}

struct Key {
    time: SimTime,
    seq: u64,
    idx: u32,
    generation: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Entry<T> {
    generation: u32,
    alive: bool,
    payload: Option<T>,
}

/// A min-queue of events in `(time, seq)` order with O(log n) push and
/// pop and O(1) cancel by [`Handle`].
///
/// See the module docs for the ordering invariant and the tombstones
/// cancellation leaves.
pub struct EventHeap<T> {
    heap: BinaryHeap<Key>,
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> EventHeap<T> {
        EventHeap::with_capacity(0)
    }
}

impl<T> EventHeap<T> {
    /// A queue preallocated for roughly `cap` concurrently pending events.
    pub fn with_capacity(cap: usize) -> EventHeap<T> {
        EventHeap {
            heap: BinaryHeap::with_capacity(cap),
            entries: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules the payload produced by `make` at absolute time `time`.
    /// `make` receives the handle the event will be scheduled under, which
    /// lets a payload embed its own handle (used for timer ids).
    pub fn push_with(&mut self, time: SimTime, make: impl FnOnce(Handle) -> T) -> Handle {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    generation: 0,
                    alive: false,
                    payload: None,
                });
                idx
            }
        };
        let handle = Handle::new(idx, self.entries[idx as usize].generation);
        let seq = self.take_seq();
        let e = &mut self.entries[idx as usize];
        e.alive = true;
        e.payload = Some(make(handle));
        self.heap.push(Key {
            time,
            seq,
            idx,
            generation: handle.generation(),
        });
        self.live += 1;
        handle
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: T) -> Handle {
        self.push_with(time, |_| payload)
    }

    /// Removes and returns the earliest live event in `(time, seq)` order,
    /// dropping the tombstones of cancelled events on the way.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        loop {
            let key = self.heap.pop()?;
            let e = &mut self.entries[key.idx as usize];
            if !e.alive || e.generation != key.generation {
                continue; // tombstone
            }
            let handle = Handle::new(key.idx, e.generation);
            e.generation = e.generation.wrapping_add(1);
            e.alive = false;
            let payload = e.payload.take().expect("live entry has payload");
            self.free.push(key.idx);
            self.live -= 1;
            return Some(Popped {
                time: key.time,
                seq: key.seq,
                handle,
                payload,
            });
        }
    }

    /// Cancels a pending event, returning its payload. Stale handles
    /// (already fired, already cancelled, or never issued) return `None`.
    pub fn cancel(&mut self, handle: Handle) -> Option<T> {
        let e = self.entries.get_mut(handle.idx() as usize)?;
        if !e.alive || e.generation != handle.generation() {
            return None;
        }
        e.generation = e.generation.wrapping_add(1);
        e.alive = false;
        let payload = e.payload.take();
        self.free.push(handle.idx());
        self.live -= 1;
        payload
    }

    /// The time of the earliest live event. Takes `&mut self` because it
    /// drops the tombstones above that event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the earliest live event, dropping the
    /// tombstones above it. With no tombstone in the heap the top is live,
    /// so the slab is not read.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        while self.heap.len() > self.live {
            let top = self.heap.peek().expect("a tombstone is in the heap");
            let e = &self.entries[top.idx as usize];
            if e.alive && e.generation == top.generation {
                break;
            }
            self.heap.pop();
        }
        self.heap.peek().map(|top| (top.time, top.seq))
    }

    /// Takes the next sequence number without scheduling anything here,
    /// for an event kept outside the heap that must still tie-break
    /// against the heap's events in push order.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Number of live (pending, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of tombstones: cancelled events whose heap keys have not
    /// yet reached the top.
    pub fn dead(&self) -> usize {
        self.heap.len() - self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain(q: &mut EventHeap<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).map(|p| p.payload).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventHeap::with_capacity(8);
        q.push(SimTime::from_millis(30), 0);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 0]);
    }

    #[test]
    fn same_instant_fifo() {
        let mut q = EventHeap::with_capacity(8);
        let base = SimTime::from_nanos(1 << 20);
        q.push(base + SimDuration::from_nanos(3), 0);
        q.push(base + SimDuration::from_nanos(1), 1);
        q.push(base + SimDuration::from_nanos(1), 2);
        q.push(base, 3);
        // Time first, then insertion order for the tie at +1 ns.
        assert_eq!(drain(&mut q), vec![3, 1, 2, 0]);
    }

    #[test]
    fn cancel_is_exact() {
        let mut q = EventHeap::with_capacity(8);
        let a = q.push(SimTime::from_millis(1), 10);
        let b = q.push(SimTime::from_millis(2), 20);
        assert_eq!(q.cancel(a), Some(10));
        assert_eq!(q.cancel(a), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        let popped = q.pop().expect("b still live");
        assert_eq!(popped.payload, 20);
        assert_eq!(popped.handle, b);
        assert_eq!(q.cancel(b), None, "cancel after fire is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_leaves_tombstones() {
        let mut q = EventHeap::with_capacity(8);
        let handles: Vec<Handle> = (0..10u32)
            .map(|round| q.push(SimTime::from_millis(u64::from(round) + 1), round))
            .collect();
        for h in handles {
            q.cancel(h);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.dead(), 10, "heap keeps a tombstone per cancel");
        assert_eq!(q.peek_time(), None, "peek prunes them");
        assert_eq!(q.dead(), 0);
    }

    #[test]
    fn far_future_events() {
        let mut q = EventHeap::with_capacity(8);
        // ~50 virtual days.
        let far = SimTime::from_secs(50 * 24 * 3600);
        q.push(far, 0);
        q.push(SimTime::from_millis(5), 1);
        q.push(far + SimDuration::from_nanos(1), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(drain(&mut q), vec![1, 0, 2]);
    }

    #[test]
    fn interleaves_pop_and_push() {
        let mut q = EventHeap::with_capacity(8);
        q.push(SimTime::from_millis(1), 0);
        q.push(SimTime::from_secs(2), 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Push earlier than the pending far event, later than "now".
        q.push(SimTime::from_millis(500), 2);
        // Push at (conceptually) the current instant.
        q.push(SimTime::from_millis(1), 3);
        assert_eq!(drain(&mut q), vec![3, 2, 1]);
    }

    #[test]
    fn handle_raw_round_trips() {
        let h = Handle::new(7, 42);
        assert_eq!(Handle::from_raw(h.raw()), h);
        assert_eq!(h.idx(), 7);
        assert_eq!(h.generation(), 42);
    }
}
