//! Model check of the event heap: drives [`EventHeap`] and a brute-force
//! model in lockstep over randomized push / pop / peek workloads and
//! asserts identical observable behavior after every operation — pops
//! (time, seq, payload), peeked keys and lengths. The workloads cover
//! same-instant FIFO tie-breaks and far-future events.
//!
//! Re-run with: `cargo test -p h2priv-netsim --test queue_differential`

use h2priv_netsim::queue::EventHeap;
use h2priv_netsim::time::SimTime;
use h2priv_util::check::{self, Gen};

/// The specification: every pending `(time, seq, payload)` in a `Vec`,
/// the earliest found by a linear scan.
#[derive(Default)]
struct Model {
    live: Vec<(SimTime, u64, u64)>,
}

impl Model {
    fn earliest(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let pos = self.earliest()?;
        Some(self.live.swap_remove(pos))
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.earliest().map(|i| (self.live[i].0, self.live[i].1))
    }
}

/// The heap and the model driven in lockstep; `next_seq` numbers the
/// pushes, as the simulator's event queue does.
#[derive(Default)]
struct Lockstep {
    heap: EventHeap<u64>,
    model: Model,
    next_seq: u64,
}

impl Lockstep {
    fn push(&mut self, time: SimTime, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(time, seq, payload);
        self.model.live.push((time, seq, payload));
        self.assert_len();
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let got = self.heap.pop();
        let want = self.model.pop();
        assert_eq!(
            got.map(|p| (p.time, p.seq, p.payload)),
            want,
            "pop diverged"
        );
        self.assert_len();
        want
    }

    fn peek(&mut self) {
        assert_eq!(self.heap.peek_key(), self.model.peek_key(), "peek diverged");
        self.assert_len();
    }

    fn assert_len(&self) {
        assert_eq!(self.heap.len(), self.model.live.len(), "len diverged");
        assert_eq!(self.heap.is_empty(), self.model.live.is_empty());
    }

    /// Pops to the end: the full remaining sequences must match.
    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.heap.peek_key(), None);
    }
}

/// Picks a schedule time for a new event. `now` is the time of the last
/// pop; the simulator never schedules into the past, but the queue must
/// tolerate it, so a small fraction of pushes land at or before `now`.
fn gen_time(g: &mut Gen, now: SimTime) -> SimTime {
    let base = now.as_nanos();
    let offset = match g.u8(0, 9) {
        // Same few nanoseconds: exercises same-instant FIFO ties.
        0 | 1 => g.u64(0, 3),
        // Within ~4 µs.
        2 | 3 => g.u64(0, (1 << 12) - 1),
        // Up to ~1 s.
        4..=6 => g.u64(0, 1_000_000_000),
        // Up to ~2 h.
        7 => g.u64(0, 8_000_000_000_000),
        // Days to decades ahead.
        8 => (1u64 << 48) + g.u64(0, 1 << 50),
        // At or slightly before now (saturating).
        _ => return SimTime::from_nanos(base.saturating_sub(g.u64(0, 1 << 13))),
    };
    SimTime::from_nanos(base.saturating_add(offset))
}

fn run_workload(g: &mut Gen, ops: usize) {
    let mut q = Lockstep::default();
    let mut now = SimTime::ZERO;

    for _ in 0..ops {
        match g.u8(0, 9) {
            // Push (weighted heaviest so the population grows).
            0..=4 => {
                let t = gen_time(g, now);
                let payload = g.u64(0, u64::MAX);
                q.push(t, payload);
            }
            // Pop; advance "now" to the popped time.
            5..=7 => {
                if let Some((t, _, _)) = q.pop() {
                    now = now.max(t);
                }
            }
            _ => q.peek(),
        }
    }
    q.drain();
}

#[test]
fn heap_matches_model_on_random_workloads() {
    check::run("queue-model", 256, |g| {
        let ops = g.usize(16, 384);
        run_workload(g, ops);
    });
}

#[test]
fn heap_matches_model_on_long_workloads() {
    // Fewer cases, bigger populations: deep heaps and large same-instant
    // batches.
    check::run("queue-model-long", 24, |g| {
        run_workload(g, 3000);
    });
}

#[test]
fn heap_matches_model_on_metronome_workloads() {
    // Fault-layer-shaped traffic: periodic timers plus small hold/release
    // delays, so `now` advances steadily and every push lands a little
    // ahead of it.
    check::run("queue-model-metronome", 128, |g| {
        let mut q = Lockstep::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        let period = g.u64(50_000, 400_000);
        for _ in 0..g.usize(64, 512) {
            for _ in 0..g.usize(1, 3) {
                let delta = g.u64(0, 4 << 18);
                let t = SimTime::from_nanos(now.as_nanos() + period + delta);
                q.push(t, payload);
                payload += 1;
            }
            if g.bool(0.7) {
                if let Some((t, _, _)) = q.pop() {
                    now = now.max(t);
                }
            }
        }
        q.drain();
    });
}

#[test]
fn same_tick_fifo_burst_matches() {
    // A thousand events at the exact same instant pop in insertion order.
    let mut q = Lockstep::default();
    let t = SimTime::from_millis(7);
    for i in 0..1000u64 {
        q.push(t, i);
    }
    for i in 0..1000u64 {
        assert_eq!(q.pop(), Some((t, i, i)));
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn far_future_then_near_events_interleave_identically() {
    let mut q = Lockstep::default();
    // Events days to the end of time ahead, then a stream of near events
    // popped in between.
    for (i, t) in [
        SimTime::from_secs(1 << 20),
        SimTime::from_secs(1 << 24),
        SimTime::MAX,
        SimTime::from_secs((1 << 20) + 1),
    ]
    .into_iter()
    .enumerate()
    {
        q.push(t, 1000 + i as u64);
    }
    for i in 0..64u64 {
        q.push(SimTime::from_millis(i * 37), i);
    }
    q.drain();
}
