//! A machine-speed gauge.
//!
//! On a shared host the speed at which this machine executes a fixed
//! piece of code drifts by up to 2× within minutes, as neighbours come
//! and go; on-CPU time per trial moves with it. Raw throughput then
//! compares the neighbours, not two versions of the program. So each run
//! times a fixed kernel — a timer heap, a hash map, packet-sized copies
//! into a ring of buffers, and a table walk, the operation mix of the
//! simulator's hot paths — on threads of its own next to the workload
//! (or on the calling thread, for a one-thread reading), and reports
//! every timing at the [`REFERENCE`] gauge reading: rates scale by
//! `REFERENCE / gauge`, times by `gauge / REFERENCE`.
//!
//! The kernel uses only `std`: it runs on `std::thread::scope` threads,
//! and its timed loop allocates nothing (every buffer is allocated and
//! touched before the clock starts), so the binary's counting allocator
//! is never reached from it. A change to the workspace cannot move the
//! gauge; a change to the host moves both.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The gauge reading, in million kernel events per second per thread,
/// that reported figures are scaled to.
pub const REFERENCE: f64 = 4.0;

/// Kernel events between clock reads.
const CHUNK: u64 = 500;

/// Buffers in the packet ring.
const RING: usize = 64;

/// Largest packet copied.
const PACKET: usize = 1500;

/// Distinct hash-map keys; the map holds about half of them.
const KEYS: u64 = 1 << 15;

/// The kernel's working set. Everything is allocated and touched in
/// [`Kernel::new`], so [`Kernel::spin`] never allocates.
struct Kernel {
    state: u64,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    table: Vec<u64>,
    packet: Vec<u8>,
    ring: Vec<Vec<u8>>,
}

impl Kernel {
    fn new(seed: u64) -> Kernel {
        let mut k = Kernel {
            state: seed | 1,
            heap: BinaryHeap::with_capacity(1024),
            // Room for every key, so inserts never grow the table.
            map: HashMap::with_capacity_and_hasher(2 * KEYS as usize, Default::default()),
            table: vec![1u64; 1 << 17],
            packet: vec![7u8; PACKET],
            ring: (0..RING).map(|_| vec![0u8; PACKET]).collect(),
        };
        for id in 0..1024u32 {
            let t = k.next() & 0xffff;
            k.heap.push(Reverse((t, id)));
        }
        for key in 0..KEYS {
            if k.next() & 1 == 0 {
                k.map.insert(key, key);
            }
        }
        k
    }

    /// xorshift64.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Runs for about `budget`; returns million events per second.
    fn spin(&mut self, budget: Duration) -> f64 {
        let mask = self.table.len() - 1;
        let start = Instant::now();
        let mut events = 0u64;
        while start.elapsed() < budget {
            for _ in 0..CHUNK {
                let Some(Reverse((t, id))) = self.heap.pop() else {
                    break;
                };
                let x = self.next();
                self.heap.push(Reverse((t + (x & 0xfff), id)));
                let buf = &mut self.ring[(x >> 12) as usize % RING];
                buf.clear();
                buf.extend_from_slice(&self.packet[..x as usize % PACKET]);
                black_box(&buf);
                self.map.insert(x % KEYS, t);
                self.map.remove(&((x >> 16) % KEYS));
                let i = (x >> 32) as usize & mask;
                self.table[i] = self.table[i].wrapping_add(t);
            }
            events += CHUNK;
        }
        events as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}

/// Seed of the first thread's kernel.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The gauge: the kernel on `threads` threads at once for about
/// `budget`, median over threads, in million events per second. One
/// thread runs on the calling thread, so it reads the CPU the caller is
/// on.
pub fn gauge(threads: usize, budget: Duration) -> f64 {
    if threads <= 1 {
        return Kernel::new(SEED).spin(budget);
    }
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| scope.spawn(move || Kernel::new(SEED ^ t).spin(budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gauge thread panicked"))
            .collect()
    });
    crate::stats::median(&rates).unwrap_or(REFERENCE)
}

/// How much faster the reference machine is than one reading `gauge`:
/// multiply a rate by it, divide a time by it.
pub fn factor(gauge: f64) -> f64 {
    if gauge > 0.0 {
        REFERENCE / gauge
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_util::alloc;

    #[test]
    fn gauge_reads_a_positive_rate() {
        let g = gauge(2, Duration::from_millis(5));
        assert!(g > 0.0 && g.is_finite(), "{g}");
    }

    #[test]
    fn timed_loop_never_allocates() {
        // The test binary counts allocations too: prove it first.
        let (_, allocs, _) = alloc::counting(|| black_box(Vec::<u8>::with_capacity(64)));
        assert!(allocs >= 1, "the counting allocator is not installed");
        let mut k = Kernel::new(3);
        let (rate, allocs, bytes) = alloc::counting(|| k.spin(Duration::from_millis(20)));
        assert!(rate > 0.0);
        assert_eq!((allocs, bytes), (0, 0));
    }

    #[test]
    fn factor_scales_to_the_reference() {
        assert_eq!(factor(REFERENCE), 1.0);
        assert_eq!(factor(2.0 * REFERENCE), 0.5);
        assert_eq!(factor(0.0), 1.0);
    }
}
