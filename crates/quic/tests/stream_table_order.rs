//! Differential test: `StreamTable`'s round-robin probe must replicate
//! the `BTreeMap` scheduling it replaced, exactly.
//!
//! The connection's send scheduler picks the first sendable stream with
//! id `>= cursor`, wrapping to ids `< cursor` — formerly
//! `BTreeMap::range(from..).chain(range(..from)).find(..)`, now
//! `StreamTable::next_marked`, which visits only the streams the
//! connection marked as having something left to send. The pick order
//! is an observable of the simulation (it decides datagram contents and
//! therefore every golden fixture), so the two structures are driven
//! side by side through seeded random open/mark/clear/send schedules and
//! must agree on every probe and on iteration order throughout. Marks
//! follow the connection's rule: every stream a probe could pick is
//! marked, and marked streams may still fail the predicate.

use std::collections::BTreeMap;

use h2priv_quic::table::StreamTable;

/// Minimal stand-in for a send stream: the scheduler asks either "is
/// this stream sendable?" (window open) or "does it hold a
/// retransmission?" (window shut); both flip as data is queued, flushed
/// and lost, and as streams are reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    sendable: bool,
    retransmit: bool,
    reset: bool,
}

impl Slot {
    /// What `SendStream::has_pending` stands for: a stream the probe
    /// could pick under either predicate.
    fn pending(&self) -> bool {
        self.sendable || self.retransmit
    }
}

/// Deterministic xorshift64* generator — no external RNG dependency, so
/// the schedules are reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The exact probe the old code ran on a `BTreeMap`.
fn btree_next_matching(
    map: &BTreeMap<u32, Slot>,
    from: u32,
    pred: impl Fn(&Slot) -> bool,
) -> Option<u32> {
    map.range(from..)
        .chain(map.range(..from))
        .find(|(_, s)| pred(s))
        .map(|(&id, _)| id)
}

#[test]
fn round_robin_matches_btreemap_across_256_seeded_schedules() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut table: StreamTable<Slot> = StreamTable::new();
        let mut map: BTreeMap<u32, Slot> = BTreeMap::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut cursor: Option<u32> = None;
        let mut next_id = 0u32;
        let mut picks = 0u32;

        for _step in 0..600 {
            match rng.below(12) {
                // Open a stream. Mostly ascending ids (client streams are
                // 0, 4, 8, …); one in four lands anywhere below the
                // newest, which the sorted-vector insert must slot into
                // place and the mark bitset must shift past, across word
                // boundaries once the table holds more than 64 streams.
                0..=2 => {
                    let id = if rng.below(4) == 0 {
                        rng.below(u64::from(next_id) + 1) as u32
                    } else {
                        let id = next_id;
                        next_id += 4;
                        id
                    };
                    let fresh = Slot {
                        sendable: false,
                        retransmit: false,
                        reset: false,
                    };
                    table.get_or_insert_with(id, || fresh);
                    map.entry(id).or_insert(fresh);
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                // Queue data or requeue a loss: the stream becomes
                // sendable or holds a retransmission, and is marked.
                3..=5 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    let lost = rng.below(3) == 0;
                    for s in [table.get_mut(id).unwrap(), map.get_mut(&id).unwrap()] {
                        if lost {
                            s.retransmit = !s.reset;
                        } else {
                            s.sendable = !s.reset;
                        }
                    }
                    table.set_mark(id, true);
                }
                // Close (reset) a stream: stays in both structures —
                // entries were never removed from the old maps either —
                // but has nothing left to send and is unmarked.
                6 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    for s in [table.get_mut(id).unwrap(), map.get_mut(&id).unwrap()] {
                        *s = Slot {
                            sendable: false,
                            retransmit: false,
                            reset: true,
                        };
                    }
                    table.set_mark(id, false);
                }
                // Marked but not pickable (bytes held back under Nagle or
                // flow control): a spurious mark the predicate filters.
                7 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    table.set_mark(id, true);
                }
                // Clear the mark of a stream with nothing pending.
                8 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    if !map[&id].pending() {
                        table.set_mark(id, false);
                    }
                }
                // Send: probe for the next sendable stream from the
                // cursor, exactly as `poll_stream_datagram` does, and
                // advance the cursor past the pick.
                _ => {
                    let from = cursor.map_or(0, |id| id + 1);
                    let window_open = rng.below(4) != 0;
                    let pred = |s: &Slot| {
                        if window_open {
                            s.pending()
                        } else {
                            s.retransmit
                        }
                    };
                    let got = table.next_marked(from, pred);
                    let want = btree_next_matching(&map, from, pred);
                    assert_eq!(
                        got, want,
                        "seed {seed}: probe from {from} diverged (table {got:?}, btree {want:?})"
                    );
                    if let Some(id) = got {
                        picks += 1;
                        cursor = Some(id);
                        // Flushing one chunk serves the retransmission
                        // first, and empties the stream half the time
                        // (the other half it stays sendable); an emptied
                        // stream is unmarked, as the connection does.
                        for s in [table.get_mut(id).unwrap(), map.get_mut(&id).unwrap()] {
                            if s.retransmit {
                                s.retransmit = false;
                            } else {
                                s.sendable = false;
                            }
                        }
                        if rng.below(2) == 0 {
                            for s in [table.get_mut(id).unwrap(), map.get_mut(&id).unwrap()] {
                                s.sendable = !s.reset;
                            }
                        }
                        if !map[&id].pending() {
                            table.set_mark(id, false);
                        }
                    }
                }
            }
        }

        // Iteration order (used by stats collection and FIN sweeps) must
        // match ascending BTreeMap order too.
        let table_order: Vec<(u32, Slot)> = table.iter().map(|(id, s)| (id, *s)).collect();
        let map_order: Vec<(u32, Slot)> = map.iter().map(|(&id, s)| (id, *s)).collect();
        assert_eq!(table_order, map_order, "seed {seed}: iteration diverged");
        assert!(picks > 0, "seed {seed}: schedule exercised no sends");
        assert!(
            table.len() > 64,
            "seed {seed}: marks never spanned two words"
        );
    }
}
