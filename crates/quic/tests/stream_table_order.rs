//! Differential test: `StreamTable`'s round-robin probe must replicate
//! the `BTreeMap` scheduling it replaced, exactly.
//!
//! The connection's send scheduler picks the first sendable stream with
//! id `>= cursor`, wrapping to ids `< cursor` — formerly
//! `BTreeMap::range(from..).chain(range(..from)).find(..)`, now
//! `StreamTable::next_marked`, which visits only the streams marked in
//! the set it is asked about: with the congestion window open the
//! streams ready to send, with it shut the streams holding a lost frame.
//! The pick order is an observable of the simulation (it decides
//! datagram contents and therefore every golden fixture), so the two
//! structures are driven side by side through seeded random
//! open/queue/lose/reset/send schedules and must agree on every probe
//! and on iteration order throughout. Marks follow the connection's
//! rule: a stream is marked ready exactly when it could send given
//! unlimited connection credit, and marked for retransmission exactly
//! when it holds a lost frame. The table is driven as the connection
//! drives it: by id, and by the position a probe returns, while opens
//! land below the position the cursor remembers.

use std::collections::BTreeMap;

use h2priv_quic::table::{MarkSet, StreamTable};

/// Minimal stand-in for a send stream: whether it holds new data it
/// could send (and whether that needs more connection credit than a
/// probe may have), a lost frame, or was reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    id: u32,
    fresh: bool,
    needs_credit: bool,
    retransmit: bool,
    reset: bool,
}

impl Slot {
    fn new(id: u32) -> Slot {
        Slot {
            id,
            fresh: false,
            needs_credit: false,
            retransmit: false,
            reset: false,
        }
    }

    /// What `SendStream::ready` stands for: sendable at unlimited
    /// credit.
    fn ready(&self) -> bool {
        self.fresh || self.retransmit
    }

    /// What `SendStream::has_sendable(credit)` stands for.
    fn sendable(&self, credit: bool) -> bool {
        self.retransmit || (self.fresh && (credit || !self.needs_credit))
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

/// Applies `change` to stream `id` in both structures, reaching the
/// table's copy by id, and re-marks it from its new state, as the
/// connection does.
fn update(
    table: &mut StreamTable<Slot>,
    map: &mut BTreeMap<u32, Slot>,
    id: u32,
    change: impl Fn(&mut Slot),
) {
    let pos = table.position(id).expect("open stream");
    assert_eq!(table.id_at(pos), id, "lookup of {id} found another stream");
    remark_at(table, pos, &change);
    change(map.get_mut(&id).unwrap());
}

fn remark_at(table: &mut StreamTable<Slot>, pos: usize, change: impl Fn(&mut Slot)) {
    let s = table.at_mut(pos);
    change(s);
    let (ready, retransmit) = (s.ready(), s.retransmit);
    table.set_marks(pos, ready, retransmit);
}

#[test]
fn round_robin_matches_btreemap_across_256_seeded_schedules() {
    let mut below_cursor = 0u32;
    let mut shut_picks = 0u32;
    for seed in 0..256u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut table: StreamTable<Slot> = StreamTable::new();
        let mut map: BTreeMap<u32, Slot> = BTreeMap::new();
        let mut ids: Vec<u32> = Vec::new();
        // The last stream sent and the position the probe returned for
        // it; opens below it leave the position stale.
        let mut cursor: Option<(u32, usize)> = None;
        let mut next_id = 0u32;
        let mut picks = 0u32;

        for _step in 0..600 {
            match rng.below(12) {
                // Open a stream. Mostly ascending ids (client streams are
                // 0, 4, 8, …); one in four lands anywhere below the
                // newest, often below the cursor's remembered position,
                // which the sorted-vector insert must slot into place and
                // both bitsets must shift past, across word boundaries
                // once the table holds more than 64 streams.
                0..=2 => {
                    let id = if rng.below(4) == 0 {
                        rng.below(u64::from(next_id) + 1) as u32
                    } else {
                        let id = next_id;
                        next_id += 4;
                        id
                    };
                    if cursor.is_some_and(|(c, _)| id < c) && !map.contains_key(&id) {
                        below_cursor += 1;
                    }
                    let pos = table.position_or_insert_with(id, || Slot::new(id));
                    assert_eq!(table.id_at(pos), id);
                    map.entry(id).or_insert(Slot::new(id));
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                // Queue data: the stream becomes ready, sometimes only
                // past a connection credit a probe may lack.
                3..=4 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    let needs_credit = rng.below(3) == 0;
                    update(&mut table, &mut map, id, |s| {
                        s.fresh = !s.reset;
                        s.needs_credit = needs_credit;
                    });
                }
                // Requeue a loss: the stream holds a retransmission.
                5 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    update(&mut table, &mut map, id, |s| s.retransmit = !s.reset);
                }
                // Close (reset) a stream: stays in both structures —
                // entries were never removed from the old maps either —
                // but has nothing left to send.
                6 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    update(&mut table, &mut map, id, |s| {
                        *s = Slot {
                            reset: true,
                            ..Slot::new(s.id)
                        }
                    });
                }
                // A flow-control grant: data held back becomes sendable
                // at any credit.
                7 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    update(&mut table, &mut map, id, |s| s.needs_credit = false);
                }
                // Send: probe from the cursor exactly as
                // `poll_stream_datagram` does — the ready set with the
                // credit predicate while the window is open, the
                // retransmit set alone while it is shut — then read and
                // re-mark the pick by the position returned.
                _ => {
                    let from = cursor.map_or(0, |(id, _)| id + 1);
                    let window_open = rng.below(4) != 0;
                    let credit = rng.below(2) == 0;
                    let (got, want) = if window_open {
                        (
                            table.next_marked(MarkSet::Send, cursor, |s| s.sendable(credit)),
                            btree_next_matching(&map, from, |s| s.sendable(credit)),
                        )
                    } else {
                        (
                            table.next_marked(MarkSet::Retransmit, cursor, |_| true),
                            btree_next_matching(&map, from, |s| s.retransmit),
                        )
                    };
                    let got_id = got.map(|pos| table.id_at(pos));
                    assert_eq!(
                        got_id, want,
                        "seed {seed}: probe from {from} diverged (table {got_id:?}, btree {want:?})"
                    );
                    let Some(pos) = got else { continue };
                    let id = table.at(pos).id;
                    assert_eq!(table.id_at(pos), id);
                    picks += 1;
                    shut_picks += u32::from(!window_open);
                    cursor = Some((id, pos));
                    // Sending one chunk serves the retransmission first;
                    // new data empties half the time (the other half the
                    // stream stays ready).
                    let drained = rng.below(2) == 0;
                    let send = |s: &mut Slot| {
                        if s.retransmit {
                            s.retransmit = false;
                        } else {
                            s.fresh = !drained;
                        }
                    };
                    remark_at(&mut table, pos, send);
                    send(map.get_mut(&id).unwrap());
                }
            }
            // The marks are the stand-in's readiness, at every position.
            for (pos, (_, s)) in table.iter().enumerate() {
                assert_eq!(table.is_marked(pos, MarkSet::Send), s.ready());
                assert_eq!(table.is_marked(pos, MarkSet::Retransmit), s.retransmit);
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
    assert!(below_cursor > 256, "opens rarely landed below the cursor");
    assert!(shut_picks > 256, "the shut-window probe rarely picked");
}
