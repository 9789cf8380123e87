//! A deterministic stream table: a sorted vector keyed by stream id.
//!
//! Replaces the `BTreeMap<u32, …>` stream tables on the connection hot
//! path. Lookups are a binary search over one contiguous allocation
//! (instead of chasing tree nodes), inserts touch the heap only when the
//! vector grows, and iteration order is ascending stream id — exactly
//! the order `BTreeMap` iterated in, which the documented round-robin
//! send scheduling depends on.
//!
//! Beside the entries, two bitsets mark positions: the [`MarkSet::Send`]
//! set and the [`MarkSet::Retransmit`] set, which the owner keeps with
//! [`StreamTable::set_marks`]. The round-robin probe
//! ([`StreamTable::next_marked`]) visits only positions marked in the
//! set it is asked about, answers `None` at once when that set is
//! empty, and returns a position, at which the owner reads and re-marks
//! the pick without a search. The connection marks in `Send` exactly
//! the streams that could send given unlimited connection credit and in
//! `Retransmit` exactly those holding a lost frame, so the probe never
//! visits a stream that cannot be picked except one that connection
//! flow control holds back. A differential test (`tests/stream_table_order.rs`) pins the
//! probe and the iteration order against a `BTreeMap` under seeded
//! random schedules.
//!
//! A transfer-attack connection holds about 60 streams with
//! mostly-ascending ids, so the `O(n)` insert shift is cheaper in
//! practice than a tree rebalance; ids are never removed (matching the
//! old tables, which kept finished streams until the connection
//! dropped).

/// One of the two sets of marks a [`StreamTable`] keeps per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkSet {
    /// Streams the owner marked as able to send.
    Send = 0,
    /// Streams the owner marked as holding a lost frame.
    Retransmit = 1,
}

/// A map from stream id to `T`, ordered by id, with two marks per
/// stream.
#[derive(Debug, Default)]
pub struct StreamTable<T> {
    entries: Vec<(u32, T)>,
    /// Block `b` holds positions `64b..64b + 64` of both sets, indexed
    /// by [`MarkSet`], so one allocation serves the two. Bits at or
    /// beyond `entries.len()` are always clear.
    marks: Vec<[u64; 2]>,
}

impl<T> StreamTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        StreamTable {
            entries: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Ok(position)` of `id`, or `Err(position)` it would be inserted
    /// at.
    fn find(&self, id: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The position of the stream with the given id, if present.
    pub fn position(&self, id: u32) -> Option<usize> {
        self.find(id).ok()
    }

    /// The position of the stream with the given id, inserted unmarked
    /// via `make` if absent.
    pub fn position_or_insert_with(&mut self, id: u32, make: impl FnOnce() -> T) -> usize {
        match self.find(id) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (id, make()));
                self.insert_mark_slot(i);
                i
            }
        }
    }

    /// The stream with the given id, inserted unmarked via `make` if
    /// absent.
    pub fn get_or_insert_with(&mut self, id: u32, make: impl FnOnce() -> T) -> &mut T {
        let i = self.position_or_insert_with(id, make);
        &mut self.entries[i].1
    }

    /// The id of the stream at `pos`.
    pub fn id_at(&self, pos: usize) -> u32 {
        self.entries[pos].0
    }

    /// The stream at `pos`.
    pub fn at(&self, pos: usize) -> &T {
        &self.entries[pos].1
    }

    /// Mutable access to the stream at `pos`.
    pub fn at_mut(&mut self, pos: usize) -> &mut T {
        &mut self.entries[pos].1
    }

    /// Shifts the marks at positions `>= at` up by one, leaving `at`
    /// clear, to follow an entry inserted at `at`.
    fn insert_mark_slot(&mut self, at: usize) {
        if self.marks.len() * 64 < self.entries.len() {
            self.marks.push([0; 2]);
        }
        let block = at / 64;
        for b in (block + 1..self.marks.len()).rev() {
            let carry = self.marks[b - 1].map(|bits| bits >> 63);
            for (bits, carry) in self.marks[b].iter_mut().zip(carry) {
                *bits = (*bits << 1) | carry;
            }
        }
        let below = (1u64 << (at % 64)) - 1;
        for bits in &mut self.marks[block] {
            *bits = (*bits & below) | ((*bits & !below) << 1);
        }
    }

    /// Sets the stream at `pos`'s mark in each set.
    pub fn set_marks(&mut self, pos: usize, send: bool, retransmit: bool) {
        let bit = 1u64 << (pos % 64);
        for (bits, marked) in self.marks[pos / 64].iter_mut().zip([send, retransmit]) {
            if marked {
                *bits |= bit;
            } else {
                *bits &= !bit;
            }
        }
    }

    /// Whether the stream at `pos` is marked in `set`.
    pub fn is_marked(&self, pos: usize, set: MarkSet) -> bool {
        self.marks[pos / 64][set as usize] >> (pos % 64) & 1 == 1
    }

    /// All streams, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().map(|(id, s)| (*id, s))
    }

    /// Position of the first stream marked in `set` that matches
    /// `pred`, searching ids after `after.0` first and wrapping to the
    /// rest — the round-robin probe. `after` is the last stream sent and
    /// the position it was found at; the probe searches for the stream
    /// only when the id at that position shows that an insert below it
    /// has shifted it since. When every stream matching `pred` is
    /// marked, the pick is exactly
    /// `BTreeMap::range(from..).chain(range(..from)).find(pred)` with
    /// `from = after.0 + 1` (`0` without `after`); unmarked streams are
    /// never visited, and an empty set answers `None` before any search.
    pub fn next_marked(
        &self,
        set: MarkSet,
        after: Option<(u32, usize)>,
        pred: impl Fn(&T) -> bool,
    ) -> Option<usize> {
        if self.marks.iter().all(|block| block[set as usize] == 0) {
            return None;
        }
        let split = match after {
            None => 0,
            Some((id, pos)) if self.entries.get(pos).is_some_and(|&(k, _)| k == id) => pos + 1,
            Some((id, _)) => match self.find(id) {
                Ok(i) => i + 1,
                Err(i) => i,
            },
        };
        self.first_marked(set, split, self.entries.len(), &pred)
            .or_else(|| self.first_marked(set, 0, split, &pred))
    }

    /// First position in `lo..hi` marked in `set` whose stream matches
    /// `pred`.
    fn first_marked(
        &self,
        set: MarkSet,
        lo: usize,
        hi: usize,
        pred: &impl Fn(&T) -> bool,
    ) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let set = set as usize;
        let mut block = lo / 64;
        let mut bits = self.marks[block][set] & (!0u64 << (lo % 64));
        loop {
            while bits != 0 {
                let i = block * 64 + bits.trailing_zeros() as usize;
                if i >= hi {
                    return None;
                }
                if pred(&self.entries[i].1) {
                    return Some(i);
                }
                bits &= bits - 1;
            }
            block += 1;
            if block * 64 >= hi {
                return None;
            }
            bits = self.marks[block][set];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of the given ids, each marked in both sets.
    fn marked(ids: &[u32]) -> StreamTable<bool> {
        let mut t = StreamTable::new();
        for &id in ids {
            let pos = t.position_or_insert_with(id, || true);
            t.set_marks(pos, true, true);
        }
        t
    }

    #[test]
    fn insert_lookup_and_order() {
        let mut t: StreamTable<&str> = StreamTable::new();
        assert!(t.is_empty());
        t.get_or_insert_with(8, || "c");
        t.get_or_insert_with(0, || "a");
        t.get_or_insert_with(4, || "b");
        assert_eq!(t.len(), 3);
        assert_eq!(t.position(4).map(|p| *t.at(p)), Some("b"));
        assert_eq!(t.position(2), None);
        *t.get_or_insert_with(0, || "zz") = "a2";
        // Re-inserting an existing id keeps the old value.
        assert_eq!(*t.get_or_insert_with(0, || "zz"), "a2");
        let ids: Vec<u32> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 4, 8]);
        assert_eq!(t.position(8), Some(2));
        assert_eq!((t.id_at(2), *t.at(2)), (8, "c"));
    }

    #[test]
    fn a_cursor_position_made_stale_by_an_insert_below_it_misses() {
        // 8 sat at position 2 until 2 was inserted below it; 4 sits
        // there now, and the split must follow 8, not 4.
        let mut t = marked(&[0, 4, 8, 12]);
        t.position_or_insert_with(2, || true);
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((8, 2)), |_| true),
            Some(4)
        );
        t.set_marks(4, false, false);
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((8, 2)), |_| true),
            Some(0)
        );
    }

    #[test]
    fn the_split_falls_right_after_the_last_stream_sent() {
        let t = marked(&[0, 4, 8, 12]);
        // After 4 (position 1): 8 comes next, and 4 itself only on the
        // wrap, after every other marked stream.
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((4, 1)), |_| true),
            Some(2)
        );
        let mut t = marked(&[0, 4, 8, 12]);
        for pos in [0, 2, 3] {
            t.set_marks(pos, false, false);
        }
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((4, 1)), |_| true),
            Some(1)
        );
        // After the last stream: wraps to the first.
        let t = marked(&[0, 4, 8, 12]);
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((12, 3)), |_| true),
            Some(0)
        );
        // Without a last stream the search starts at the first.
        assert_eq!(t.next_marked(MarkSet::Send, None, |_| true), Some(0));
        // A last stream that is absent splits where it would sit.
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((5, 0)), |_| true),
            Some(2)
        );
    }

    #[test]
    fn next_marked_wraps_like_btreemap_ranges() {
        let mut t = marked(&[0, 4, 8, 12]);
        let ids = |t: &StreamTable<bool>, p: Option<usize>| p.map(|p| t.id_at(p));
        // After 4: first id >= 5 is 8.
        let got = t.next_marked(MarkSet::Send, Some((4, 1)), |&v| v);
        assert_eq!(ids(&t, got), Some(8));
        // After 12: wraps to 0.
        let got = t.next_marked(MarkSet::Send, Some((12, 3)), |&v| v);
        assert_eq!(ids(&t, got), Some(0));
        // Predicate filters.
        *t.at_mut(2) = false;
        let got = t.next_marked(MarkSet::Send, Some((4, 1)), |&v| v);
        assert_eq!(ids(&t, got), Some(12));
        let got = t.next_marked(MarkSet::Send, Some((12, 3)), |&v| !v);
        assert_eq!(ids(&t, got), Some(8));
        assert_eq!(t.next_marked(MarkSet::Send, None, |_| false), None);
        // Streams unmarked in the set asked about are skipped whatever
        // the predicate says; the other set is independent.
        t.set_marks(3, false, true);
        let got = t.next_marked(MarkSet::Send, Some((8, 2)), |_| true);
        assert_eq!(ids(&t, got), Some(0));
        let got = t.next_marked(MarkSet::Retransmit, Some((8, 2)), |_| true);
        assert_eq!(ids(&t, got), Some(12));
        // An insert below existing ids carries both sets' marks along.
        let pos = t.position_or_insert_with(2, || true);
        assert_eq!(pos, 1);
        assert!(!t.is_marked(1, MarkSet::Send) && !t.is_marked(1, MarkSet::Retransmit));
        assert!(t.is_marked(4, MarkSet::Retransmit) && !t.is_marked(4, MarkSet::Send));
        let got = t.next_marked(MarkSet::Send, Some((0, 0)), |_| true);
        assert_eq!(ids(&t, got), Some(4));
        t.set_marks(pos, true, false);
        let got = t.next_marked(MarkSet::Send, Some((0, 0)), |_| true);
        assert_eq!(ids(&t, got), Some(2));
    }

    #[test]
    fn an_empty_set_answers_none() {
        let mut t = marked(&[0, 4]);
        for pos in 0..2 {
            t.set_marks(pos, true, false);
        }
        assert_eq!(t.next_marked(MarkSet::Retransmit, None, |_| true), None);
        assert_eq!(
            t.next_marked(MarkSet::Send, Some((4, 1)), |_| true),
            Some(0)
        );
        let empty: StreamTable<bool> = StreamTable::new();
        assert_eq!(empty.next_marked(MarkSet::Send, None, |_| true), None);
    }
}
