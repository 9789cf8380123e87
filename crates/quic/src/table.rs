//! A deterministic stream table: a sorted vector keyed by stream id.
//!
//! Replaces the `BTreeMap<u32, …>` stream tables on the connection hot
//! path. Lookups are a binary search over one contiguous allocation
//! (instead of chasing tree nodes), inserts touch the heap only when the
//! vector grows, and iteration order is ascending stream id — exactly
//! the order `BTreeMap` iterated in, which the documented round-robin
//! send scheduling depends on.
//!
//! Beside the entries, a bitset marks positions whose stream the owner
//! flagged with [`StreamTable::set_mark`]. The round-robin probe
//! ([`StreamTable::next_marked`]) visits only marked positions, so a
//! connection that marks exactly the streams with something left to
//! send skips its idle ones without looking at them. A differential
//! test (`tests/stream_table_order.rs`) pins the probe and the iteration
//! order against a `BTreeMap` under seeded random schedules.
//!
//! Connections hold a handful of streams with mostly-ascending ids, so
//! the `O(n)` insert shift is cheaper in practice than a tree
//! rebalance; ids are never removed (matching the old tables, which
//! kept finished streams until the connection dropped).

/// A map from stream id to `T`, ordered by id, with a mark per stream.
#[derive(Debug, Default)]
pub struct StreamTable<T> {
    entries: Vec<(u32, T)>,
    /// Bit `p` set: the stream at position `p` is marked. Bits at or
    /// beyond `entries.len()` are always clear.
    marks: Vec<u64>,
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

    fn idx(&self, id: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The stream with the given id, if present.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.idx(id).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the stream with the given id, if present.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        match self.idx(id) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// The stream with the given id, inserted unmarked via `make` if
    /// absent.
    pub fn get_or_insert_with(&mut self, id: u32, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.idx(id) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (id, make()));
                self.insert_mark_slot(i);
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Shifts the marks at positions `>= at` up by one, leaving `at`
    /// clear, to follow an entry inserted at `at`.
    fn insert_mark_slot(&mut self, at: usize) {
        if self.marks.len() * 64 < self.entries.len() {
            self.marks.push(0);
        }
        let word = at / 64;
        for w in (word + 1..self.marks.len()).rev() {
            self.marks[w] = (self.marks[w] << 1) | (self.marks[w - 1] >> 63);
        }
        let below = (1u64 << (at % 64)) - 1;
        let bits = self.marks[word];
        self.marks[word] = (bits & below) | ((bits & !below) << 1);
    }

    /// Marks or unmarks the stream with the given id (no-op if absent).
    pub fn set_mark(&mut self, id: u32, marked: bool) {
        if let Ok(i) = self.idx(id) {
            let bit = 1u64 << (i % 64);
            if marked {
                self.marks[i / 64] |= bit;
            } else {
                self.marks[i / 64] &= !bit;
            }
        }
    }

    /// All streams, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().map(|(id, s)| (*id, s))
    }

    /// First marked stream id matching `pred`, searching ids `>= from`
    /// first and wrapping to ids `< from` — the round-robin probe. When
    /// every stream matching `pred` is marked, the pick is exactly
    /// `BTreeMap::range(from..).chain(range(..from)).find(pred)`; unmarked
    /// streams are never visited.
    pub fn next_marked(&self, from: u32, pred: impl Fn(&T) -> bool) -> Option<u32> {
        let split = match self.idx(from) {
            Ok(i) | Err(i) => i,
        };
        self.first_marked(split, self.entries.len(), &pred)
            .or_else(|| self.first_marked(0, split, &pred))
            .map(|i| self.entries[i].0)
    }

    /// First marked position in `lo..hi` whose stream matches `pred`.
    fn first_marked(&self, lo: usize, hi: usize, pred: &impl Fn(&T) -> bool) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut word = lo / 64;
        let mut bits = self.marks[word] & (!0u64 << (lo % 64));
        loop {
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                if i >= hi {
                    return None;
                }
                if pred(&self.entries[i].1) {
                    return Some(i);
                }
                bits &= bits - 1;
            }
            word += 1;
            if word * 64 >= hi {
                return None;
            }
            bits = self.marks[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_and_order() {
        let mut t: StreamTable<&str> = StreamTable::new();
        assert!(t.is_empty());
        t.get_or_insert_with(8, || "c");
        t.get_or_insert_with(0, || "a");
        t.get_or_insert_with(4, || "b");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(4), Some(&"b"));
        assert_eq!(t.get(2), None);
        *t.get_mut(0).unwrap() = "a2";
        // Re-inserting an existing id keeps the old value.
        assert_eq!(*t.get_or_insert_with(0, || "zz"), "a2");
        let ids: Vec<u32> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 4, 8]);
    }

    #[test]
    fn next_marked_wraps_like_btreemap_ranges() {
        let mut t: StreamTable<bool> = StreamTable::new();
        for id in [0u32, 4, 8, 12] {
            t.get_or_insert_with(id, || true);
            t.set_mark(id, true);
        }
        // From 5: first id >= 5 is 8.
        assert_eq!(t.next_marked(5, |&v| v), Some(8));
        // From 13: wraps to 0.
        assert_eq!(t.next_marked(13, |&v| v), Some(0));
        // From an existing id, that id itself is eligible.
        assert_eq!(t.next_marked(8, |&v| v), Some(8));
        // Predicate filters.
        *t.get_mut(8).unwrap() = false;
        assert_eq!(t.next_marked(5, |&v| v), Some(12));
        assert_eq!(t.next_marked(13, |&v| !v), Some(8));
        assert_eq!(t.next_marked(0, |_| false), None);
        // Unmarked streams are skipped whatever the predicate says.
        t.set_mark(12, false);
        assert_eq!(t.next_marked(9, |_| true), Some(0));
        // An insert below existing ids carries their marks along.
        t.get_or_insert_with(2, || true);
        assert_eq!(t.next_marked(1, |_| true), Some(4));
        t.set_mark(2, true);
        assert_eq!(t.next_marked(1, |_| true), Some(2));
    }
}
