//! Privacy metrics — most importantly the paper's **degree of
//! multiplexing** (Section II-A):
//!
//! > "the fraction of bytes of the object that is interleaved with those
//! > of another object within the same TCP stream."
//!
//! Computed from ground truth (the server's TLS [`WireMap`]): a byte of a
//! transmission entity (an *(object, copy)* pair — re-served copies count
//! as distinct entities, per the paper's treatment of "retransmitted
//! versions") is interleaved if it falls strictly inside another entity's
//! transmission window in TCP stream-offset space. Stream offsets are
//! used because TCP delivers bytes in offset order regardless of
//! wire-level retransmissions.
//!
//! An entity's window runs from its first data byte to one past its
//! last, so its own window always covers each of its bytes. A byte is
//! therefore interleaved exactly when **at least two** entity windows
//! cover its offset. Spans never overlap, so no window opens or closes
//! inside one, and a single boundary sweep over the map yields every
//! entity's interleaved and total bytes at once;
//! [`crate::experiment::TrialResult::degree`] keeps that sweep for all of
//! a trial's lookups.
//!
//! The paper declares an attack on an object successful when its degree
//! of multiplexing reaches **zero** and the object is identified from the
//! trace; [`ObjectMux::best`] reports the copy that came closest.

use h2priv_tls::WireMap;
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::impl_to_json;
use h2priv_web::ObjectId;
use std::collections::HashMap;

/// Measurement tolerance below which a transmission counts as fully
/// serialized ("degree of multiplexing brought down to 0%" in the
/// paper): tiny residual overlaps (a final ACK-straggler chunk of a
/// neighbouring object) are within the noise of the paper's own
/// packet-level measurement.
pub const SERIAL_EPSILON: f64 = 0.02;

/// `true` if a degree-of-multiplexing value counts as serialized.
pub fn is_serialized(degree: f64) -> bool {
    degree <= SERIAL_EPSILON
}

/// A transmission entity: one served copy of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntityId {
    /// The object.
    pub object: ObjectId,
    /// The served copy (0 = first).
    pub copy: u16,
}

impl_to_json!(struct EntityId { object, copy });

/// One entity's extent on the wire.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Identity.
    pub id: EntityId,
    /// Its data spans (stream offsets).
    pub spans: Vec<(u64, u64)>,
    /// First data byte offset.
    pub start: u64,
    /// One past the last data byte offset.
    pub end: u64,
    /// Total data bytes.
    pub bytes: u64,
}

impl_to_json!(struct Entity { id, spans, start, end, bytes });

/// All transmission entities in a wire map with their spans, in
/// first-byte order (for diagnostics; the degrees come from one sweep).
pub fn entities(map: &WireMap) -> Vec<Entity> {
    let mut by_id: HashMap<(u32, u16), Entity> = HashMap::new();
    for span in map.spans().iter().filter(|s| s.tag.is_object_data()) {
        let key = (span.tag.object_id, span.tag.copy);
        let e = by_id.entry(key).or_insert_with(|| Entity {
            id: EntityId {
                object: ObjectId(span.tag.object_id),
                copy: span.tag.copy,
            },
            spans: Vec::new(),
            start: span.start,
            end: span.end,
            bytes: 0,
        });
        e.spans.push((span.start, span.end));
        e.start = e.start.min(span.start);
        e.end = e.end.max(span.end);
        e.bytes += span.len();
    }
    let mut v: Vec<Entity> = by_id.into_values().collect();
    v.sort_by_key(|e| e.start);
    v
}

/// One entity's line in a [`MuxIndex`].
#[derive(Debug, Clone, Copy)]
struct EntityMux {
    id: EntityId,
    /// First data byte offset.
    start: u64,
    /// One past the last data byte offset.
    end: u64,
    /// Total data bytes.
    bytes: u64,
    /// Data bytes inside some other entity's window.
    interleaved: u64,
}

/// Every transmission entity's interleaved and total data bytes in one
/// wire map, from one boundary sweep over it (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MuxIndex {
    /// Sorted by object, then copy.
    entities: Vec<EntityMux>,
}

impl MuxIndex {
    /// Sweeps `map` once. The first pass gathers each entity's window and
    /// byte count; the second walks the data spans, in the map's stream
    /// order, against the sorted window boundaries and credits a span's
    /// bytes to its entity when two or more windows cover it.
    pub(crate) fn new(map: &WireMap) -> MuxIndex {
        let data = || map.spans().iter().filter(|s| s.tag.is_object_data());
        let mut entities: Vec<EntityMux> = Vec::new();
        let mut slot: FxHashMap<EntityId, usize> = FxHashMap::default();
        let mut span_slot: Vec<usize> = Vec::new();
        for span in data() {
            let id = EntityId {
                object: ObjectId(span.tag.object_id),
                copy: span.tag.copy,
            };
            let k = *slot.entry(id).or_insert_with(|| {
                entities.push(EntityMux {
                    id,
                    start: span.start,
                    end: span.end,
                    bytes: 0,
                    interleaved: 0,
                });
                entities.len() - 1
            });
            let e = &mut entities[k];
            e.start = e.start.min(span.start);
            e.end = e.end.max(span.end);
            e.bytes += span.len();
            span_slot.push(k);
        }
        // +1 where a window opens, -1 where it closes.
        let mut bounds: Vec<(u64, i32)> = entities
            .iter()
            .flat_map(|e| [(e.start, 1), (e.end, -1)])
            .collect();
        bounds.sort_unstable_by_key(|b| b.0);
        let (mut covering, mut next) = (0i32, 0usize);
        for (span, k) in data().zip(span_slot) {
            while next < bounds.len() && bounds[next].0 <= span.start {
                covering += bounds[next].1;
                next += 1;
            }
            // Spans never overlap, so no window opens or closes inside
            // one: the count at its first byte holds for all of it.
            if covering >= 2 {
                entities[k].interleaved += span.len();
            }
        }
        entities.sort_unstable_by_key(|e| (e.id.object, e.id.copy));
        MuxIndex { entities }
    }

    /// Degree of multiplexing for every served copy of `object`, in copy
    /// order; copies that sent no bytes are left out.
    pub(crate) fn degree(&self, object: ObjectId) -> ObjectMux {
        let from = self.entities.partition_point(|e| e.id.object < object);
        let per_copy = self.entities[from..]
            .iter()
            .take_while(|e| e.id.object == object)
            .filter(|e| e.bytes > 0)
            .map(|e| (e.id.copy, e.interleaved as f64 / e.bytes as f64))
            .collect();
        ObjectMux { object, per_copy }
    }
}

/// Per-object multiplexing summary across all served copies.
#[derive(Debug, Clone)]
pub struct ObjectMux {
    /// The object.
    pub object: ObjectId,
    /// Degree of multiplexing per copy, indexed by copy number where
    /// served (missing copies sent no data).
    pub per_copy: Vec<(u16, f64)>,
}

impl_to_json!(struct ObjectMux { object, per_copy });

impl ObjectMux {
    /// The copy with the lowest degree (the adversary only needs *one*
    /// serialized copy). `None` if no copy sent data. Uses a total order
    /// so a NaN degree (a degenerate zero-span unit injected by hand or
    /// by a defense transformation) ranks above every finite value
    /// instead of panicking mid-experiment.
    pub fn best(&self) -> Option<(u16, f64)> {
        self.per_copy
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// `true` if some copy transmitted essentially serialized (degree
    /// within [`SERIAL_EPSILON`] of zero).
    pub fn any_copy_serialized(&self) -> bool {
        self.per_copy.iter().any(|(_, d)| is_serialized(*d))
    }
}

/// Degree of multiplexing for every served copy of `object`. Sweeps the
/// whole map; [`crate::experiment::TrialResult::degree`] sweeps a trial's
/// map once for all its objects.
pub fn degree_of_multiplexing(map: &WireMap, object: ObjectId) -> ObjectMux {
    MuxIndex::new(map).degree(object)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use h2priv_tls::{RecordTag, TrafficClass, WireSpan as Span};
    use h2priv_util::check::{self, Gen};

    /// Bytes of `[s, e)` covered by the union of `windows`.
    fn covered_len(s: u64, e: u64, windows: &[(u64, u64)]) -> u64 {
        // Merge the clipped windows, then sum.
        let mut clips: Vec<(u64, u64)> = windows
            .iter()
            .filter_map(|&(ws, we)| {
                let lo = ws.max(s);
                let hi = we.min(e);
                (lo < hi).then_some((lo, hi))
            })
            .collect();
        clips.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (lo, hi) in clips {
            match cur.as_mut() {
                Some((_, ce)) if lo <= *ce => *ce = (*ce).max(hi),
                _ => {
                    if let Some((cs, ce)) = cur.take() {
                        total += ce - cs;
                    }
                    cur = Some((lo, hi));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// The definition, one entity at a time: `target`'s spans clipped
    /// against the union of every other entity's window. Returns
    /// `(interleaved, bytes)`, or `None` if `target` sent no span.
    pub(crate) fn oracle(map: &WireMap, target: EntityId) -> Option<(u64, u64)> {
        let all = entities(map);
        let t = all.iter().find(|e| e.id == target)?;
        let windows: Vec<(u64, u64)> = all
            .iter()
            .filter(|e| e.id != target)
            .map(|e| (e.start, e.end))
            .collect();
        let interleaved = t
            .spans
            .iter()
            .map(|&(s, e)| covered_len(s, e, &windows))
            .sum();
        Some((interleaved, t.bytes))
    }

    fn tag(obj: u32, copy: u16) -> RecordTag {
        RecordTag {
            stream_id: 1,
            object_id: obj,
            copy,
            class: TrafficClass::ObjectData,
        }
    }

    fn map(spans: &[(u64, u64, u32, u16)]) -> WireMap {
        let mut m = WireMap::new();
        for &(s, e, o, c) in spans {
            m.push(Span {
                start: s,
                end: e,
                tag: tag(o, c),
            });
        }
        m
    }

    #[test]
    fn serial_transfer_has_zero_degree() {
        let m = map(&[(0, 100, 1, 0), (100, 250, 2, 0)]);
        let d1 = degree_of_multiplexing(&m, ObjectId(1));
        let d2 = degree_of_multiplexing(&m, ObjectId(2));
        assert_eq!(d1.best(), Some((0, 0.0)));
        assert_eq!(d2.best(), Some((0, 0.0)));
        assert!(d1.any_copy_serialized());
    }

    #[test]
    fn perfect_interleaving_is_fully_multiplexed() {
        // O1 and O2 alternate 10-byte spans across [0, 200).
        let mut spans = vec![];
        for i in 0..10u64 {
            spans.push((i * 20, i * 20 + 10, 1, 0));
            spans.push((i * 20 + 10, i * 20 + 20, 2, 0));
        }
        let m = map(&spans);
        let d1 = degree_of_multiplexing(&m, ObjectId(1)).best().unwrap().1;
        // O2's window is [10, 200): all of O1 except its first 10 bytes
        // lies inside it.
        assert!((d1 - 0.9).abs() < 1e-9, "d1 = {d1}");
        let d2 = degree_of_multiplexing(&m, ObjectId(2)).best().unwrap().1;
        assert!((d2 - 0.9).abs() < 1e-9, "d2 = {d2}");
    }

    #[test]
    fn partially_overlapping_tail() {
        // O1 occupies [0, 100); O2 occupies [80, 180).
        let m = map(&[
            (0, 80, 1, 0),
            (80, 90, 2, 0),
            (90, 100, 1, 0),
            (100, 180, 2, 0),
        ]);
        // O1's bytes inside O2's window [80, 180): the [90, 100) span —
        // 10 of O1's 90 bytes.
        let d1 = degree_of_multiplexing(&m, ObjectId(1)).best().unwrap().1;
        assert!((d1 - 1.0 / 9.0).abs() < 1e-9, "d1 = {d1}");
    }

    #[test]
    fn copies_are_distinct_entities() {
        // Copy 0 of O1 interleaves with copy 1 of O1 (the paper's
        // retransmitted-version pathology).
        let m = map(&[(0, 50, 1, 0), (50, 100, 1, 1), (100, 150, 1, 0)]);
        let mux = degree_of_multiplexing(&m, ObjectId(1));
        assert_eq!(mux.per_copy.len(), 2);
        // Copy 0's window [0,150) contains all of copy 1.
        let d_copy1 = mux.per_copy.iter().find(|(c, _)| *c == 1).unwrap().1;
        assert_eq!(d_copy1, 1.0);
        // Copy 1's window [50,100) covers copy 0's bytes in [50,100): none
        // (copy 0 has no bytes there) -> only spans outside.
        let d_copy0 = mux.per_copy.iter().find(|(c, _)| *c == 0).unwrap().1;
        assert_eq!(d_copy0, 0.0);
        assert!(mux.any_copy_serialized());
    }

    #[test]
    fn no_data_yields_empty() {
        let m = WireMap::new();
        let mux = degree_of_multiplexing(&m, ObjectId(9));
        assert!(mux.per_copy.is_empty());
        assert_eq!(mux.best(), None);
        assert!(!mux.any_copy_serialized());
    }

    #[test]
    fn nan_degree_does_not_panic_best() {
        // A degenerate unit can surface a NaN degree (e.g. hand-built
        // zero-span entities in analysis tooling). `best` must stay
        // total: finite degrees win, an all-NaN list still returns.
        let mux = ObjectMux {
            object: ObjectId(1),
            per_copy: vec![(0, f64::NAN), (1, 0.25)],
        };
        assert_eq!(mux.best(), Some((1, 0.25)));
        let all_nan = ObjectMux {
            object: ObjectId(2),
            per_copy: vec![(0, f64::NAN)],
        };
        let best = all_nan.best().expect("one copy present");
        assert_eq!(best.0, 0);
        assert!(best.1.is_nan());
    }

    #[test]
    fn zero_span_entity_yields_no_degree() {
        // A zero-length span contributes zero bytes; the entity is
        // reported as "no data" (None), never as a NaN degree.
        let m = map(&[(10, 10, 1, 0)]);
        assert_eq!(degree_of_multiplexing(&m, ObjectId(1)).best(), None);
    }

    #[test]
    fn covered_len_merges_overlaps() {
        assert_eq!(covered_len(0, 100, &[(10, 30), (20, 50), (90, 200)]), 50);
        assert_eq!(covered_len(0, 100, &[]), 0);
        assert_eq!(covered_len(50, 60, &[(0, 100)]), 10);
    }

    /// A wire map in stream order: data spans of a few objects with up to
    /// three copies each, zero-length spans, gaps, non-object spans in
    /// between, and "twin" blocks whose two entities share one window.
    fn arbitrary_map(g: &mut Gen) -> WireMap {
        fn push(m: &mut WireMap, at: &mut u64, len: u64, tag: RecordTag) {
            m.push(Span {
                start: *at,
                end: *at + len,
                tag,
            });
            *at += len;
        }
        let mut m = WireMap::new();
        let mut at = 0u64;
        for twin in 0..g.u32(0, 40) {
            if g.bool(0.4) {
                at += g.u64(1, 25);
            }
            match g.u8(0, 9) {
                0 => {
                    let obj = tag(g.u32(0, 3), 0);
                    let other = *g.choose(&[
                        RecordTag {
                            class: TrafficClass::ResponseHeaders,
                            ..obj
                        },
                        RecordTag {
                            class: TrafficClass::Control,
                            ..obj
                        },
                        RecordTag {
                            object_id: u32::MAX,
                            ..obj
                        },
                        RecordTag::NONE,
                    ]);
                    let len = g.u64(0, 20);
                    push(&mut m, &mut at, len, other);
                }
                1 => {
                    // Twin entities: a zero-length span opens the first
                    // where the second starts, and one closes the second
                    // where the first ends.
                    let (a, b) = (tag(100 + twin, 0), tag(100 + twin, 1));
                    push(&mut m, &mut at, 0, a);
                    let (la, lb) = (g.u64(1, 30), g.u64(1, 30));
                    push(&mut m, &mut at, lb, b);
                    push(&mut m, &mut at, la, a);
                    push(&mut m, &mut at, 0, b);
                }
                _ => {
                    let len = if g.bool(0.15) { 0 } else { g.u64(1, 40) };
                    push(&mut m, &mut at, len, tag(g.u32(0, 3), g.u16(0, 2)));
                }
            }
        }
        m
    }

    /// The shapes [`arbitrary_map`] must produce, in [`shapes`] order.
    const SHAPES: [&str; 6] = [
        "zero-length span",
        "nested windows",
        "abutting windows",
        "identical windows",
        "several copies of one object",
        "non-object span between data spans",
    ];

    /// Which of [`SHAPES`] the map `m`, with entities `ents`, shows.
    fn shapes(m: &WireMap, ents: &[Entity]) -> [bool; 6] {
        let windows: Vec<(u64, u64)> = ents
            .iter()
            .filter(|e| e.start < e.end)
            .map(|e| (e.start, e.end))
            .collect();
        let pair = |shape: &dyn Fn((u64, u64), (u64, u64)) -> bool| {
            windows.iter().enumerate().any(|(i, &a)| {
                windows
                    .iter()
                    .enumerate()
                    .any(|(j, &b)| i != j && shape(a, b))
            })
        };
        let data: Vec<&Span> = m
            .spans()
            .iter()
            .filter(|s| s.tag.is_object_data())
            .collect();
        let first = data.first().map_or(u64::MAX, |s| s.start);
        let last = data.last().map_or(0, |s| s.end);
        [
            data.iter().any(|s| s.is_empty()),
            pair(&|a, b| a.0 <= b.0 && b.1 <= a.1 && a != b),
            pair(&|a, b| a.1 == b.0),
            pair(&|a, b| a == b),
            ents.iter().any(|e| {
                ents.iter()
                    .any(|o| o.id.object == e.id.object && o.id.copy != e.id.copy)
            }),
            m.spans()
                .iter()
                .any(|s| !s.tag.is_object_data() && first <= s.start && s.end <= last),
        ]
    }

    #[test]
    fn sweep_matches_the_definition_on_generated_maps() {
        let mut seen = [0u32; 6];
        check::run("mux_sweep_vs_definition", 512, |g| {
            let m = arbitrary_map(g);
            let ents = entities(&m);
            for (n, shown) in seen.iter_mut().zip(shapes(&m, &ents)) {
                *n += u32::from(shown);
            }
            let index = MuxIndex::new(&m);
            assert_eq!(index.entities.len(), ents.len());
            for e in &index.entities {
                assert_eq!(
                    Some((e.interleaved, e.bytes)),
                    oracle(&m, e.id),
                    "entity {:?}",
                    e.id
                );
            }
            for object in (0..4).chain(100..140).map(ObjectId) {
                let want: Vec<(u16, u64)> = m
                    .copies_of(object.0)
                    .into_iter()
                    .filter_map(|copy| {
                        let (i, b) = oracle(&m, EntityId { object, copy })?;
                        (b > 0).then(|| (copy, (i as f64 / b as f64).to_bits()))
                    })
                    .collect();
                let got: Vec<(u16, u64)> = degree_of_multiplexing(&m, object)
                    .per_copy
                    .iter()
                    .map(|&(c, d)| (c, d.to_bits()))
                    .collect();
                assert_eq!(got, want, "object {object:?}");
            }
        });
        for (shape, seen) in SHAPES.iter().zip(seen) {
            assert!(seen >= 128, "only {seen} of 512 maps had {shape}");
        }
    }
}
